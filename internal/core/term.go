// Package core defines the internal representation of the
// path-conjunctive (PC) language of Deutsch, Popa, Tannen (VLDB 1999):
// paths (terms), PC queries, and embedded path-conjunctive dependencies
// (EPCDs). Every other component of the optimizer — the chase, the
// backchase, containment, evaluation and cost estimation — operates on
// these structures.
//
// The grammar (§5 of the paper):
//
//	Paths             P ::= x | c | R | P.A | dom(P) | P[x]
//	Path conjunctions B ::= P1 = P1' and ... and Pk = Pk'
//	PC queries        select struct(A1: P1', ..., An: Pn')
//	                  from P1 x1, ..., Pm xm
//	                  where B
//
// Terms are immutable: transformation functions never modify their input;
// they return new terms that share every subtree they leave unchanged.
// Because of that, a term renders its HashKey once and keeps it.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// TermKind discriminates the variants of Term.
type TermKind int

// The kinds of terms.
const (
	KVar TermKind = iota
	KConst
	KName   // schema name (relation, dictionary, class extent, view)
	KProj   // P.A — record projection (implicit deref in OQL)
	KDom    // dom(P) — domain of a dictionary
	KLookup // P[k] — dictionary lookup; NonFailing renders as P{k}
	KStruct // struct(A1: P1, ..., An: Pn) — output constructor
)

// Term is a path expression. Terms form a small algebraic datatype; since
// Go has no sum types, Term is a struct with a Kind discriminator and the
// union of all fields. Use the constructors (V, C, Name, Prj, Dom, Lk,
// Struct) rather than composite literals. A term must not be modified
// once built, and must not be copied by value: it memoizes its HashKey.
type Term struct {
	Kind TermKind

	// Name holds the variable name (KVar), schema name (KName) or
	// projected field name (KProj).
	Name string

	// Val holds the constant value for KConst. Constants are base-typed;
	// the dynamic type is one of int64, float64, string, bool.
	Val any

	// Base is the operand for KProj and KDom, the dictionary for KLookup.
	Base *Term

	// Key is the lookup key for KLookup.
	Key *Term

	// NonFailing marks a lookup with the physical operation M{k} that
	// returns the empty set instead of failing on missing keys (footnote 4
	// of the paper). PC surface queries may only use guarded failing
	// lookups; non-failing lookups appear in optimized plans (§4).
	NonFailing bool

	// Fields holds the components of a KStruct constructor, in order.
	Fields []StructField

	// key memoizes HashKey. It is filled on first use, so composite
	// literals need not set it; concurrent first uses render the same
	// string and either store wins.
	key atomic.Pointer[string]
}

// StructField is one component of a struct-constructor term.
type StructField struct {
	Name string
	Term *Term
}

// V returns a variable term.
func V(name string) *Term { return &Term{Kind: KVar, Name: name} }

// C returns a constant term. val must be int64, float64, string or bool;
// int is widened to int64 for convenience.
func C(val any) *Term {
	switch v := val.(type) {
	case int:
		return &Term{Kind: KConst, Val: int64(v)}
	case int64, float64, string, bool:
		return &Term{Kind: KConst, Val: v}
	default:
		panic(fmt.Sprintf("core: unsupported constant type %T", val))
	}
}

// Name returns a schema-name term.
func Name(name string) *Term { return &Term{Kind: KName, Name: name} }

// Prj returns the projection base.field.
func Prj(base *Term, field string) *Term {
	return &Term{Kind: KProj, Name: field, Base: base}
}

// Dom returns dom(dict).
func Dom(dict *Term) *Term { return &Term{Kind: KDom, Base: dict} }

// Lk returns the failing lookup dict[key].
func Lk(dict, key *Term) *Term {
	return &Term{Kind: KLookup, Base: dict, Key: key}
}

// LkNF returns the non-failing lookup dict{key}.
func LkNF(dict, key *Term) *Term {
	return &Term{Kind: KLookup, Base: dict, Key: key, NonFailing: true}
}

// Struct returns a struct-constructor term with fields in the given order.
func Struct(fields ...StructField) *Term {
	return &Term{Kind: KStruct, Fields: fields}
}

// SF is shorthand for a struct-constructor field.
func SF(name string, t *Term) StructField { return StructField{Name: name, Term: t} }

// Equal reports structural equality of terms. Constants compare by value,
// including across the int64/float64 divide only when identical dynamic
// types; NonFailing is significant.
func (t *Term) Equal(u *Term) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case KVar, KName:
		return t.Name == u.Name
	case KConst:
		return t.Val == u.Val
	case KProj:
		return t.Name == u.Name && t.Base.Equal(u.Base)
	case KDom:
		return t.Base.Equal(u.Base)
	case KLookup:
		return t.NonFailing == u.NonFailing && t.Base.Equal(u.Base) && t.Key.Equal(u.Key)
	case KStruct:
		if len(t.Fields) != len(u.Fields) {
			return false
		}
		for i := range t.Fields {
			if t.Fields[i].Name != u.Fields[i].Name ||
				!t.Fields[i].Term.Equal(u.Fields[i].Term) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the term in the surface syntax.
func (t *Term) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KVar, KName:
		return t.Name
	case KConst:
		if s, ok := t.Val.(string); ok {
			return fmt.Sprintf("%q", s)
		}
		return fmt.Sprintf("%v", t.Val)
	case KProj:
		return t.Base.String() + "." + t.Name
	case KDom:
		return "dom(" + t.Base.String() + ")"
	case KLookup:
		if t.NonFailing {
			return t.Base.String() + "{" + t.Key.String() + "}"
		}
		return t.Base.String() + "[" + t.Key.String() + "]"
	case KStruct:
		var b strings.Builder
		b.WriteString("struct(")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteString(": ")
			b.WriteString(f.Term.String())
		}
		b.WriteString(")")
		return b.String()
	default:
		return fmt.Sprintf("<bad term kind %d>", int(t.Kind))
	}
}

// HashKey returns a canonical string usable as a map key. It is injective
// on terms (two terms have the same key iff Equal); unlike String it
// distinguishes variables from schema names and tags constant types.
//
// The key is rendered on the first call, from the children's own
// memoized keys, and kept on the node: later calls cost one atomic load.
func (t *Term) HashKey() string {
	if t == nil {
		return "<nil>"
	}
	if k := t.key.Load(); k != nil {
		return *k
	}
	k := t.renderKey()
	t.key.Store(&k)
	return k
}

// renderKey builds t's key from its children's HashKeys.
func (t *Term) renderKey() string {
	switch t.Kind {
	case KVar:
		return "?" + t.Name
	case KName:
		return "!" + t.Name
	case KConst:
		return fmt.Sprintf("#%T:%v", t.Val, t.Val)
	case KProj:
		return t.Base.HashKey() + "." + t.Name
	case KDom:
		return "dom(" + t.Base.HashKey() + ")"
	case KLookup:
		if t.NonFailing {
			return t.Base.HashKey() + "{" + t.Key.HashKey() + "}"
		}
		return t.Base.HashKey() + "[" + t.Key.HashKey() + "]"
	case KStruct:
		var b strings.Builder
		b.WriteString("struct(")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			b.WriteString(f.Term.HashKey())
		}
		b.WriteByte(')')
		return b.String()
	}
	return ""
}

// Vars returns the set of variable names occurring in the term.
func (t *Term) Vars() map[string]bool {
	vs := make(map[string]bool)
	t.collectVars(vs)
	return vs
}

func (t *Term) collectVars(vs map[string]bool) {
	if t == nil {
		return
	}
	switch t.Kind {
	case KVar:
		vs[t.Name] = true
	case KProj, KDom:
		t.Base.collectVars(vs)
	case KLookup:
		t.Base.collectVars(vs)
		t.Key.collectVars(vs)
	case KStruct:
		for _, f := range t.Fields {
			f.Term.collectVars(vs)
		}
	}
}

// Names returns the set of schema names occurring in the term.
func (t *Term) Names() map[string]bool {
	ns := make(map[string]bool)
	t.collectNames(ns)
	return ns
}

func (t *Term) collectNames(ns map[string]bool) {
	if t == nil {
		return
	}
	switch t.Kind {
	case KName:
		ns[t.Name] = true
	case KProj, KDom:
		t.Base.collectNames(ns)
	case KLookup:
		t.Base.collectNames(ns)
		t.Key.collectNames(ns)
	case KStruct:
		for _, f := range t.Fields {
			f.Term.collectNames(ns)
		}
	}
}

// MentionsVar reports whether the variable occurs in the term.
func (t *Term) MentionsVar(name string) bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case KVar:
		return t.Name == name
	case KProj, KDom:
		return t.Base.MentionsVar(name)
	case KLookup:
		return t.Base.MentionsVar(name) || t.Key.MentionsVar(name)
	case KStruct:
		for _, f := range t.Fields {
			if f.Term.MentionsVar(name) {
				return true
			}
		}
	}
	return false
}

// Subst returns the term with every free occurrence of the variables in
// the substitution replaced. The substitution maps variable names to
// replacement terms. Subtrees the substitution leaves unchanged are
// shared, not copied: a term none of whose variables is replaced is
// returned as is.
func (t *Term) Subst(sub map[string]*Term) *Term {
	if t == nil || len(sub) == 0 {
		return t
	}
	if t.Kind == KVar {
		if r, ok := sub[t.Name]; ok {
			return r
		}
		return t
	}
	return t.mapChildren(func(c *Term) *Term { return c.Subst(sub) })
}

// mapChildren returns t over the children f maps t's children to: t
// itself when f returns every child unchanged, else a new node.
func (t *Term) mapChildren(f func(*Term) *Term) *Term {
	switch t.Kind {
	case KProj, KDom:
		if b := f(t.Base); b != t.Base {
			return &Term{Kind: t.Kind, Name: t.Name, Base: b}
		}
	case KLookup:
		b, k := f(t.Base), f(t.Key)
		if b != t.Base || k != t.Key {
			return &Term{Kind: KLookup, Base: b, Key: k, NonFailing: t.NonFailing}
		}
	case KStruct:
		var fs []StructField
		for i, fl := range t.Fields {
			ft := f(fl.Term)
			if fs == nil && ft != fl.Term {
				fs = make([]StructField, len(t.Fields))
				copy(fs, t.Fields[:i])
			}
			if fs != nil {
				fs[i] = StructField{Name: fl.Name, Term: ft}
			}
		}
		if fs != nil {
			return &Term{Kind: KStruct, Fields: fs}
		}
	}
	return t
}

// Subterms returns all subterms of t (including t itself) in a
// deterministic order (post-order, deduplicated by HashKey).
func (t *Term) Subterms() []*Term {
	seen := make(map[string]bool)
	var out []*Term
	var walk func(*Term)
	walk = func(u *Term) {
		if u == nil {
			return
		}
		switch u.Kind {
		case KProj, KDom:
			walk(u.Base)
		case KLookup:
			walk(u.Base)
			walk(u.Key)
		case KStruct:
			for _, f := range u.Fields {
				walk(f.Term)
			}
		}
		k := u.HashKey()
		if !seen[k] {
			seen[k] = true
			out = append(out, u)
		}
	}
	walk(t)
	return out
}

// Size returns the number of nodes in the term tree.
func (t *Term) Size() int {
	if t == nil {
		return 0
	}
	switch t.Kind {
	case KVar, KConst, KName:
		return 1
	case KProj, KDom:
		return 1 + t.Base.Size()
	case KLookup:
		return 1 + t.Base.Size() + t.Key.Size()
	case KStruct:
		n := 1
		for _, f := range t.Fields {
			n += f.Term.Size()
		}
		return n
	default:
		return 1
	}
}

// Root descends through projections, lookups and dom to the leftmost leaf
// (a variable, constant, or schema name). For example the root of
// Dept[d].DProjs is Dept.
func (t *Term) Root() *Term {
	for {
		switch t.Kind {
		case KProj, KDom, KLookup:
			t = t.Base
		default:
			return t
		}
	}
}

// SortedVars returns the variables of t in sorted order.
func (t *Term) SortedVars() []string {
	vs := t.Vars()
	out := make([]string, 0, len(vs))
	for v := range vs {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
