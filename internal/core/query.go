package core

import (
	"fmt"
	"sort"
	"strings"
)

// Binding is one generator of a from clause: "Range var", e.g.
// "Proj p" or "dom(Dept) d" or "Dept[d].DProjs s". Later bindings may
// depend on variables introduced by earlier ones (dependent join).
type Binding struct {
	Var   string
	Range *Term
}

// String renders the binding in "Range var" source syntax.
func (b Binding) String() string { return b.Range.String() + " " + b.Var }

// Cond is an equality between two paths, the only predicate form of the
// path-conjunctive language.
type Cond struct {
	L, R *Term
}

// String renders the condition in "L = R" source syntax.
func (c Cond) String() string { return c.L.String() + " = " + c.R.String() }

// Query is a path-conjunctive query:
//
//	select Out from Bindings where Conds
//
// with set (distinct) semantics. Out is typically a struct-constructor
// term but may be any path of base or flat-record type.
type Query struct {
	Out      *Term
	Bindings []Binding
	Conds    []Cond
}

// String renders the query in the surface syntax across multiple lines.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	b.WriteString(q.Out.String())
	b.WriteString("\nfrom ")
	for i, bd := range q.Bindings {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(bd.String())
	}
	if len(q.Conds) > 0 {
		b.WriteString("\nwhere ")
		for i, c := range q.Conds {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(c.String())
		}
	}
	return b.String()
}

// Clone returns a deep-enough copy: binding and condition slices are
// copied; terms are immutable and shared.
func (q *Query) Clone() *Query {
	nb := make([]Binding, len(q.Bindings))
	copy(nb, q.Bindings)
	nc := make([]Cond, len(q.Conds))
	copy(nc, q.Conds)
	return &Query{Out: q.Out, Bindings: nb, Conds: nc}
}

// BoundVars returns the set of variables introduced by the from clause.
func (q *Query) BoundVars() map[string]bool {
	vs := make(map[string]bool, len(q.Bindings))
	for _, b := range q.Bindings {
		vs[b.Var] = true
	}
	return vs
}

// BindingOf returns the index of the binding that introduces the variable,
// or -1.
func (q *Query) BindingOf(v string) int {
	for i, b := range q.Bindings {
		if b.Var == v {
			return i
		}
	}
	return -1
}

// Names returns all schema names mentioned anywhere in the query.
func (q *Query) Names() map[string]bool {
	ns := make(map[string]bool)
	for _, b := range q.Bindings {
		for n := range b.Range.Names() {
			ns[n] = true
		}
	}
	for _, c := range q.Conds {
		for n := range c.L.Names() {
			ns[n] = true
		}
		for n := range c.R.Names() {
			ns[n] = true
		}
	}
	for n := range q.Out.Names() {
		ns[n] = true
	}
	return ns
}

// AllTerms returns every term occurring in the query (ranges, condition
// sides, output and all their subterms), deduplicated, in deterministic
// order.
func (q *Query) AllTerms() []*Term {
	seen := make(map[string]bool)
	var out []*Term
	add := func(ts []*Term) {
		for _, t := range ts {
			k := t.HashKey()
			if !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	for _, b := range q.Bindings {
		add(b.Range.Subterms())
		add(V(b.Var).Subterms())
	}
	for _, c := range q.Conds {
		add(c.L.Subterms())
		add(c.R.Subterms())
	}
	add(q.Out.Subterms())
	return out
}

// Validate checks the structural well-formedness of the query:
// binding variables are distinct, every range mentions only variables
// introduced earlier, and conditions/output mention only bound variables.
func (q *Query) Validate() error {
	if q.Out == nil {
		return fmt.Errorf("core: query with nil output")
	}
	introduced := make(map[string]bool, len(q.Bindings))
	for i, b := range q.Bindings {
		if b.Var == "" {
			return fmt.Errorf("core: binding %d has empty variable", i)
		}
		if introduced[b.Var] {
			return fmt.Errorf("core: duplicate binding variable %q", b.Var)
		}
		if b.Range == nil {
			return fmt.Errorf("core: binding %q has nil range", b.Var)
		}
		for v := range b.Range.Vars() {
			if !introduced[v] {
				return fmt.Errorf("core: range of %q mentions unbound variable %q", b.Var, v)
			}
		}
		introduced[b.Var] = true
	}
	for _, c := range q.Conds {
		for v := range c.L.Vars() {
			if !introduced[v] {
				return fmt.Errorf("core: condition %s mentions unbound variable %q", c, v)
			}
		}
		for v := range c.R.Vars() {
			if !introduced[v] {
				return fmt.Errorf("core: condition %s mentions unbound variable %q", c, v)
			}
		}
	}
	for v := range q.Out.Vars() {
		if !introduced[v] {
			return fmt.Errorf("core: output mentions unbound variable %q", v)
		}
	}
	return nil
}

// RenameVars returns a copy of the query with every bound variable renamed
// by the given function. Useful for freshening apart before homomorphism
// search.
func (q *Query) RenameVars(rename func(string) string) *Query {
	sub := make(map[string]*Term, len(q.Bindings))
	for _, b := range q.Bindings {
		sub[b.Var] = V(rename(b.Var))
	}
	nb := make([]Binding, len(q.Bindings))
	for i, b := range q.Bindings {
		nb[i] = Binding{Var: rename(b.Var), Range: b.Range.Subst(sub)}
	}
	nc := make([]Cond, len(q.Conds))
	for i, c := range q.Conds {
		nc[i] = Cond{L: c.L.Subst(sub), R: c.R.Subst(sub)}
	}
	return &Query{Out: q.Out.Subst(sub), Bindings: nb, Conds: nc}
}

// FreshRenaming returns a renaming function producing variables that do
// not collide with any variable in `avoid`, by appending primes or a
// numeric suffix.
func FreshRenaming(prefix string, avoid map[string]bool) func(string) string {
	counter := 0
	assigned := make(map[string]string)
	return func(v string) string {
		if r, ok := assigned[v]; ok {
			return r
		}
		for {
			cand := fmt.Sprintf("%s%s_%d", prefix, v, counter)
			counter++
			if !avoid[cand] {
				assigned[v] = cand
				avoid[cand] = true
				return cand
			}
		}
	}
}

// SortedNames returns the schema names of the query in sorted order.
func (q *Query) SortedNames() []string {
	ns := q.Names()
	out := make([]string, 0, len(ns))
	for n := range ns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Signature returns a canonical string for the query at its current
// binding order: variables are renamed to b0, b1, ... by binding
// position and the query is printed with sorted, oriented, deduplicated
// conditions. It is invariant under variable renaming and condition
// reorder/flip but NOT under binding reorder — two orders of the same
// bindings render different positional names. For the fully
// renaming-invariant form that also canonicalizes the order — the
// contract the plan cache and singleflight keys rely on — use
// CanonicalSignature (canon.go).
func (q *Query) Signature() string {
	rename := make(map[string]*Term, len(q.Bindings))
	for i, b := range q.Bindings {
		rename[b.Var] = V(fmt.Sprintf("b%d", i))
	}
	var sb strings.Builder
	for i, b := range q.Bindings {
		fmt.Fprintf(&sb, "from b%d in %s;", i, b.Range.Subst(rename).HashKey())
	}
	conds := make([]string, 0, len(q.Conds))
	for _, c := range q.Conds {
		l := c.L.Subst(rename).HashKey()
		r := c.R.Subst(rename).HashKey()
		if l > r {
			l, r = r, l
		}
		conds = append(conds, l+"="+r)
	}
	sort.Strings(conds)
	// Deduplicate identical conditions.
	prev := ""
	for _, c := range conds {
		if c != prev {
			sb.WriteString("where " + c + ";")
			prev = c
		}
	}
	sb.WriteString("out " + q.Out.Subst(rename).HashKey())
	return sb.String()
}
