package congruence

import (
	"slices"

	"cnb/internal/core"
)

// VarSet is a set of a frozen closure's variables, one bit per variable.
type VarSet []uint64

func (s VarSet) add(b int) { s[b/64] |= 1 << uint(b%64) }

func (f *frozenClasses) varsOf(id int) VarSet { return f.vars[id*f.words : (id+1)*f.words] }

// ClassOf returns the Classes index of node id's class (frozen only).
func (c *Closure) ClassOf(id int) int { return c.frozen.classOf[id] }

// VarSet returns the set of the frozen closure's variables in holds.
func (c *Closure) VarSet(in func(v string) bool) VarSet {
	s := make(VarSet, c.frozen.words)
	for v, b := range c.frozen.varBit {
		if in(v) {
			s.add(b)
		}
	}
	return s
}

// Covers reports whether s holds every variable of t (interned or not).
func (c *Closure) Covers(s VarSet, t *core.Term) bool {
	switch t.Kind {
	case core.KVar:
		b, ok := c.frozen.varBit[t.Name]
		return ok && s[b/64]&(1<<uint(b%64)) != 0
	case core.KProj, core.KDom, core.KLookup:
		return c.Covers(s, t.Base) && (t.Key == nil || c.Covers(s, t.Key))
	}
	for _, f := range t.Fields {
		if !c.Covers(s, f.Term) {
			return false
		}
	}
	return true
}

// Rewriter re-expresses a frozen closure's terms without the variables
// of avoid (§3: the backchase step's rewriting of ranges, output and
// conditions). It reads node and class ids only, a node being free when
// its VarSet and avoid share no bit. One goroutine uses a Rewriter; any
// number may share the closure.
type Rewriter struct {
	c     *Closure
	f     *frozenClasses
	avoid VarSet
	first []int32 // class -> 2 + its first free member; 1 if none, 0 until asked
	busy  []bool  // node id -> being rewritten higher up the recursion
	out   []*core.Term
	// listed holds each class's ClassVariants once anchored asks, and
	// variants each node's variant once asked (nil until then).
	listed   [][]*core.Term
	variants []memoTerm
}

// memoTerm is a memoized rewriting outcome: set once computed.
type memoTerm struct {
	t       *core.Term
	ok, set bool
}

// Rewriter returns a rewriter away from avoid on a frozen closure.
func (c *Closure) Rewriter(avoid VarSet) *Rewriter {
	f := c.frozen
	return &Rewriter{c: c, f: f, avoid: avoid, first: make([]int32, len(f.classes)), busy: make([]bool, len(c.nodes))}
}

func (r *Rewriter) free(id int) bool {
	for i, w := range r.f.varsOf(id) {
		if w&r.avoid[i] != 0 {
			return false
		}
	}
	return true
}

func (r *Rewriter) firstFree(class int) int {
	if r.first[class] == 0 {
		r.first[class] = 1
		for _, m := range r.f.members[class] {
			if r.free(m) {
				r.first[class] = int32(2 + m)
				break
			}
		}
	}
	return int(r.first[class]) - 2
}

func (r *Rewriter) term(id int) *core.Term { return r.c.nodes[id].term }

// Rewrite returns a free term congruent to node id's, if there is one:
// the node's term if free; its class's first free member; a rebuild of
// the node, then of each other member (d away from {d, dd}, d = Dept[dd],
// dd = j.DOID gives Dept[j.DOID]); else inverse beta, X.F for a
// rewritable non-constructor X congruent to a constructor whose field F
// is in the class (e = struct(B: r.B) gives e.B for r.B away from r). A
// node being rewritten higher up fails, so the recursion ends.
func (r *Rewriter) Rewrite(id int) (*core.Term, bool) {
	if r.free(id) {
		return r.term(id), true
	}
	if r.busy[id] {
		return nil, false
	}
	class := r.f.classOf[id]
	if m := r.firstFree(class); m >= 0 {
		return r.term(m), true
	}
	r.busy[id] = true
	defer func() { r.busy[id] = false }()
	t, ok := r.rebuild(id)
	for _, m := range r.f.members[class] {
		if !ok && m != id {
			t, ok = r.rebuild(m)
		}
	}
	if ok {
		return t, true
	}
	for _, s := range r.f.structs {
		n := &r.c.nodes[s]
		for i, a := range n.args {
			for _, m := range r.f.members[r.f.classOf[s]] {
				if r.c.parent[a] != r.c.parent[id] || r.term(m).Kind == core.KStruct {
					continue
				}
				if t, ok := r.Rewrite(m); ok {
					return core.Prj(t, n.term.Fields[i].Name), true
				}
			}
		}
	}
	return nil, false
}

// rebuild reconstructs node id over its rewritten children (its own term
// when none changes); a leaf rebuilds only when free.
func (r *Rewriter) rebuild(id int) (*core.Term, bool) {
	n := &r.c.nodes[id]
	t := n.term
	var buf [4]*core.Term
	kids, same := buf[:0], true
	for _, a := range n.args {
		k, ok := r.Rewrite(a)
		if !ok {
			return nil, false
		}
		kids, same = append(kids, k), same && k == r.term(a)
	}
	switch {
	case len(kids) == 0:
		return t, r.free(id)
	case same:
		return t, true
	case t.Kind == core.KLookup:
		return &core.Term{Kind: core.KLookup, Base: kids[0], Key: kids[1], NonFailing: t.NonFailing}, true
	case t.Kind != core.KStruct:
		return &core.Term{Kind: t.Kind, Name: t.Name, Base: kids[0]}, true
	}
	fs := make([]core.StructField, len(kids))
	for i, k := range kids {
		fs[i] = core.StructField{Name: t.Fields[i].Name, Term: k}
	}
	return core.Struct(fs...), true
}

// Resolve places t in a class of the closure and reports whether it can
// prove t equal to that class's variants, reading only: t need not be
// interned. Write E for the equalities that equate each class's
// ClassVariants among themselves (the conditions of a backchase subquery
// built with this rewriter) and ≅ for congruence under E and the
// closure's axioms, over all terms. Resolve(t) = (C, true, true) implies
// that ClassVariants(C) is not empty and t ≅ v for each of its variants
// v.
//
// C is the class Lookup finds for t; ok is false on a Miss or an
// Ambiguous lookup (no one class to name). proven is decided by
// induction on t; a term is anchored in a class when ClassVariants lists
// it for that class:
//
//   - t interned: proven when its node is free. ClassVariants(C) lists
//     every free member of C.
//   - t = op(t1, ..., tk), ti in Ci, and a node m = op(m1, ..., mk) with
//     each mi in Ci (a Lookup Hit): proven when the term v that
//     ClassVariants(C) lists for m (variantOf) is op(v1, ..., vk) and
//     for each i, ti is vi, or ti is proven and vi is anchored in Ci, so
//     that ti ≅ vi. Then t ≅ v by congruence.
//   - t = t1.F, t1 in C1, no node x.F with x in C1, and constructors in
//     C1 whose F fields lie in C (a Lookup Beta): proven when t1 is
//     proven and, for one such constructor s, the variant v listed for s
//     is a constructor whose F field f is anchored in C. Then t1 ≅ v,
//     and t ≅ v.F ≅ f by congruence and beta.
//
// The proof never asks what the variants are beyond what is checked
// here, so it holds whichever of Rewrite's branches (a free member, a
// rebuild, inverse beta) produced them.
func (r *Rewriter) Resolve(t *core.Term) (class int, proven, ok bool) {
	if id, ok := r.c.ID(t); ok {
		return r.c.find(id), r.free(id), true
	}
	n := arity(t)
	if n == 0 {
		return 0, false, false
	}
	var argBuf [4]int
	var provenBuf [4]bool
	args, provenKids := argBuf[:0], provenBuf[:0]
	for i := 0; i < n; i++ {
		a, p, ok := r.Resolve(child(t, i))
		if !ok {
			return 0, false, false
		}
		args, provenKids = append(args, a), append(provenKids, p)
	}
	op := OpOf(t)
	if m, hit := r.c.sigNode(op.Tag, args); hit {
		v, ok := r.variant(m)
		proven = ok && sameOp(v, t)
		for i := 0; proven && i < n; i++ {
			vi := child(v, i)
			proven = child(t, i).Equal(vi) || provenKids[i] && r.anchored(vi, args[i])
		}
		return r.c.find(m), proven, true
	}
	rep, st := r.c.Lookup(op, args)
	if st != Beta {
		return 0, false, false
	}
	for _, s := range r.c.structsIn[args[0]] {
		if v, ok := r.variant(s); provenKids[0] && ok && v.Kind == core.KStruct {
			for _, f := range v.Fields {
				if f.Name == t.Name && r.anchored(f.Term, rep) {
					return rep, true, true
				}
			}
		}
	}
	return rep, false, true
}

// Equates reports whether it can prove a ≅ b (≅ as for Resolve): a is
// b; or a and b have one operator and Equates holds for each pair of
// children, so a ≅ b by congruence; or both Resolve proven to one class.
func (r *Rewriter) Equates(a, b *core.Term) bool {
	if a.Equal(b) {
		return true
	}
	if n := arity(a); n > 0 && sameOp(a, b) {
		all := true
		for i := 0; all && i < n; i++ {
			all = r.Equates(child(a, i), child(b, i))
		}
		if all {
			return true
		}
	}
	ca, pa, _ := r.Resolve(a)
	if !pa {
		return false
	}
	cb, pb, _ := r.Resolve(b)
	return pb && ca == cb
}

// anchored reports whether ClassVariants lists t for the class rep.
func (r *Rewriter) anchored(t *core.Term, rep int) bool {
	if id, ok := r.c.ID(t); ok && r.free(id) && r.c.find(id) == rep {
		return true
	}
	class := r.f.classOf[rep]
	if r.listed == nil {
		r.listed = make([][]*core.Term, len(r.f.classes))
	}
	if r.listed[class] == nil {
		r.listed[class] = slices.Clone(r.ClassVariants(class))
	}
	return slices.ContainsFunc(r.listed[class], func(v *core.Term) bool { return v.HashKey() == t.HashKey() })
}

// sameOp reports whether a and b have one operator.
func sameOp(a, b *core.Term) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.NonFailing != b.NonFailing || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i, f := range a.Fields {
		if f.Name != b.Fields[i].Name {
			return false
		}
	}
	return true
}

// arity returns the number of t's children; 0 for a leaf.
func arity(t *core.Term) int {
	switch t.Kind {
	case core.KProj, core.KDom:
		return 1
	case core.KLookup:
		return 2
	}
	return len(t.Fields)
}

// child returns t's i-th child in node argument order.
func child(t *core.Term, i int) *core.Term {
	switch {
	case t.Kind == core.KStruct:
		return t.Fields[i].Term
	case i == 1:
		return t.Key
	}
	return t.Base
}

// variant is variantOf memoized per node, for Resolve.
func (r *Rewriter) variant(m int) (*core.Term, bool) {
	if r.free(m) {
		return r.term(m), true
	}
	if r.variants == nil {
		r.variants = make([]memoTerm, len(r.c.nodes))
	}
	v := &r.variants[m]
	if !v.set {
		v.t, v.ok = r.variantOf(m)
		v.set = true
	}
	return v.t, v.ok
}

// variantOf returns the term ClassVariants lists for member m of its
// class, up to a duplicate of an earlier one: m's term when m is free;
// else, when the class has a free member, m's rebuild; else m's Rewrite.
func (r *Rewriter) variantOf(m int) (*core.Term, bool) {
	switch {
	case r.free(m):
		return r.term(m), true
	case r.firstFree(r.f.classOf[m]) < 0:
		return r.Rewrite(m)
	}
	r.busy[m] = true
	t, ok := r.rebuild(m)
	r.busy[m] = false
	return t, ok
}

// ClassVariants returns the distinct free terms congruent to class's
// members, rebuilt ones included (the paper's P4 needs I[j.PN].CustName).
// With a free member: the free members, the first member's rebuild
// merged in HashKey order, then later members' rebuilds; otherwise each
// member's Rewrite. The first variant is the left side of each of the
// class's backchase conditions, so this order is part of the output.
// The next call reuses the slice.
func (r *Rewriter) ClassVariants(class int) []*core.Term {
	out := r.out[:0]
	hasFree := r.firstFree(class) >= 0
	for _, m := range r.f.members[class] {
		if hasFree && r.free(m) {
			out = append(out, r.term(m))
		}
	}
	for i, m := range r.f.members[class] {
		if r.free(m) {
			continue
		}
		t, ok := r.variantOf(m)
		if !ok || slices.ContainsFunc(out, func(u *core.Term) bool { return u.HashKey() == t.HashKey() }) {
			continue
		}
		out = append(out, t)
		for j := len(out) - 1; hasFree && i == 0 && j > 0 && out[j-1].HashKey() > t.HashKey(); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	r.out = out
	return out
}
