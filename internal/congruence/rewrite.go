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
		var t *core.Term
		ok := !r.free(m)
		if ok && hasFree {
			r.busy[m] = true
			t, ok = r.rebuild(m)
			r.busy[m] = false
		} else if ok {
			t, ok = r.Rewrite(m)
		}
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
