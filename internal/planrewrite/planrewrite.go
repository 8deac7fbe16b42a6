// Package planrewrite holds plan-level rewrites shared by the optimizer's
// conventional-optimization phase, the greedy tier and the calibration
// experiments: each needs to see a candidate in its executable form —
// guarded dictionary-domain loops collapsed into non-failing lookups —
// before costing or running it, so the rewrite lives in this leaf
// package.
package planrewrite

import (
	"cnb/internal/core"
)

// SimplifyLookups rewrites guarded dictionary-domain loops into
// non-failing lookups — the final transformation of the paper's §4
// example: a binding pair
//
//	dom(M) k, M[k] x   with   k = t   (t not mentioning k)
//
// becomes the single binding  M{t} x, replacing k by t everywhere. The
// guard condition is consumed by the non-failing lookup: when t ∉ dom(M)
// the loop is empty in both forms. Other occurrences of M[k] become M[t],
// which can only be evaluated when M{t} is non-empty, i.e. when the
// failing lookup is defined.
func SimplifyLookups(q *core.Query) *core.Query {
	cur := q.Clone()
	for changed := true; changed; {
		changed = false
		for i, b := range cur.Bindings {
			if b.Range.Kind != core.KDom {
				continue
			}
			k := b.Var
			dict := b.Range.Base
			if !dependentsAreDirectLookups(cur, i, k, dict) {
				continue
			}
			// Try every key candidate: the first may be circular (e.g.
			// k = t1.A where t1 is the dependent lookup itself).
			var next *core.Query
			for _, cand := range keyEqualities(cur, k) {
				next = applyLookupSimplification(cur, i, cand.condIdx, k, dict, cand.t)
				if next != nil {
					break
				}
			}
			if next != nil {
				cur = next
				changed = true
				break
			}
		}
	}
	return cur
}

// keyCandidate is a term the conditions force equal to the key variable,
// plus the index of the condition consumed by the rewrite (-1 when the
// equality was extracted from a struct condition that must be kept).
type keyCandidate struct {
	t       *core.Term
	condIdx int
}

// keyEqualities finds every term t, free of k, that the conditions force
// equal to k. Direct equalities k = t consume their condition; struct
// equalities other = struct(..., F: k, ...) yield other.F via constructor
// injectivity and keep the condition (its remaining fields may carry
// information).
func keyEqualities(q *core.Query, k string) []keyCandidate {
	kv := core.V(k)
	var out []keyCandidate
	for i, c := range q.Conds {
		if c.L.Equal(kv) && !c.R.MentionsVar(k) {
			out = append(out, keyCandidate{c.R, i})
		}
		if c.R.Equal(kv) && !c.L.MentionsVar(k) {
			out = append(out, keyCandidate{c.L, i})
		}
	}
	for _, c := range q.Conds {
		for _, pair := range [][2]*core.Term{{c.L, c.R}, {c.R, c.L}} {
			st, other := pair[0], pair[1]
			if st.Kind != core.KStruct || other.MentionsVar(k) {
				continue
			}
			for _, f := range st.Fields {
				if f.Term.Equal(kv) {
					out = append(out, keyCandidate{core.Prj(other, f.Name), -1})
				}
			}
		}
	}
	return out
}

// dependentsAreDirectLookups checks that at least one later binding ranges
// exactly over dict[k], and every binding range mentioning k is exactly
// dict[k] (so the non-failing rewrite covers all of them).
func dependentsAreDirectLookups(q *core.Query, domIdx int, k string, dict *core.Term) bool {
	direct := core.Lk(dict, core.V(k))
	found := false
	for j, b := range q.Bindings {
		if j == domIdx {
			continue
		}
		if !b.Range.MentionsVar(k) {
			continue
		}
		if !b.Range.Equal(direct) {
			return false
		}
		found = true
	}
	return found
}

func applyLookupSimplification(q *core.Query, domIdx, condIdx int, k string, dict, t *core.Term) *core.Query {
	direct := core.Lk(dict, core.V(k))
	sub := map[string]*core.Term{k: t}
	next := &core.Query{}
	for j, b := range q.Bindings {
		if j == domIdx {
			continue
		}
		if b.Range.Equal(direct) {
			next.Bindings = append(next.Bindings, core.Binding{
				Var:   b.Var,
				Range: core.LkNF(dict.Subst(sub), t),
			})
			continue
		}
		next.Bindings = append(next.Bindings, core.Binding{Var: b.Var, Range: b.Range.Subst(sub)})
	}
	for j, c := range q.Conds {
		if j == condIdx {
			continue
		}
		nc := core.Cond{L: c.L.Subst(sub), R: c.R.Subst(sub)}
		if nc.L.Equal(nc.R) {
			continue
		}
		next.Conds = append(next.Conds, nc)
	}
	next.Out = q.Out.Subst(sub)
	// The replacement key may reference a variable bound later in the
	// original order (e.g. the view row of ΦV); restore scoping.
	if sorted, ok := topoSortBindings(next.Bindings); ok {
		next.Bindings = sorted
	}
	if err := next.Validate(); err != nil {
		return nil
	}
	return next
}

// topoSortBindings orders bindings so every range mentions only earlier
// variables, keeping the given order among independent bindings.
func topoSortBindings(bs []core.Binding) ([]core.Binding, bool) {
	n := len(bs)
	used := make([]bool, n)
	introduced := map[string]bool{}
	out := make([]core.Binding, 0, n)
	for len(out) < n {
		progress := false
		for i, b := range bs {
			if used[i] {
				continue
			}
			ready := true
			for v := range b.Range.Vars() {
				if !introduced[v] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			used[i] = true
			introduced[b.Var] = true
			out = append(out, b)
			progress = true
		}
		if !progress {
			return nil, false
		}
	}
	return out, true
}
