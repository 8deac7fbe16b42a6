package cost

import (
	"testing"

	"cnb/internal/core"
)

// unitSelStats returns statistics resembling a star instance with a
// unit-bucket dimension-key index DK0 and a multi-entry secondary index
// SD0 (the PR 3 calibration scenario).
func unitSelStats() *Stats {
	s := NewStats()
	s.Card["D0"] = 100
	s.Card["DK0"] = 100
	s.Card["SD0"] = 10
	s.EntryFanout["DK0"] = 1
	s.EntryFanout["SD0"] = 10
	return s
}

// keyIndexSelfJoin is the misranked shape from the PR 3 calibration
// finding: d0 scans the dimension, t iterates the unit bucket of the key
// index at d0's own key, and the chase-derived guard d0 = t filters
// nothing.
func keyIndexSelfJoin() *core.Query {
	v, n, prj := core.V, core.Name, core.Prj
	return &core.Query{
		Out: prj(v("d0"), "A"),
		Bindings: []core.Binding{
			{Var: "d0", Range: n("D0")},
			{Var: "t", Range: core.LkNF(n("DK0"), prj(v("d0"), "K"))},
		},
		Conds: []core.Cond{{L: v("d0"), R: v("t")}},
	}
}

func TestUnitRowEqualityKeyIndex(t *testing.T) {
	s := unitSelStats()
	q := keyIndexSelfJoin()
	_, card := s.Estimate(q)
	// 100 dimension rows x unit bucket x selectivity 1: the guard must
	// not shrink the multiplicity (DefaultSelectivity would report 10).
	if card != 100 {
		t.Errorf("output cardinality = %g, want 100 (selectivity-1 guard)", card)
	}
}

func TestUnitRowEqualitySymmetric(t *testing.T) {
	s := unitSelStats()
	q := keyIndexSelfJoin()
	// The congruence argument is orientation-independent.
	q.Conds[0].L, q.Conds[0].R = q.Conds[0].R, q.Conds[0].L
	if _, card := s.Estimate(q); card != 100 {
		t.Errorf("flipped orientation: output cardinality = %g, want 100", card)
	}
}

// TestUnitRowEqualityThroughClosure covers the unsimplified plan shape:
// the lookup key is a separate dom-bound variable k with k = d0.K among
// the conditions, so only the congruence closure connects the bucket to
// d0.
func TestUnitRowEqualityThroughClosure(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	q := &core.Query{
		Out: prj(v("d0"), "A"),
		Bindings: []core.Binding{
			{Var: "d0", Range: n("D0")},
			{Var: "k", Range: core.Dom(n("DK0"))},
			{Var: "t", Range: core.Lk(n("DK0"), v("k"))},
		},
		Conds: []core.Cond{
			{L: v("k"), R: prj(v("d0"), "K")},
			{L: v("d0"), R: v("t")},
		},
	}
	s := unitSelStats()
	sels := s.condSelectivities(q)
	if sels[1] != 1 {
		t.Errorf("selectivity(d0 = t) = %g, want 1 via the congruence closure", sels[1])
	}
	if sels[0] == 1 {
		t.Errorf("selectivity(k = d0.K) must keep the heuristic estimate, got 1")
	}
}

// TestUnitRowEqualityRequiresUnitFanout pins the guard: an index with
// multi-entry buckets (SD0) proves nothing about a row equality, and a
// constant-keyed bucket is unrelated to the other side.
func TestUnitRowEqualityRequiresUnitFanout(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	s := unitSelStats()

	multi := &core.Query{
		Out: prj(v("d0"), "A"),
		Bindings: []core.Binding{
			{Var: "d0", Range: n("D0")},
			{Var: "t", Range: core.LkNF(n("SD0"), prj(v("d0"), "A"))},
		},
		Conds: []core.Cond{{L: v("d0"), R: v("t")}},
	}
	if sels := s.condSelectivities(multi); sels[0] != s.DefaultSelectivity {
		t.Errorf("multi-entry bucket: selectivity = %g, want DefaultSelectivity %g",
			sels[0], s.DefaultSelectivity)
	}

	constKey := &core.Query{
		Out: prj(v("d0"), "A"),
		Bindings: []core.Binding{
			{Var: "d0", Range: n("D0")},
			{Var: "t", Range: core.LkNF(n("DK0"), core.C(int64(3)))},
		},
		Conds: []core.Cond{{L: v("d0"), R: v("t")}},
	}
	if sels := s.condSelectivities(constKey); sels[0] != s.DefaultSelectivity {
		t.Errorf("constant-keyed bucket: selectivity = %g, want DefaultSelectivity %g",
			sels[0], s.DefaultSelectivity)
	}
}

// TestUnitRowEqualityNotSelfProving pins the review finding: the
// equality being priced must not participate in its own congruence
// proof. Here x = y is a genuinely filtering join of the independent
// scan x against the bucket entry y, but merging x = y into the closure
// puts x into the class of the bucket key z (via the separate guard
// z = y), so the keyed-by-x test would accept a bucket actually keyed by
// z and price the filter at selectivity 1.
func TestUnitRowEqualityNotSelfProving(t *testing.T) {
	v, n := core.V, core.Name
	q := &core.Query{
		Out: v("x"),
		Bindings: []core.Binding{
			{Var: "z", Range: n("S")},
			{Var: "x", Range: n("R")},
			{Var: "y", Range: core.LkNF(n("M"), v("z"))},
		},
		Conds: []core.Cond{
			{L: v("x"), R: v("y")},
			{L: v("z"), R: v("y")},
		},
	}
	s := unitSelStats()
	sels := s.condSelectivities(q)
	if sels[0] != s.DefaultSelectivity {
		t.Errorf("selectivity(x = y) = %g, want DefaultSelectivity %g: the priced equality proved itself",
			sels[0], s.DefaultSelectivity)
	}
	// The guard z = y stays a unit-bucket membership (key z is directly
	// over z, no closure needed).
	if sels[1] != 1 {
		t.Errorf("selectivity(z = y) = %g, want 1", sels[1])
	}

	// A flipped copy of the priced equality must not smuggle it back into
	// its own proof: the exclusion is by syntactic condition, in either
	// orientation, not by index.
	q.Conds = []core.Cond{
		{L: v("x"), R: v("y")},
		{L: v("y"), R: v("x")},
		{L: v("z"), R: v("y")},
	}
	sels = s.condSelectivities(q)
	for _, i := range []int{0, 1} {
		if sels[i] != s.DefaultSelectivity {
			t.Errorf("duplicated x = y: selectivity[%d] = %g, want DefaultSelectivity %g",
				i, sels[i], s.DefaultSelectivity)
		}
	}
}

// TestUnitRowEqualityRanking is the misranking regression itself: with
// the guard priced at selectivity 1, the estimator must rank the plan
// that adds a redundant unit-bucket probe above (costlier than) the plan
// without it, instead of letting DefaultSelectivity make the extra probe
// look ten times cheaper downstream.
func TestUnitRowEqualityRanking(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	s := unitSelStats()
	bare := &core.Query{
		Out:      prj(v("d0"), "A"),
		Bindings: []core.Binding{{Var: "d0", Range: n("D0")}},
	}
	withProbe := keyIndexSelfJoin()
	cBare, cardBare := s.Estimate(bare)
	cProbe, cardProbe := s.Estimate(withProbe)
	if cardBare != cardProbe {
		t.Errorf("equivalent plans disagree on cardinality: %g vs %g", cardBare, cardProbe)
	}
	if cProbe <= cBare {
		t.Errorf("redundant probe estimated cheaper: with=%g without=%g", cProbe, cBare)
	}
}
