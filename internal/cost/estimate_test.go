package cost

import (
	"math"
	"testing"

	"cnb/internal/core"
)

// factDimStats describes a fact table, a dimension and a small
// dictionary.
func factDimStats() *Stats {
	s := NewStats()
	s.Card["Fact"] = 6000
	s.Card["D"] = 3000
	s.Card["SI"] = 100
	return s
}

// TestEstimateQuickMatchesGreedyOrder: quick estimation equals the plain
// estimate of the greedily reordered plan and never beats EstimateBest.
func TestEstimateQuickMatchesGreedyOrder(t *testing.T) {
	s := factDimStats()
	s.Distinct["Fact.K"] = 3000
	s.Distinct["D.K"] = 3000
	q := &core.Query{
		Out: core.Prj(core.V("f"), "M"),
		Bindings: []core.Binding{
			{Var: "f", Range: core.Name("Fact")},
			{Var: "d", Range: core.Name("D")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("f"), "K"), R: core.Prj(core.V("d"), "K")}},
	}
	quick := s.EstimateQuick(q)
	best := s.EstimateBest(q)
	if best > quick {
		t.Errorf("EstimateBest %v worse than EstimateQuick %v", best, quick)
	}
	if math.IsNaN(quick) || math.IsInf(quick, 0) {
		t.Errorf("EstimateQuick = %v", quick)
	}
}

// TestFingerprintDeterministicAndSensitive: equal stats produce equal
// fingerprints regardless of map iteration order; any changed number
// changes the fingerprint.
func TestFingerprintDeterministicAndSensitive(t *testing.T) {
	a := factDimStats()
	b := factDimStats()
	a.Distinct["Fact.K"] = 10
	b.Distinct["Fact.K"] = 10
	a.HashBuildNames["H"] = true
	b.HashBuildNames["H"] = true
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical stats fingerprint differently")
	}
	b.Card["Fact"] = 6001
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("changed cardinality did not change the fingerprint")
	}
}
