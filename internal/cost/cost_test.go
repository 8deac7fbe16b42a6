// An external test package: it exercises only the exported API, and
// keeping it external lets it import internal/workload (which itself
// imports cost for SyntheticStats) without a cycle.
package cost_test

import (
	"math"
	"strings"
	"testing"

	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/workload"
)

func projDeptStats(t *testing.T) *cost.Stats {
	t.Helper()
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 100, ProjsPerDept: 10, CitiBankShare: 0.01, Seed: 1})
	return cost.FromInstance(in)
}

func TestFromInstanceCardinalities(t *testing.T) {
	s := projDeptStats(t)
	if s.Card["Proj"] != 1000 {
		t.Errorf("|Proj| = %v, want 1000", s.Card["Proj"])
	}
	if s.Card["depts"] != 100 {
		t.Errorf("|depts| = %v, want 100", s.Card["depts"])
	}
	if s.Card["I"] != 1000 {
		t.Errorf("|I| = %v, want 1000", s.Card["I"])
	}
	// DProjs fanout: 10 projects per dept.
	if f := s.FieldFanout["DProjs"]; f < 9.5 || f > 10.5 {
		t.Errorf("DProjs fanout = %v, want ~10", f)
	}
	// Primary index fanout 1.
	if f := s.EntryFanout["I"]; f != 1 {
		t.Errorf("I fanout = %v, want 1", f)
	}
	// CustName distinct counts recorded.
	if s.Distinct["Proj.CustName"] == 0 {
		t.Error("distinct Proj.CustName missing")
	}
}

func TestEstimateScanVsLookup(t *testing.T) {
	s := projDeptStats(t)
	scan := &core.Query{
		Out:      core.Prj(core.V("p"), "PName"),
		Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conds:    []core.Cond{{L: core.Prj(core.V("p"), "CustName"), R: core.C("CitiBank")}},
	}
	idx := &core.Query{
		Out:      core.Prj(core.V("p"), "PName"),
		Bindings: []core.Binding{{Var: "p", Range: core.LkNF(core.Name("SI"), core.C("CitiBank"))}},
	}
	scanCost, _ := s.Estimate(scan)
	idxCost, _ := s.Estimate(idx)
	if idxCost >= scanCost {
		t.Errorf("index lookup (%.1f) must be cheaper than scan (%.1f) at 1%% selectivity", idxCost, scanCost)
	}
}

func TestEstimateCardinality(t *testing.T) {
	s := projDeptStats(t)
	scan := &core.Query{
		Out:      core.Prj(core.V("p"), "PName"),
		Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conds:    []core.Cond{{L: core.Prj(core.V("p"), "CustName"), R: core.C("CitiBank")}},
	}
	_, card := s.Estimate(scan)
	// ~1000 rows / ~#distinct customers; must be far below 1000.
	if card >= 500 {
		t.Errorf("selection cardinality = %v, want << 1000", card)
	}
}

func TestEstimateJoinOrderSensitivity(t *testing.T) {
	s := projDeptStats(t)
	// Filter-first order must cost less than filter-last.
	filterFirst := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "p", Range: core.Name("Proj")},
			{Var: "d", Range: core.Name("depts")},
		},
		Conds: []core.Cond{
			{L: core.Prj(core.V("p"), "CustName"), R: core.C("CitiBank")},
			{L: core.Prj(core.V("p"), "PDept"), R: core.Prj(core.V("d"), "DName")},
		},
	}
	filterLast := filterFirst.Clone()
	filterLast.Bindings = []core.Binding{filterFirst.Bindings[1], filterFirst.Bindings[0]}
	cFirst, _ := s.Estimate(filterFirst)
	cLast, _ := s.Estimate(filterLast)
	if cFirst >= cLast {
		t.Errorf("selective-first order (%.1f) should beat selective-last (%.1f)", cFirst, cLast)
	}
}

func TestReorderPicksSelectiveFirst(t *testing.T) {
	s := projDeptStats(t)
	q := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "d", Range: core.Name("depts")},
			{Var: "p", Range: core.Name("Proj")},
		},
		Conds: []core.Cond{
			{L: core.Prj(core.V("p"), "CustName"), R: core.C("CitiBank")},
			{L: core.Prj(core.V("p"), "PDept"), R: core.Prj(core.V("d"), "DName")},
		},
	}
	r := s.Reorder(q)
	if r.Bindings[0].Var != "p" {
		t.Errorf("reorder should scan Proj (with its filter) first:\n%s", r)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("reordered plan invalid: %v", err)
	}
}

func TestReorderRespectsDependencies(t *testing.T) {
	s := projDeptStats(t)
	q := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "d", Range: core.Name("depts")},
			{Var: "s", Range: core.Prj(core.V("d"), "DProjs")},
		},
	}
	r := s.Reorder(q)
	if err := r.Validate(); err != nil {
		t.Fatalf("dependent binding moved before its variable: %v\n%s", err, r)
	}
	if r.Bindings[0].Var != "d" {
		t.Error("d must stay before s")
	}
}

func TestRankOrdersPlans(t *testing.T) {
	s := projDeptStats(t)
	scan := &core.Query{
		Out:      core.Prj(core.V("p"), "PName"),
		Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conds:    []core.Cond{{L: core.Prj(core.V("p"), "CustName"), R: core.C("CitiBank")}},
	}
	idx := &core.Query{
		Out:      core.Prj(core.V("p"), "PName"),
		Bindings: []core.Binding{{Var: "p", Range: core.LkNF(core.Name("SI"), core.C("CitiBank"))}},
	}
	ranked := s.Rank([]*core.Query{scan, idx})
	if len(ranked) != 2 {
		t.Fatal("rank lost plans")
	}
	if ranked[0].Cost > ranked[1].Cost {
		t.Error("rank must sort ascending")
	}
	if !ranked[0].Query.Bindings[0].Range.NonFailing {
		t.Error("index plan should rank first")
	}
}

func TestHashBuildCharge(t *testing.T) {
	s := projDeptStats(t)
	q := &core.Query{
		Out:      core.Prj(core.V("t"), "PName"),
		Bindings: []core.Binding{{Var: "t", Range: core.LkNF(core.Name("HT"), core.C("x"))}},
	}
	s.Card["HT"] = 500
	s.EntryFanout["HT"] = 2
	without, _ := s.Estimate(q)
	s.HashBuildNames["HT"] = true
	with, _ := s.Estimate(q)
	if with <= without {
		t.Errorf("hash build must be charged: %v vs %v", with, without)
	}
	if with-without != 1000 {
		t.Errorf("build charge = %v, want 1000", with-without)
	}
}

func TestDefaultStats(t *testing.T) {
	s := cost.NewStats()
	q := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("Unknown")}},
	}
	c, card := s.Estimate(q)
	if c <= 0 || card <= 0 {
		t.Error("defaults must produce positive estimates")
	}
}

func TestEstimateDomScan(t *testing.T) {
	s := projDeptStats(t)
	q := &core.Query{
		Out:      core.V("i"),
		Bindings: []core.Binding{{Var: "i", Range: core.Dom(core.Name("I"))}},
	}
	c, card := s.Estimate(q)
	if card != 1000 {
		t.Errorf("dom(I) cardinality = %v, want 1000", card)
	}
	if c < 1000 {
		t.Errorf("dom scan cost = %v, want >= 1000", c)
	}
}

// TestStatsValidate: the defaults and statistics derived from an
// instance validate; a negative count, a NaN, an infinity and a
// selectivity above 1 do not, and the error names the field.
func TestStatsValidate(t *testing.T) {
	for name, s := range map[string]*cost.Stats{"defaults": cost.NewStats(), "from instance": projDeptStats(t)} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for field, mutate := range map[string]func(*cost.Stats){
		`Card["Proj"]`:           func(s *cost.Stats) { s.Card["Proj"] = -1 },
		`FieldFanout["DProjs"]`:  func(s *cost.Stats) { s.FieldFanout["DProjs"] = math.NaN() },
		`EntryFanout["SI"]`:      func(s *cost.Stats) { s.EntryFanout["SI"] = math.Inf(1) },
		`Distinct["Proj.PName"]`: func(s *cost.Stats) { s.Distinct["Proj.PName"] = -3 },
		"DefaultSelectivity = 2": func(s *cost.Stats) { s.DefaultSelectivity = 2 },
		"LookupCost":             func(s *cost.Stats) { s.LookupCost = math.NaN() },
	} {
		s := cost.NewStats()
		mutate(s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: Validate = %v, want an error naming it", field, err)
		}
	}
}
