package optimizer

import (
	"context"
	"testing"

	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/workload"
)

func TestOptimizeProjDeptEndToEnd(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 10, ProjsPerDept: 5, CitiBankShare: 0.2, Seed: 1})
	stats := cost.FromInstance(in)

	res, err := Optimize(pd.Q, Options{
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
		Stats:         stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best plan")
	}
	if res.Fallback {
		t.Error("physical-only restriction should be satisfiable")
	}
	t.Logf("universal plan: %d bindings; %d minimal plans; %d states; %d candidates",
		len(res.Universal.Bindings), len(res.Minimal), res.States, len(res.Candidates))
	for i, c := range res.Candidates {
		if i < 8 {
			t.Logf("cost %.1f:\n%s", c.Cost, c.Query)
		}
	}

	// The cheapest candidates must execute (via the streaming engine,
	// which pushes filters down) and agree with Q on the data.
	want, err := eval.QueryEager(pd.Q, in)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, c := range res.Candidates {
		if checked >= 25 {
			break
		}
		checked++
		got, err := engine.StreamExecute(context.Background(), c.Query, in, engine.StreamOptions{})
		if err != nil {
			t.Errorf("candidate failed to execute: %v\n%s", err, c.Query)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("candidate differs from Q:\n%s", c.Query)
		}
	}

	// The best plan must be an index plan, not the naive triple loop:
	// with 20%% CitiBank share and 50 projects, the SI or JI plan wins.
	bestNames := res.Best.Query.Names()
	if bestNames["depts"] {
		t.Errorf("best plan still scans the logical extent:\n%s", res.Best.Query)
	}
}

func TestOptimizePhysicalOnlyRestriction(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(pd.Q, Options{
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		for n := range c.Query.Names() {
			if !pd.Physical.NameSet()[n] {
				t.Errorf("candidate mentions non-physical name %s:\n%s", n, c.Query)
			}
		}
	}
}

func TestOptimizeSelectsIndexUnderHighSelectivity(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	// Big instance, tiny CitiBank share: the secondary-index plan (P3,
	// simplified to a non-failing lookup) must beat the Proj scan (P2).
	in := pd.Generate(workload.GenOptions{NumDepts: 100, ProjsPerDept: 10, CitiBankShare: 0.01, Seed: 2})
	stats := cost.FromInstance(in)
	res, err := Optimize(pd.Q, Options{
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
		Stats:         stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best.Query
	if !best.Names()["SI"] {
		t.Errorf("best plan should use the secondary index at 1%% selectivity:\n%s\ncost %.1f", best, res.Best.Cost)
		for _, c := range res.Candidates {
			t.Logf("cost %8.1f: %v", c.Cost, c.Query.SortedNames())
		}
	}
	// And it must be the simplified non-failing-lookup form.
	found := false
	for _, b := range best.Bindings {
		if b.Range.Kind == core.KLookup && b.Range.NonFailing {
			found = true
		}
	}
	if !found {
		t.Errorf("best plan should use the non-failing lookup SI{...}:\n%s", best)
	}
}

func TestOptimizeInconsistentQuery(t *testing.T) {
	// A query whose conditions clash under an EGD: the chase flags it.
	q := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
		Conds: []core.Cond{
			{L: core.Prj(core.V("r"), "A"), R: core.C(1)},
			{L: core.Prj(core.V("r"), "B"), R: core.C(2)},
		},
	}
	egd := &core.Dependency{
		Name:            "AeqB",
		Premise:         []core.Binding{{Var: "r", Range: core.Name("R")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.Prj(core.V("r"), "B")}},
	}
	res, err := Optimize(q, Options{Deps: []*core.Dependency{egd}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inconsistent {
		t.Error("optimizer must flag the query as empty under constraints")
	}
}

func TestOptimizeInvalidQuery(t *testing.T) {
	q := &core.Query{Out: core.V("zz")}
	if _, err := Optimize(q, Options{}); err == nil {
		t.Error("invalid query must be rejected")
	}
}

func TestOptimizeNoDeps(t *testing.T) {
	// Pure minimization: no constraints at all.
	q := &core.Query{
		Out: core.Prj(core.V("p"), "A"),
		Bindings: []core.Binding{
			{Var: "p", Range: core.Name("R")},
			{Var: "q", Range: core.Name("R")},
		},
		Conds: []core.Cond{{L: core.V("p"), R: core.V("q")}},
	}
	res, err := Optimize(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best.Query.Bindings) != 1 {
		t.Errorf("minimization failed:\n%s", res.Best.Query)
	}
}
