package optimizer

import (
	"testing"

	"cnb/internal/cost"
	"cnb/internal/workload"
)

// TestCostBoundedOptimizeMatchesExhaustive: with CostBounded set the
// backchase explores (at most) a subset of the lattice, but the chosen
// plan's cost must match the exhaustive optimizer's — a pruned state is
// always costlier than some state the pruned run kept, under both the
// engine's quick metric and the optimizer's full ranking metric.
func TestCostBoundedOptimizeMatchesExhaustive(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 100, ProjsPerDept: 10, CitiBankShare: 0.01, Seed: 2})
	stats := cost.FromInstance(in)

	exhaustive, err := Optimize(pd.Q, Options{Deps: pd.AllDeps(), Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := Optimize(pd.Q, Options{Deps: pd.AllDeps(), Stats: stats, CostBounded: true})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.States > exhaustive.States {
		t.Errorf("cost-bounded explored %d states, exhaustive %d", bounded.States, exhaustive.States)
	}
	if exhaustive.Pruned != 0 {
		t.Errorf("exhaustive run reports %d pruned states", exhaustive.Pruned)
	}
	if bounded.Best == nil || exhaustive.Best == nil {
		t.Fatal("missing best plan")
	}
	if bounded.Best.Cost != exhaustive.Best.Cost {
		t.Errorf("cost-bounded best %.3f != exhaustive best %.3f",
			bounded.Best.Cost, exhaustive.Best.Cost)
	}
}

// TestCostBoundedNoopWithoutStats: CostBounded without Stats keeps the
// fully deterministic exhaustive search.
func TestCostBoundedNoopWithoutStats(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Optimize(pd.Q, Options{Deps: pd.AllDeps()})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := Optimize(pd.Q, Options{Deps: pd.AllDeps(), CostBounded: true})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.States != plain.States || bounded.Pruned != 0 {
		t.Errorf("CostBounded without Stats changed the search: states %d vs %d, pruned %d",
			bounded.States, plain.States, bounded.Pruned)
	}
}

// TestRerankMatchesFreshRanking: ranking a finished Result's executable
// pool again under other statistics gives exactly the candidates — same
// plans, costs and order — that a fresh exhaustive optimization under
// those statistics ranks.
func TestRerankMatchesFreshRanking(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	statsA := cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 30, ProjsPerDept: 8, CitiBankShare: 0.1, Seed: 1}))
	statsB := cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 60, ProjsPerDept: 5, CitiBankShare: 0.2, Seed: 2}))
	underA, err := Optimize(pd.Q, Options{Deps: pd.AllDeps(), Stats: statsA})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Optimize(pd.Q, Options{Deps: pd.AllDeps(), Stats: statsB})
	if err != nil {
		t.Fatal(err)
	}
	before := underA.Best
	got := underA.Rerank(statsB)
	if underA.Best != before {
		t.Fatal("Rerank modified its receiver")
	}
	if len(got.Candidates) != len(fresh.Candidates) {
		t.Fatalf("reranked %d candidates, fresh run ranks %d", len(got.Candidates), len(fresh.Candidates))
	}
	for i := range fresh.Candidates {
		g, w := got.Candidates[i], fresh.Candidates[i]
		if g.Query.String() != w.Query.String() || g.Cost != w.Cost {
			t.Fatalf("candidate %d: reranked %s @ %g, fresh %s @ %g", i, g.Query, g.Cost, w.Query, w.Cost)
		}
	}
	if got.Best != &got.Candidates[0] {
		t.Error("Best must point at the reranked cheapest candidate")
	}
}
