package optimizer

import (
	"testing"

	"cnb/internal/cost"
	"cnb/internal/workload"
)

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
