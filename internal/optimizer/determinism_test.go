package optimizer

import (
	"context"
	"errors"
	"testing"

	"cnb/internal/workload"
)

// TestOptimizeDeterministic asserts that repeated optimizations of one
// query give the same outcome: candidates, minimal plans and the chosen
// best plan.
func TestOptimizeDeterministic(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	var refBest string
	var refMinimal, refCandidates int
	for run := 0; run < 2; run++ {
		res, err := Optimize(pd.Q, Options{
			Deps:          pd.AllDeps(),
			PhysicalNames: pd.Physical.NameSet(),
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		best := res.Best.Query.String()
		if refBest == "" {
			refBest, refMinimal, refCandidates = best, len(res.Minimal), len(res.Candidates)
			continue
		}
		if best != refBest {
			t.Errorf("run %d: best plan differs\ngot:\n%s\nwant:\n%s", run, best, refBest)
		}
		if len(res.Minimal) != refMinimal || len(res.Candidates) != refCandidates {
			t.Errorf("run %d: %d minimal / %d candidates, want %d / %d",
				run, len(res.Minimal), len(res.Candidates), refMinimal, refCandidates)
		}
	}
}

// TestOptimizeContextCancelled pins cancellation propagation through both
// optimizer phases.
func TestOptimizeContextCancelled(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = OptimizeContext(ctx, pd.Q, Options{Deps: pd.AllDeps()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
