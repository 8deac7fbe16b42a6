package optimizer

import (
	"testing"

	"cnb/internal/chase"
	"cnb/internal/workload"
)

// TestProjDeptSearchCounters pins one cold Optimize of the paper's
// ProjDept example: the search itself (228 states, 6
// minimal plans, best cost 3.0) and the chase work it costs. Each
// backchase candidate is tested with a goal-directed chase against the
// user's query, which stops as soon as the query maps in; the ceilings
// are the counts a full-fixpoint re-chase of every candidate against the
// universal plan costs (1 224 chase steps, 68 190 hom tests), so that
// check cannot come back unnoticed.
func TestProjDeptSearchCounters(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	m := &chase.Metrics{}
	res, err := Optimize(pd.Q, Options{
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
		Chase:         chase.Options{Metrics: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	steps, homs := m.ChaseSteps.Load(), m.HomTests.Load()
	t.Logf("states %d, minimal plans %d, best cost %.1f; chase runs %d, steps %d, hom tests %d, dep searches %d",
		res.States, len(res.Minimal), res.Best.Cost, m.Runs.Load(), steps, homs, m.DepSearches.Load())
	if res.States != 228 || len(res.Minimal) != 6 || res.Best.Cost != 3.0 {
		t.Errorf("search = %d states, %d minimal plans, best cost %v; want 228, 6, 3.0",
			res.States, len(res.Minimal), res.Best.Cost)
	}
	if steps >= 1224 {
		t.Errorf("chase steps = %d, want < 1224 (full-fixpoint re-chase)", steps)
	}
	if homs >= 68190 {
		t.Errorf("hom tests = %d, want < 68190 (full-fixpoint re-chase)", homs)
	}
}
