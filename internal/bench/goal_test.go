package bench

import (
	"fmt"
	"testing"

	"cnb/internal/backchase"
	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/workload"
)

// TestGoalDirectedSearchUnchanged checks that testing backchase
// candidates against the user's query (backchase.Options.Goal, as the
// optimizer does) instead of the universal plan leaves the search of
// the E1–E13 workloads exactly as it was: the same states, explored
// subqueries and plans. E11 is not listed: it minimizes an unchased query, which is
// its own goal. The goal-directed run must also do no more chase steps
// than the root-directed one.
func TestGoalDirectedSearchUnchanged(t *testing.T) {
	type scenario struct {
		label string
		q     *core.Query
		deps  []*core.Dependency
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	// E1, E2, E8: the paper's running example.
	scenarios := []scenario{{label: "ProjDept", q: pd.Q, deps: pd.AllDeps()}}
	// E3: tableau minimization, no dependencies.
	for n := 3; n <= 7; n++ {
		scenarios = append(scenarios, scenario{label: fmt.Sprintf("redundant chain n=%d", n), q: redundantChain(n)})
	}
	// E4 and E5/E10: index-only and view + index plans.
	io, err := workload.NewIndexOnly(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	vi, err := workload.NewViewIndex()
	if err != nil {
		t.Fatal(err)
	}
	scenarios = append(scenarios,
		scenario{label: "index-only", q: io.Q, deps: io.Deps},
		scenario{label: "view-index", q: vi.Q, deps: vi.Deps})
	// E6, E7, E9: chains with adjacent-pair views.
	for n := 2; n <= 5; n++ {
		c, err := workload.NewChain(n, n-1)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, scenario{label: fmt.Sprintf("chain n=%d", n), q: c.Q, deps: c.Deps})
	}
	// E13: star/snowflake.
	for _, wl := range e13Workloads() {
		s, err := workload.NewStar(wl.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, scenario{label: wl.Name, q: s.Q, deps: s.Deps})
	}

	for _, sc := range scenarios {
		chased, err := chase.Chase(sc.q, sc.deps, chase.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.label, err)
		}
		run := func(goal *core.Query) (*backchase.Result, int64) {
			m := &chase.Metrics{}
			res, err := backchase.Enumerate(chased.Query, sc.deps, backchase.Options{
				Goal:  goal,
				Chase: chase.Options{Metrics: m},
			})
			if err != nil {
				t.Fatalf("%s: %v", sc.label, err)
			}
			return res, m.ChaseSteps.Load()
		}
		root, rootSteps := run(nil)
		withGoal, goalSteps := run(sc.q)
		if got, want := searchFingerprint(withGoal), searchFingerprint(root); got != want {
			t.Errorf("%s: search with the query as goal differs:\nwith goal:\n%s\nwithout:\n%s", sc.label, got, want)
		}
		if goalSteps > rootSteps {
			t.Errorf("%s: %d chase steps with the query as goal, %d without", sc.label, goalSteps, rootSteps)
		}
	}
}

// searchFingerprint renders everything a backchase Result reports.
func searchFingerprint(res *backchase.Result) string {
	s := fmt.Sprintf("states=%d truncated=%v\n", res.States, res.Truncated)
	for _, p := range res.Plans {
		s += "plan: " + p.String() + "\n"
	}
	for _, e := range res.Explored {
		s += "explored: " + e.String() + "\n"
	}
	return s
}
