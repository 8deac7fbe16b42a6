package backchase

import (
	"fmt"
	"math/rand"
	"testing"

	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/workload"
)

// TestIncrementalBackchaseDifferential gates the tentpole at the layer
// that consumes it: for randomized workloads, the full backchase lattice
// exploration must be identical whether the per-state equivalence chases
// run naive or delta-driven — and the incremental engine must never do
// more chase steps than the naive one (the step sequences are equal per
// chase, so the totals must agree).
// Both hold with and without the user's query as the goal.
func TestIncrementalBackchaseDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	type scenario struct {
		label string
		q     *core.Query
		deps  []*core.Dependency
	}
	var scenarios []scenario

	for _, n := range []int{3, 4, 5} {
		c, err := workload.NewChain(n, n-1)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, scenario{fmt.Sprintf("chain n=%d", n), c.Q, c.Deps})
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	scenarios = append(scenarios, scenario{"ProjDept", pd.Q, pd.AllDeps()})
	for i := 0; i < 6; i++ {
		cfg, _ := workload.RandomStar(r)
		s, err := workload.NewStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, scenario{fmt.Sprintf("star %d", i), s.Q, s.Deps})
	}

	for _, sc := range scenarios {
		chased, err := chase.Chase(sc.q, sc.deps, chase.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.label, err)
		}
		var want string
		var wantSteps int64
		naiveIndex := chase.NewNaiveIndex(sc.deps)
		naiveMetrics := &chase.Metrics{}
		ref, err := Enumerate(chased.Query, sc.deps, Options{
			Index: naiveIndex,
			Chase: chase.Options{Metrics: naiveMetrics},
		})
		if err != nil {
			t.Fatalf("%s naive: %v", sc.label, err)
		}
		want = resultFingerprint(ref)
		wantSteps = naiveMetrics.ChaseSteps.Load()

		// With the user's query as the goal, the candidates' chases stop
		// earlier, but both engines stop at the same step: the totals
		// still agree, and the search is unchanged.
		goalNaive := &chase.Metrics{}
		refGoal, err := Enumerate(chased.Query, sc.deps, Options{
			Index: naiveIndex,
			Goal:  sc.q,
			Chase: chase.Options{Metrics: goalNaive},
		})
		if err != nil {
			t.Fatalf("%s naive with goal: %v", sc.label, err)
		}
		if got := resultFingerprint(refGoal); got != want {
			t.Errorf("%s: naive result with goal differs:\nwithout:\n%s\nwith:\n%s", sc.label, want, got)
		}
		wantGoalSteps := goalNaive.ChaseSteps.Load()
		if wantGoalSteps > wantSteps {
			t.Errorf("%s: goal-directed chase steps %d exceed the root-directed %d", sc.label, wantGoalSteps, wantSteps)
		}

		gm := &chase.Metrics{}
		res, err := Enumerate(chased.Query, sc.deps, Options{
			Goal:  sc.q,
			Chase: chase.Options{Metrics: gm},
		})
		if err != nil {
			t.Fatalf("%s incremental with goal: %v", sc.label, err)
		}
		if got := resultFingerprint(res); got != want {
			t.Errorf("%s: incremental result with goal differs from naive reference", sc.label)
		}
		if got := gm.ChaseSteps.Load(); got != wantGoalSteps {
			t.Errorf("%s: chase steps with goal = %d, naive reference = %d", sc.label, got, wantGoalSteps)
		}

		m := &chase.Metrics{}
		res, err = Enumerate(chased.Query, sc.deps, Options{
			Chase: chase.Options{Metrics: m},
		})
		if err != nil {
			t.Fatalf("%s incremental: %v", sc.label, err)
		}
		if got := resultFingerprint(res); got != want {
			t.Errorf("%s: incremental result differs from naive reference:\nnaive:\n%s\nincremental:\n%s",
				sc.label, want, got)
		}
		// The per-chase step sequences are byte-identical across
		// engines, so the totals must match.
		if got := m.ChaseSteps.Load(); got != wantSteps {
			t.Errorf("%s: chase steps = %d, naive reference = %d", sc.label, got, wantSteps)
		}
	}
}

// TestIncrementalReducesHomTests pins the direction of the tentpole's
// win on a workload of the star family: the delta-driven engine must
// perform strictly fewer homomorphism tests than the naive engine for
// the same backchase (the E15 experiment quantifies the ratio).
func TestIncrementalReducesHomTests(t *testing.T) {
	s, err := workload.NewStar(workload.StarConfig{
		Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	chased, err := chase.Chase(s.Q, s.Deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, inc := &chase.Metrics{}, &chase.Metrics{}
	if _, err := Enumerate(chased.Query, s.Deps, Options{Index: chase.NewNaiveIndex(s.Deps), Chase: chase.Options{Metrics: naive}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Enumerate(chased.Query, s.Deps, Options{Chase: chase.Options{Metrics: inc}}); err != nil {
		t.Fatal(err)
	}
	n, i := naive.HomTests.Load(), inc.HomTests.Load()
	if i >= n {
		t.Errorf("incremental hom tests %d not below naive %d", i, n)
	}
	if ratio := float64(n) / float64(i); ratio < 2 {
		t.Errorf("hom-test reduction %.2fx below the 2x the tentpole promises", ratio)
	}
}
