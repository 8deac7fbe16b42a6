package backchase

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/workload"
)

// TestGoalDirectedContainmentMatchesFixpoint is the differential oracle
// for the goal-directed check: on every candidate subquery S of the
// universal plan U of ProjDept, star/snowflake and chain workloads, the
// goal-directed tests S ⊑ Q and S ⊑ U (chase.ContainedInCompiled) must answer
// exactly like the full-fixpoint test S ⊑ U (containedIndexed), which
// chases S to its fixpoint and only then maps U in.
func TestGoalDirectedContainmentMatchesFixpoint(t *testing.T) {
	type scenario struct {
		label string
		q     *core.Query
		deps  []*core.Dependency
	}
	scenarios := []scenario{{"ProjDept", projDeptQuery(), projDeptDeps()}}
	for _, n := range []int{3, 4, 5} {
		c, err := workload.NewChain(n, n-1)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, scenario{fmt.Sprintf("chain n=%d", n), c.Q, c.Deps})
	}
	base := workload.StarConfig{
		Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true,
	}
	twoViews, snow := base, base
	twoViews.Views = 2
	snow.Snowflake = true
	configs := []workload.StarConfig{base, twoViews, snow}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 4; i++ {
		cfg, _ := workload.RandomStar(r)
		configs = append(configs, cfg)
	}
	for i, cfg := range configs {
		s, err := workload.NewStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, scenario{fmt.Sprintf("star %d (%+v)", i, cfg), s.Q, s.Deps})
	}

	ctx := context.Background()
	for _, sc := range scenarios {
		ix := chase.NewDepIndex(sc.deps)
		chased, err := chase.ChaseIndexed(ctx, sc.q, ix, chase.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.label, err)
		}
		u := chased.Query
		n := len(u.Bindings)
		if n > 12 {
			t.Fatalf("%s: universal plan has %d bindings; the exhaustive sweep is sized for <= 12", sc.label, n)
		}
		checked, contained := 0, 0
		for mask := 1; mask < 1<<n-1; mask++ {
			removed := map[string]bool{}
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					removed[u.Bindings[i].Var] = true
				}
			}
			sub, ok := Subquery(u, removed)
			if !ok {
				continue
			}
			want, errWant := containedIndexed(ctx, sub, u, ix, chase.Options{})
			for _, goal := range []struct {
				name string
				q    *core.Query
			}{{"Q", sc.q}, {"U", u}} {
				got, err := chase.ContainedInCompiled(ctx, sub, chase.CompileQuery(goal.q), ix, chase.Options{})
				if (err == nil) != (errWant == nil) || got != want {
					t.Fatalf("%s: S ⊑ %s goal-directed = %v/%v, full fixpoint S ⊑ U = %v/%v\nS:\n%s",
						sc.label, goal.name, got, err, want, errWant, sub)
				}
			}
			checked++
			if want {
				contained++
			}
		}
		if checked == 0 || contained == 0 {
			t.Errorf("%s: %d candidates, %d contained; the sweep must exercise both answers", sc.label, checked, contained)
		}
	}
}

// TestGoalAcceptsRemovalBeforeBudget pins the budget semantics of the
// backchase's equivalence check. The dependency set is the classic
// order-dependent one: d1 (every R tuple's Y starts another tuple)
// fires forever on a lone tuple, while d2 (every R tuple's Y starts a
// Y-loop) would close the chain but is scanned second. The universal plan
// U = {r, u} with u the loop already satisfies both, so its chase
// terminates; the candidate S = {r} (u removed) is equivalent to U under
// d2, but S's chase never terminates. With the user's query Q = {r} as
// the goal, Q maps into S before the first step and the removal is
// accepted; directed at U, which never maps into the chase of S, the
// budget runs out first and the removal is rejected as unverifiable.
func TestGoalAcceptsRemovalBeforeBudget(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	deps := []*core.Dependency{
		{
			Name:            "d1",
			Premise:         []core.Binding{{Var: "r", Range: n("R")}},
			Conclusion:      []core.Binding{{Var: "s", Range: n("R")}},
			ConclusionConds: []core.Cond{{L: prj(v("s"), "X"), R: prj(v("r"), "Y")}},
		},
		{
			Name:       "d2",
			Premise:    []core.Binding{{Var: "r", Range: n("R")}},
			Conclusion: []core.Binding{{Var: "s", Range: n("R")}},
			ConclusionConds: []core.Cond{
				{L: prj(v("s"), "X"), R: prj(v("r"), "Y")},
				{L: prj(v("s"), "Y"), R: prj(v("r"), "Y")},
			},
		},
	}
	q := &core.Query{
		Out:      prj(v("r"), "X"),
		Bindings: []core.Binding{{Var: "r", Range: n("R")}},
	}
	u := &core.Query{
		Out: prj(v("r"), "X"),
		Bindings: []core.Binding{
			{Var: "r", Range: n("R")},
			{Var: "u", Range: n("R")},
		},
		Conds: []core.Cond{
			{L: prj(v("u"), "X"), R: prj(v("r"), "Y")},
			{L: prj(v("u"), "Y"), R: prj(v("r"), "Y")},
		},
	}
	copts := chase.Options{MaxSteps: 32}
	ix := chase.NewDepIndex(deps)
	var budget *chase.ErrBudget
	if _, err := chase.ChaseIndexed(context.Background(), q, ix, copts); !errors.As(err, &budget) {
		t.Fatalf("chase of S = {r}: err = %v, want *chase.ErrBudget", err)
	}
	if res, err := chase.ChaseIndexed(context.Background(), u, ix, copts); err != nil || len(res.Steps) != 0 {
		t.Fatalf("chase of U must be a 0-step fixpoint, got %v", err)
	}

	withGoal, err := Enumerate(u, deps, Options{Goal: q, Chase: copts})
	if err != nil {
		t.Fatal(err)
	}
	if withGoal.States != 2 || len(withGoal.Plans) != 1 || len(withGoal.Plans[0].Bindings) != 1 {
		t.Errorf("goal Q: %d states, plans %v; want 2 states and the single plan {r}",
			withGoal.States, withGoal.Plans)
	}
	rootGoal, err := Enumerate(u, deps, Options{Chase: copts})
	if err != nil {
		t.Fatal(err)
	}
	if rootGoal.States != 1 || len(rootGoal.Plans) != 1 || len(rootGoal.Plans[0].Bindings) != 2 {
		t.Errorf("goal U: %d states, plans %v; want U itself, the removal rejected at the budget",
			rootGoal.States, rootGoal.Plans)
	}
}
