package chase

import (
	"context"
	"testing"

	"cnb/internal/core"
)

// infDep is a dependency whose chase never terminates on an R binding:
// every element of R has a Next-predecessor in R. Its conclusion
// variable is named so that the fresh variables the chase introduces
// (h_r_0, h_r_1, ...) collide with the names a goal renamed apart from
// the input alone receives.
func infDep() *core.Dependency {
	return &core.Dependency{
		Name:            "inf",
		Premise:         []core.Binding{{Var: "x", Range: core.Name("R")}},
		Conclusion:      []core.Binding{{Var: "h_r", Range: core.Name("R")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("h_r"), "Next"), R: core.V("x")}},
	}
}

func oneR() *core.Query {
	return &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
	}
}

func TestContainedInStopsAtFirstMapping(t *testing.T) {
	full, err := Chase(q(), allDeps(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Steps) == 0 {
		t.Fatal("fixture must need chase steps")
	}
	ix := NewDepIndex(allDeps())

	// Q maps into itself: contained before the first step.
	m := &Metrics{}
	ok, err := ContainedIn(context.Background(), q(), q(), ix, Options{Metrics: m})
	if err != nil || !ok {
		t.Fatalf("Q ⊑ Q = %v, %v; want true", ok, err)
	}
	if got := m.ChaseSteps.Load(); got != 0 {
		t.Errorf("Q ⊑ Q took %d chase steps, want 0", got)
	}

	// The universal plan maps in only at the fixpoint.
	m = &Metrics{}
	ok, err = ContainedIn(context.Background(), q(), full.Query, ix, Options{Metrics: m})
	if err != nil || !ok {
		t.Fatalf("Q ⊑ chase(Q) = %v, %v; want true", ok, err)
	}
	if got := m.ChaseSteps.Load(); got > int64(len(full.Steps)) {
		t.Errorf("Q ⊑ chase(Q) took %d chase steps, more than the full chase's %d", got, len(full.Steps))
	}
}

func TestContainedInFixpointWithoutMapping(t *testing.T) {
	full, err := Chase(q(), allDeps(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A budget condition nothing implies: Q ⋢ goal, found at the fixpoint.
	goal := q()
	goal.Conds = append(goal.Conds, core.Cond{L: core.Prj(core.V("p"), "Budg"), R: core.C(7)})
	m := &Metrics{}
	ok, err := ContainedIn(context.Background(), q(), goal, NewDepIndex(allDeps()), Options{Metrics: m})
	if err != nil || ok {
		t.Fatalf("Q ⊑ Q∧Budg=7 = %v, %v; want false", ok, err)
	}
	if got := m.ChaseSteps.Load(); got != int64(len(full.Steps)) {
		t.Errorf("chase steps = %d, want the full chase's %d", got, len(full.Steps))
	}
}

func TestContainedInInconsistent(t *testing.T) {
	s := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
		Conds: []core.Cond{
			{L: core.Prj(core.V("r"), "A"), R: core.C(1)},
			{L: core.Prj(core.V("r"), "B"), R: core.C(2)},
		},
	}
	egd := &core.Dependency{
		Name:            "AB",
		Premise:         []core.Binding{{Var: "r", Range: core.Name("R")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.Prj(core.V("r"), "B")}},
	}
	// The goal needs an S binding s never has; inconsistency still
	// makes s contained in it.
	goal := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "t", Range: core.Name("S")}},
	}
	for _, naive := range []bool{false, true} {
		ix := engineIndex(naive, []*core.Dependency{egd})
		ok, err := ContainedIn(context.Background(), s, goal, ix, Options{})
		if err != nil || !ok {
			t.Errorf("naive=%v: inconsistent s ⊑ goal = %v, %v; want true", naive, ok, err)
		}
		// The clash appears after the one step the budget allows: it is
		// a proof, so it wins over the budget, with or without a goal.
		opts := Options{MaxSteps: 1}
		ok, err = ContainedIn(context.Background(), s, goal, ix, opts)
		if err != nil || !ok {
			t.Errorf("naive=%v: inconsistent s ⊑ goal at the budget = %v, %v; want true", naive, ok, err)
		}
		res, err := ChaseIndexed(context.Background(), s, ix, opts)
		if err != nil || !res.Inconsistent {
			t.Errorf("naive=%v: chase clashing at the budget = %+v, %v; want inconsistent", naive, res, err)
		}
	}
}

// TestContainedInBudget pins the budget semantics: a chase that never
// terminates still proves containment if the goal maps in before the
// budget runs out, and only a budget exhausted first is an error.
func TestContainedInBudget(t *testing.T) {
	deps := []*core.Dependency{infDep()}
	opts := Options{MaxSteps: 25}
	if _, err := ChaseIndexed(context.Background(), oneR(), NewDepIndex(deps), opts); err == nil {
		t.Fatal("fixture chase must exhaust its budget")
	}
	// One step adds a predecessor of r.
	pred := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "r", Range: core.Name("R")},
			{Var: "y", Range: core.Name("R")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("y"), "Next"), R: core.V("r")}},
	}
	// A self-loop never appears.
	loop := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
		Conds:    []core.Cond{{L: core.Prj(core.V("r"), "Next"), R: core.V("r")}},
	}
	for _, naive := range []bool{false, true} {
		ix := engineIndex(naive, deps)
		m := &Metrics{}
		opts.Metrics = m
		ok, err := ContainedIn(context.Background(), oneR(), pred, ix, opts)
		if err != nil || !ok {
			t.Errorf("naive=%v: R ⊑ pred = %v, %v; want true", naive, ok, err)
		}
		if got := m.ChaseSteps.Load(); got != 1 {
			t.Errorf("naive=%v: R ⊑ pred took %d chase steps, want 1", naive, got)
		}
		_, err = ContainedIn(context.Background(), oneR(), loop, ix, opts)
		if _, budget := err.(*ErrBudget); !budget {
			t.Errorf("naive=%v: R ⊑ loop err = %v, want *ErrBudget", naive, err)
		}
	}
}

// TestContainedInRenamesGoalApart maps a goal whose apart-renamed
// variables collide with the ones the chase introduces (see infDep): a
// two-step predecessor chain maps in after two steps either way.
func TestContainedInRenamesGoalApart(t *testing.T) {
	chain := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "r", Range: core.Name("R")},
			{Var: "y", Range: core.Name("R")},
			{Var: "z", Range: core.Name("R")},
		},
		Conds: []core.Cond{
			{L: core.Prj(core.V("y"), "Next"), R: core.V("r")},
			{L: core.Prj(core.V("z"), "Next"), R: core.V("y")},
		},
	}
	m := &Metrics{}
	ok, err := ContainedIn(context.Background(), oneR(), chain, NewDepIndex([]*core.Dependency{infDep()}), Options{MaxSteps: 10, Metrics: m})
	if err != nil || !ok {
		t.Fatalf("R ⊑ chain = %v, %v; want true", ok, err)
	}
	if got := m.ChaseSteps.Load(); got != 2 {
		t.Errorf("chase steps = %d, want 2", got)
	}
}

// TestHomsOfQueryIntoMatchesFilter pins the streaming search to the
// filter it replaced: enumerate every homomorphism, then keep the first
// limit whose output matches — same homomorphisms, same order.
func TestHomsOfQueryIntoMatchesFilter(t *testing.T) {
	target := &core.Query{
		Out: core.Prj(core.V("a"), "A"),
		Bindings: []core.Binding{
			{Var: "a", Range: core.Name("R")},
			{Var: "b", Range: core.Name("R")},
			{Var: "c", Range: core.Name("R")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("a"), "A"), R: core.Prj(core.V("c"), "A")}},
	}
	src := &core.Query{
		Out: core.Prj(core.V("x"), "A"),
		Bindings: []core.Binding{
			{Var: "x", Range: core.Name("R")},
			{Var: "y", Range: core.Name("R")},
		},
	}
	oldFilter := func(cn *Canon, limit int) []Hom {
		var ok []Hom
		for _, h := range cn.FindHoms(src.Bindings, src.Conds, nil, 0) {
			if cn.CC.Same(h.Apply(src.Out), target.Out) {
				ok = append(ok, h)
				if limit > 0 && len(ok) >= limit {
					break
				}
			}
		}
		return ok
	}
	for _, limit := range []int{0, 1, 2, 5, 6, 7} {
		want := oldFilter(NewCanon(target), limit)
		got := NewCanon(target).HomsOfQueryInto(src, target.Out, limit)
		if len(got) != len(want) {
			t.Fatalf("limit %d: %d homs, want %d", limit, len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Errorf("limit %d: hom %d = %s, want %s", limit, i, got[i].Key(), want[i].Key())
			}
		}
	}
	// x ranges over {a, c} (the output matches), y over all three.
	if n := len(NewCanon(target).HomsOfQueryInto(src, target.Out, 0)); n != 6 {
		t.Errorf("unlimited homs = %d, want 6", n)
	}
	if !NewCanon(target).MapsQueryInto(src, target.Out, Hom{"x": core.V("c")}) {
		t.Error("x ↦ c must extend to a containment mapping")
	}
	if NewCanon(target).MapsQueryInto(src, target.Out, Hom{"x": core.V("b")}) {
		t.Error("x ↦ b must not match the output")
	}
}

// TestImpliesEqualityStopsAtFirstState: the equality goal ends the chase
// at the first state that equates its sides. A key EGD on R makes r = s
// in one step; the non-terminating infDep would exhaust the budget of a
// full chase, so only the early stop can answer. An equality the chase
// never derives answers false through that budget error, on both
// engines.
func TestImpliesEqualityStopsAtFirstState(t *testing.T) {
	v, prj := core.V, core.Prj
	key := &core.Dependency{
		Name:            "key",
		Premise:         []core.Binding{{Var: "x", Range: core.Name("R")}, {Var: "y", Range: core.Name("R")}},
		PremiseConds:    []core.Cond{{L: prj(v("x"), "K"), R: prj(v("y"), "K")}},
		ConclusionConds: []core.Cond{{L: v("x"), R: v("y")}},
	}
	deps := []*core.Dependency{key, infDep()}
	q := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}, {Var: "s", Range: core.Name("R")}},
		Conds:    []core.Cond{{L: prj(v("r"), "K"), R: prj(v("s"), "K")}},
	}
	budget := Options{MaxSteps: 20}
	if _, err := ChaseIndexed(context.Background(), q, NewDepIndex(deps), budget); err == nil {
		t.Fatal("fixture: the full chase must exhaust its budget")
	}
	for _, ix := range []*DepIndex{NewDepIndex(deps), NewNaiveIndex(deps)} {
		m := &Metrics{}
		ok, err := ImpliesEquality(context.Background(), q, v("r"), v("s"), ix, Options{MaxSteps: 20, Metrics: m})
		if err != nil || !ok {
			t.Fatalf("r = s: %v, %v; want true", ok, err)
		}
		if got := m.ChaseSteps.Load(); got != 1 {
			t.Errorf("r = s took %d chase steps, want 1", got)
		}
		ok, err = ImpliesEquality(context.Background(), q, prj(v("r"), "A"), core.C(1), ix, budget)
		if ok {
			t.Errorf("r.A = 1: %v, %v; want false", ok, err)
		}
		if _, budget := err.(*ErrBudget); !budget {
			t.Errorf("r.A = 1: err = %v, want *ErrBudget", err)
		}
	}
}
