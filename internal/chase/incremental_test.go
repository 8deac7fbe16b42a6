package chase

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cnb/internal/core"
	"cnb/internal/workload"
)

// assertSameChase runs the naive and the incremental engine on the same
// input and requires byte-identical outcomes: same error class, same
// inconsistency flag, same chased query rendering, and the same step
// sequence (dependency names and homomorphism keys) — the strongest form
// of the differential oracle, which also pins the step counts the metrics
// report.
func assertSameChase(t *testing.T, label string, q *core.Query, deps []*core.Dependency, opts Options) {
	t.Helper()
	naiveOpts := opts
	naiveOpts.Metrics = &Metrics{}
	incOpts := opts
	incOpts.Metrics = &Metrics{}
	rn, errN := ChaseIndexed(context.Background(), q, NewNaiveIndex(deps), naiveOpts)
	ri, errI := Chase(q, deps, incOpts)
	if (errN == nil) != (errI == nil) {
		t.Fatalf("%s: error mismatch: naive=%v incremental=%v", label, errN, errI)
	}
	if errN != nil {
		bn, okN := errN.(*ErrBudget)
		bi, okI := errI.(*ErrBudget)
		if okN != okI {
			t.Fatalf("%s: error type mismatch: naive=%T incremental=%T", label, errN, errI)
		}
		if okN && (bn.Steps != bi.Steps || bn.Dep != bi.Dep) {
			t.Fatalf("%s: budget mismatch: naive=%+v incremental=%+v", label, bn, bi)
		}
		return
	}
	if rn.Inconsistent != ri.Inconsistent {
		t.Fatalf("%s: inconsistency mismatch: naive=%v incremental=%v", label, rn.Inconsistent, ri.Inconsistent)
	}
	if got, want := ri.Query.String(), rn.Query.String(); got != want {
		t.Fatalf("%s: chased query differs:\nnaive:       %s\nincremental: %s", label, want, got)
	}
	if len(rn.Steps) != len(ri.Steps) {
		t.Fatalf("%s: step count differs: naive=%d incremental=%d", label, len(rn.Steps), len(ri.Steps))
	}
	for i := range rn.Steps {
		if rn.Steps[i].Dep != ri.Steps[i].Dep || rn.Steps[i].Hom.Key() != ri.Steps[i].Hom.Key() {
			t.Fatalf("%s: step %d differs: naive=%s/%s incremental=%s/%s", label, i,
				rn.Steps[i].Dep, rn.Steps[i].Hom.Key(), ri.Steps[i].Dep, ri.Steps[i].Hom.Key())
		}
	}
	if ns, is := naiveOpts.Metrics.ChaseSteps.Load(), incOpts.Metrics.ChaseSteps.Load(); ns != is {
		t.Fatalf("%s: metrics step count differs: naive=%d incremental=%d", label, ns, is)
	}
}

// engineIndex builds the reference index when naive is set and the
// product index otherwise, for tests that run one check on both engines.
func engineIndex(naive bool, deps []*core.Dependency) *DepIndex {
	if naive {
		return NewNaiveIndex(deps)
	}
	return NewDepIndex(deps)
}

// assertSameContainment runs the goal-directed containment test s ⊑ goal
// on the naive and the incremental engine: both must give the same
// answer (or the same error class) after the same number of chase steps,
// since they apply the same steps and test the goal at the same points.
func assertSameContainment(t *testing.T, label string, s, goal *core.Query, deps []*core.Dependency, opts Options) {
	t.Helper()
	naiveOpts := opts
	naiveOpts.Metrics = &Metrics{}
	incOpts := opts
	incOpts.Metrics = &Metrics{}
	okN, errN := ContainedInCompiled(context.Background(), s, CompileQuery(goal), NewNaiveIndex(deps), naiveOpts)
	okI, errI := ContainedInCompiled(context.Background(), s, CompileQuery(goal), NewDepIndex(deps), incOpts)
	if (errN == nil) != (errI == nil) || okN != okI {
		t.Fatalf("%s: containment differs: naive=%v/%v incremental=%v/%v", label, okN, errN, okI, errI)
	}
	if ns, is := naiveOpts.Metrics.ChaseSteps.Load(), incOpts.Metrics.ChaseSteps.Load(); ns != is {
		t.Fatalf("%s: containment chase steps differ: naive=%d incremental=%d", label, ns, is)
	}
}

// assertSameGoalDirected runs assertSameContainment on the containment
// tests a chase input q offers: q against its own chase (which maps in
// only once the chase has produced enough of it), and q and a mutated q
// against each other (mutations drop or add conditions, so either
// answer occurs).
func assertSameGoalDirected(t *testing.T, r *rand.Rand, label string, q *core.Query, deps []*core.Dependency, opts Options) {
	t.Helper()
	if full, err := Chase(q, deps, opts); err == nil && !full.Inconsistent {
		assertSameContainment(t, label+" ⊑ chase", q, full.Query, deps, opts)
	}
	m := mutateQuery(r, q)
	assertSameContainment(t, label+" mutated ⊑ original", m, q, deps, opts)
	assertSameContainment(t, label+" original ⊑ mutated", q, m, deps, opts)
}

// mutateQuery derives a chase input from a workload query: occasionally
// drop a condition (the chase re-derives structure differently) or equate
// two row variables (exercises EGD-heavy merge cascades in the delta
// bookkeeping).
func mutateQuery(r *rand.Rand, q *core.Query) *core.Query {
	m := q.Clone()
	if len(m.Conds) > 0 && r.Intn(3) == 0 {
		i := r.Intn(len(m.Conds))
		m.Conds = append(m.Conds[:i:i], m.Conds[i+1:]...)
	}
	if len(m.Bindings) >= 2 && r.Intn(3) == 0 {
		a := m.Bindings[r.Intn(len(m.Bindings))].Var
		b := m.Bindings[r.Intn(len(m.Bindings))].Var
		if a != b {
			m.Conds = append(m.Conds, core.Cond{L: core.V(a), R: core.V(b)})
		}
	}
	if m.Validate() != nil {
		return q.Clone()
	}
	return m
}

// TestIncrementalChaseDifferentialRandomized is the naive-vs-incremental
// gate over the chain/star/snowflake dependency families: >= 100
// randomized cases, each requiring byte-identical chase results and step
// sequences. Covers terminating chases, EGD merge cascades (mutated
// queries), and budget-tripping runs, each also as goal-directed
// containment tests (same answers after the same number of steps).
func TestIncrementalChaseDifferentialRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// A separate source for the containment cases keeps the chase cases
	// the same as without them.
	rg := rand.New(rand.NewSource(8))
	cases := 0

	// Chain family: n-way joins with adjacent-pair views.
	for n := 2; n <= 8; n++ {
		for views := 1; views < n && views <= 4; views++ {
			c, err := workload.NewChain(n, views)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("chain n=%d v=%d", n, views)
			opts := Options{MaxSteps: 2048, MaxBindings: 2048}
			assertSameChase(t, label, c.Q, c.Deps, opts)
			assertSameChase(t, label+" mutated", mutateQuery(r, c.Q), c.Deps, opts)
			assertSameGoalDirected(t, rg, label, c.Q, c.Deps, opts)
			cases += 2
		}
	}

	// Star/snowflake family: random configurations (indexes, views,
	// outriggers, FK constraints) via the calibration-suite generator.
	for i := 0; i < 70; i++ {
		cfg, _ := workload.RandomStar(r)
		s, err := workload.NewStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("star case %d (%+v)", i, cfg)
		assertSameChase(t, label, s.Q, s.Deps, Options{})
		assertSameChase(t, label+" mutated", mutateQuery(r, s.Q), s.Deps, Options{})
		assertSameGoalDirected(t, rg, label, s.Q, s.Deps, Options{})
		cases += 2
	}

	// Budget-tripping runs: both engines must trip at the same step with
	// the same firing dependency.
	inf := &core.Dependency{
		Name:            "inf",
		Premise:         []core.Binding{{Var: "x", Range: core.Name("R")}},
		Conclusion:      []core.Binding{{Var: "y", Range: core.Name("R")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("y"), "Next"), R: core.V("x")}},
	}
	divergent := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
	}
	assertSameChase(t, "budget", divergent, []*core.Dependency{inf}, Options{MaxSteps: 20})
	assertSameContainment(t, "budget, goal never maps", divergent, &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
		Conds:    []core.Cond{{L: core.Prj(core.V("r"), "Next"), R: core.V("r")}},
	}, []*core.Dependency{inf}, Options{MaxSteps: 20})
	cases++

	if cases < 100 {
		t.Fatalf("differential suite ran only %d cases, want >= 100", cases)
	}
}

// FuzzIncrementalChaseMatchesNaive is the step-identity oracle of the
// delta-driven chase on fuzzed inputs. The shape picks a chain (its
// length and view count) or a random star/snowflake configuration, the
// generators TestIncrementalChaseDifferentialRandomized draws from, and
// the seed drives the configuration and a mutation of its query. The
// incremental engine must apply the naive engine's steps byte for byte,
// on the query and on the mutation, and answer the goal-directed
// containment tests alike.
func FuzzIncrementalChaseMatchesNaive(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		label := fmt.Sprintf("seed %d shape %d", seed, shape)
		var q *core.Query
		var deps []*core.Dependency
		var opts Options
		if shape&1 == 0 {
			n := 2 + int(shape>>1)%7
			c, err := workload.NewChain(n, 1+int(shape>>4)%min(n-1, 4))
			if err != nil {
				t.Fatal(err)
			}
			q, deps, opts = c.Q, c.Deps, Options{MaxSteps: 2048, MaxBindings: 2048}
		} else {
			cfg, _ := workload.RandomStar(r)
			s, err := workload.NewStar(cfg)
			if err != nil {
				t.Fatal(err)
			}
			q, deps = s.Q, s.Deps
		}
		assertSameChase(t, label, q, deps, opts)
		assertSameChase(t, label+" mutated", mutateQuery(r, q), deps, opts)
		assertSameGoalDirected(t, r, label, q, deps, opts)
	})
}

// depsForFeature returns the positions of the dependencies ix indexes
// under the feature key, in dependency order.
func depsForFeature(ix *DepIndex, feat string) []int {
	for b := 0; b < ix.feats.Len(); b++ {
		if ix.feats.Key(b) == feat {
			return ix.byBit[b]
		}
	}
	return nil
}

// TestDepIndexPremiseUnderMultipleNames pins the index shape: a
// dependency whose premise mentions several schema names (a materialized
// view over a join) must be reachable from every one of them, and a
// dependency whose premise atoms are dictionary-shaped must be indexed
// under both the dictionary name and the var-rooted shape keys of its
// condition sides.
func TestDepIndexPremiseUnderMultipleNames(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	viewFwd := &core.Dependency{
		Name: "PhiV",
		Premise: []core.Binding{
			{Var: "f", Range: n("Fact")},
			{Var: "d", Range: n("D0")},
		},
		PremiseConds: []core.Cond{{L: prj(v("f"), "K0"), R: prj(v("d"), "K")}},
		Conclusion:   []core.Binding{{Var: "w", Range: n("V0")}},
		ConclusionConds: []core.Cond{
			{L: v("w"), R: core.Struct(core.SF("M", prj(v("f"), "M")))},
		},
	}
	idxInv := &core.Dependency{
		Name: "PhiSIInv",
		Premise: []core.Binding{
			{Var: "k", Range: core.Dom(n("SI"))},
			{Var: "s", Range: core.Lk(n("SI"), v("k"))},
		},
		Conclusion:      []core.Binding{{Var: "r", Range: n("Fact")}},
		ConclusionConds: []core.Cond{{L: v("k"), R: prj(v("r"), "K0")}, {L: v("r"), R: v("s")}},
	}
	ix := NewDepIndex([]*core.Dependency{viewFwd, idxInv})

	has := func(feat string, dep int) bool {
		for _, di := range depsForFeature(ix, feat) {
			if di == dep {
				return true
			}
		}
		return false
	}
	// The view premise is reachable from both joined relations and from
	// the var-rooted projection shapes of its join condition.
	for _, feat := range []string{"!Fact", "!D0", ".K0", ".K"} {
		if !has(feat, 0) {
			t.Errorf("view dependency not indexed under %q", feat)
		}
	}
	// Conclusion-only names must NOT index the premise: the view output
	// V0 cannot enable a premise match.
	if has("!V0", 0) {
		t.Error("view dependency indexed under its conclusion name V0")
	}
	// The index-inverse premise mentions SI twice (dom(SI) and SI[k]):
	// indexed under the name exactly once.
	if got := depsForFeature(ix, "!SI"); len(got) != 1 || got[0] != 1 {
		t.Errorf("depsForFeature(!SI) = %v, want exactly [1]", got)
	}
	for _, di := range depsForFeature(ix, "!Fact") {
		if di == 1 {
			t.Error("index-inverse dependency indexed under conclusion name Fact")
		}
	}
}

// TestDepIndexDirtyOnEveryPremiseName asserts the semantics the index
// exists for: a chase step touching ANY name of a multi-name premise
// re-enables the dependency. The view can only fire after both Fact and
// D0 facts exist; deriving the D0 fact last (through an FK constraint)
// must still wake the view dependency up.
func TestDepIndexDirtyOnEveryPremiseName(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	ric := &core.Dependency{
		Name:            "RIC",
		Premise:         []core.Binding{{Var: "f", Range: n("Fact")}},
		Conclusion:      []core.Binding{{Var: "d", Range: n("D0")}},
		ConclusionConds: []core.Cond{{L: prj(v("f"), "K0"), R: prj(v("d"), "K")}},
	}
	viewFwd := &core.Dependency{
		Name: "PhiV",
		Premise: []core.Binding{
			{Var: "f", Range: n("Fact")},
			{Var: "d", Range: n("D0")},
		},
		PremiseConds: []core.Cond{{L: prj(v("f"), "K0"), R: prj(v("d"), "K")}},
		Conclusion:   []core.Binding{{Var: "w", Range: n("V0")}},
		ConclusionConds: []core.Cond{
			{L: v("w"), R: core.Struct(core.SF("M", prj(v("f"), "M")))},
		},
	}
	q := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "f", Range: n("Fact")}},
	}
	deps := []*core.Dependency{viewFwd, ric}
	res, err := Chase(q, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]bool{}
	for _, s := range res.Steps {
		fired[s.Dep] = true
	}
	// The view dependency is scanned first (no D0 fact yet: clean), RIC
	// fires adding the D0 binding, and the delta must re-dirty the view
	// through the !D0 feature so it fires next.
	if !fired["RIC"] || !fired["PhiV"] {
		t.Fatalf("expected RIC then PhiV to fire, got steps %v", res.Steps)
	}
	if res.Steps[0].Dep != "RIC" || res.Steps[1].Dep != "PhiV" {
		t.Fatalf("step order = %v, want RIC before PhiV", res.Steps)
	}
	assertSameChase(t, "view wakeup", q, deps, Options{})
}

// TestDeltaDirtyUpToCongruence is the regression for the premature
// fixpoint found in review: a new binding's range can satisfy a premise
// membership test through a term that is congruent but structurally
// different (here d0.A ≡ d0.B via the query condition), so the delta
// must be matched against the feature keys of the range's whole
// congruence class, not just the range term itself. With term-level
// features only, R (indexed under ".B") is never re-dirtied by the
// binding u_1 in d0.A that P adds, and the incremental engine stops
// after 1 step while the naive engine takes 2.
func TestDeltaDirtyUpToCongruence(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	q := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "d", Range: n("Depts")}},
		Conds:    []core.Cond{{L: prj(v("d"), "A"), R: prj(v("d"), "B")}},
	}
	depR := &core.Dependency{
		Name: "R",
		Premise: []core.Binding{
			{Var: "d", Range: n("Depts")},
			{Var: "v", Range: prj(v("d"), "B")},
		},
		Conclusion: []core.Binding{{Var: "w", Range: prj(v("v"), "C")}},
	}
	depP := &core.Dependency{
		Name:       "P",
		Premise:    []core.Binding{{Var: "d", Range: n("Depts")}},
		Conclusion: []core.Binding{{Var: "u", Range: prj(v("d"), "A")}},
	}
	deps := []*core.Dependency{depR, depP}
	res, err := Chase(q, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 || res.Steps[0].Dep != "P" || res.Steps[1].Dep != "R" {
		t.Fatalf("steps = %v, want P then R (R re-enabled through the congruence class of d0.A)", res.Steps)
	}
	assertSameChase(t, "congruent delta", q, deps, Options{})
}

// TestDeltaDirtyRepeatedPremiseVar covers the other congruence-level
// test a premise can pose: a repeated premise variable adds a var≡var
// witness check, which an EGD can flip by merging two binding-variable
// classes — a union whose feature log contains only the variable key.
// The dependency must therefore be indexed under core.FeatVar. Here S is
// searched and marked clean before T's step enables the EGD E; E merges
// x and y, and only the "?" feature connects that union back to S.
// (core.Dependency.Validate rejects duplicate premise vars, but the
// chase engines accept unvalidated dependencies and enumerate the
// witness test for them — both engines must keep agreeing on the shape.)
func TestDeltaDirtyRepeatedPremiseVar(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	q := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "d", Range: n("Depts")},
			{Var: "x", Range: prj(v("d"), "B")},
			{Var: "y", Range: prj(v("d"), "C")},
		},
	}
	depS := &core.Dependency{
		Name: "S",
		Premise: []core.Binding{
			{Var: "d", Range: n("Depts")},
			{Var: "v", Range: prj(v("d"), "B")},
			{Var: "v", Range: prj(v("d"), "C")},
		},
		Conclusion: []core.Binding{{Var: "w", Range: prj(v("v"), "C2")}},
	}
	depT := &core.Dependency{
		Name:       "T",
		Premise:    []core.Binding{{Var: "d", Range: n("Depts")}},
		Conclusion: []core.Binding{{Var: "z", Range: prj(v("d"), "D")}},
	}
	depE := &core.Dependency{
		Name: "E",
		Premise: []core.Binding{
			{Var: "d", Range: n("Depts")},
			{Var: "z", Range: prj(v("d"), "D")},
			{Var: "x", Range: prj(v("d"), "B")},
			{Var: "y", Range: prj(v("d"), "C")},
		},
		ConclusionConds: []core.Cond{{L: v("x"), R: v("y")}},
	}
	deps := []*core.Dependency{depS, depT, depE}
	res, err := Chase(q, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 || res.Steps[0].Dep != "T" || res.Steps[1].Dep != "E" || res.Steps[2].Dep != "S" {
		t.Fatalf("steps = %v, want T, E, S (S re-enabled by the x≡y union through FeatVar)", res.Steps)
	}
	assertSameChase(t, "repeated premise var", q, deps, Options{})
}

// TestDeltaDirtyConstantPremise covers the constant feature key: a
// premise atom over a bare constant ("v in x") contributes no name or
// var-rooted shape key, so without a key for the constant itself the
// dependency is unreachable from any delta. All three wake-up paths are
// exercised: a new binding whose range IS the constant, a new binding
// whose range is congruent to it, and an EGD union joining the
// constant's class with a projection class.
func TestDeltaDirtyConstantPremise(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	x := core.C("x")
	depR := &core.Dependency{
		Name: "R",
		Premise: []core.Binding{
			{Var: "d", Range: n("Depts")},
			{Var: "v", Range: x},
		},
		Conclusion: []core.Binding{{Var: "w", Range: prj(v("v"), "C")}},
	}

	// Path 1: P adds a binding ranging over the constant itself.
	q := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "d", Range: n("Depts")}},
		Conds:    []core.Cond{{L: prj(v("d"), "A"), R: x}},
	}
	constP := &core.Dependency{
		Name:       "P",
		Premise:    []core.Binding{{Var: "d", Range: n("Depts")}},
		Conclusion: []core.Binding{{Var: "u", Range: x}},
	}
	deps := []*core.Dependency{depR, constP}
	res, err := Chase(q, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 || res.Steps[1].Dep != "R" {
		t.Fatalf("constant range: steps = %v, want P then R", res.Steps)
	}
	assertSameChase(t, "constant range delta", q, deps, Options{})

	// Path 2: P adds a binding over d.A, congruent to the constant via
	// the query condition d.A = "x".
	projP := &core.Dependency{
		Name:       "P",
		Premise:    []core.Binding{{Var: "d", Range: n("Depts")}},
		Conclusion: []core.Binding{{Var: "u", Range: prj(v("d"), "A")}},
	}
	deps = []*core.Dependency{depR, projP}
	res, err = Chase(q, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 || res.Steps[1].Dep != "R" {
		t.Fatalf("congruent-to-constant range: steps = %v, want P then R", res.Steps)
	}
	assertSameChase(t, "congruent constant delta", q, deps, Options{})

	// Path 3: the congruence to the constant arrives by EGD union after R
	// was searched and marked clean — the union's feature log must carry
	// the constant's key, since the projection class alone logs only ".A".
	qe := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "d", Range: n("Depts")},
			{Var: "u", Range: prj(v("d"), "A")},
		},
	}
	depT := &core.Dependency{
		Name:       "T",
		Premise:    []core.Binding{{Var: "d", Range: n("Depts")}},
		Conclusion: []core.Binding{{Var: "z", Range: prj(v("d"), "D")}},
	}
	depE := &core.Dependency{
		Name: "E",
		Premise: []core.Binding{
			{Var: "d", Range: n("Depts")},
			{Var: "z", Range: prj(v("d"), "D")},
		},
		ConclusionConds: []core.Cond{{L: prj(v("d"), "A"), R: x}},
	}
	deps = []*core.Dependency{depR, depT, depE}
	res, err = Chase(qe, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 || res.Steps[0].Dep != "T" || res.Steps[1].Dep != "E" || res.Steps[2].Dep != "R" {
		t.Fatalf("EGD union with constant: steps = %v, want T, E, R", res.Steps)
	}
	assertSameChase(t, "constant union", qe, deps, Options{})
}

// TestDeltaDirtyStructPremise covers the struct shape key: a premise
// atom v in struct(A: w) over premise vars has no name, constant, or
// var-rooted key — only the constructor's field list can connect it to a
// delta. P appends a binding ranging over struct(A: "x"), which matches
// the atom under w -> u precisely because u ≡ "x"; without the
// "struct:A" key on both sides R is unreachable and the incremental
// engine stops a step early.
func TestDeltaDirtyStructPremise(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	x := core.C("x")
	q := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "d", Range: n("Depts")},
			{Var: "u", Range: prj(v("d"), "K")},
		},
		Conds: []core.Cond{{L: v("u"), R: x}},
	}
	depR := &core.Dependency{
		Name: "R",
		Premise: []core.Binding{
			{Var: "d", Range: n("Depts")},
			{Var: "w", Range: prj(v("d"), "K")},
			{Var: "v", Range: core.Struct(core.SF("A", v("w")))},
		},
		Conclusion: []core.Binding{{Var: "z", Range: prj(v("v"), "C")}},
	}
	depP := &core.Dependency{
		Name:       "P",
		Premise:    []core.Binding{{Var: "d", Range: n("Depts")}},
		Conclusion: []core.Binding{{Var: "s", Range: core.Struct(core.SF("A", x))}},
	}
	deps := []*core.Dependency{depR, depP}
	res, err := Chase(q, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 || res.Steps[1].Dep != "R" {
		t.Fatalf("struct premise: steps = %v, want P then R", res.Steps)
	}
	assertSameChase(t, "struct premise delta", q, deps, Options{})
}

// TestErrBudgetReportsFiringDep asserts the diagnosable-budget satellite:
// a non-terminating dependency set names the runaway dependency in both
// the typed error and its message.
func TestErrBudgetReportsFiringDep(t *testing.T) {
	inf := &core.Dependency{
		Name:            "runaway_dep",
		Premise:         []core.Binding{{Var: "x", Range: core.Name("R")}},
		Conclusion:      []core.Binding{{Var: "y", Range: core.Name("R")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("y"), "Next"), R: core.V("x")}},
	}
	q := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
	}
	for _, naive := range []bool{false, true} {
		ix := engineIndex(naive, []*core.Dependency{inf})
		_, err := ChaseIndexed(context.Background(), q, ix, Options{MaxSteps: 10})
		be, ok := err.(*ErrBudget)
		if !ok {
			t.Fatalf("naive=%v: error = %v, want *ErrBudget", naive, err)
		}
		if be.Dep != "runaway_dep" {
			t.Errorf("naive=%v: ErrBudget.Dep = %q, want runaway_dep", naive, be.Dep)
		}
		if !strings.Contains(err.Error(), "runaway_dep") {
			t.Errorf("naive=%v: message %q does not name the firing dependency", naive, err)
		}
	}
	// Budget exhausted before any step: no dependency to blame.
	_, err := Chase(q, nil, Options{MaxBindings: -1})
	if be, ok := err.(*ErrBudget); !ok || be.Dep != "" {
		t.Errorf("stepless budget trip: err = %v, want ErrBudget with empty Dep", err)
	}
}
