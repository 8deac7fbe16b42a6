package backchase

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"cnb/internal/chase"
	"cnb/internal/core"
)

// ---- random case generation for differential testing ---------------------
//
// Small path-conjunctive queries over flat relations R, S, T plus a random
// subset of a fixed, weakly acyclic dependency pool (inclusion
// dependencies out of R, key EGDs), so every chase terminates within the
// default budgets and the brute-force oracle stays tractable.

var diffFields = []string{"A", "B", "C"}

func randomDeps(r *rand.Rand) []*core.Dependency {
	v, n, prj := core.V, core.Name, core.Prj
	var deps []*core.Dependency
	if r.Intn(2) == 0 {
		deps = append(deps, &core.Dependency{
			Name:            "IND_RS",
			Premise:         []core.Binding{{Var: "r", Range: n("R")}},
			Conclusion:      []core.Binding{{Var: "s", Range: n("S")}},
			ConclusionConds: []core.Cond{{L: prj(v("r"), "A"), R: prj(v("s"), "A")}},
		})
	}
	if r.Intn(3) == 0 {
		deps = append(deps, &core.Dependency{
			Name:            "IND_RT",
			Premise:         []core.Binding{{Var: "r", Range: n("R")}},
			Conclusion:      []core.Binding{{Var: "t", Range: n("T")}},
			ConclusionConds: []core.Cond{{L: prj(v("r"), "B"), R: prj(v("t"), "B")}},
		})
	}
	if r.Intn(3) == 0 {
		deps = append(deps, &core.Dependency{
			Name:            "KEY_R",
			Premise:         []core.Binding{{Var: "a", Range: n("R")}, {Var: "b", Range: n("R")}},
			PremiseConds:    []core.Cond{{L: prj(v("a"), "A"), R: prj(v("b"), "A")}},
			ConclusionConds: []core.Cond{{L: v("a"), R: v("b")}},
		})
	}
	if r.Intn(4) == 0 {
		deps = append(deps, &core.Dependency{
			Name:            "KEY_S",
			Premise:         []core.Binding{{Var: "a", Range: n("S")}, {Var: "b", Range: n("S")}},
			PremiseConds:    []core.Cond{{L: prj(v("a"), "A"), R: prj(v("b"), "A")}},
			ConclusionConds: []core.Cond{{L: v("a"), R: v("b")}},
		})
	}
	return deps
}

func randomQuery(r *rand.Rand) *core.Query {
	rels := []string{"R", "R", "S", "T"} // bias toward self-joins on R
	n := 2 + r.Intn(3)
	q := &core.Query{}
	for i := 0; i < n; i++ {
		q.Bindings = append(q.Bindings, core.Binding{
			Var:   fmt.Sprintf("x%d", i),
			Range: core.Name(rels[r.Intn(len(rels))]),
		})
	}
	pickVar := func() *core.Term { return core.V(fmt.Sprintf("x%d", r.Intn(n))) }
	pickField := func() string { return diffFields[r.Intn(len(diffFields))] }
	m := r.Intn(n + 1)
	for i := 0; i < m; i++ {
		switch r.Intn(5) {
		case 0:
			// Row equality between two bindings (often makes one redundant).
			q.Conds = append(q.Conds, core.Cond{L: pickVar(), R: pickVar()})
		case 1:
			// Constant selection.
			q.Conds = append(q.Conds, core.Cond{
				L: core.Prj(pickVar(), pickField()),
				R: core.C("c1"),
			})
		default:
			// Join condition; same-field joins (the redundant-chain shape)
			// half the time.
			f1 := pickField()
			f2 := f1
			if r.Intn(2) == 0 {
				f2 = pickField()
			}
			q.Conds = append(q.Conds, core.Cond{
				L: core.Prj(pickVar(), f1),
				R: core.Prj(pickVar(), f2),
			})
		}
	}
	out := []core.StructField{{Name: "O1", Term: core.Prj(pickVar(), pickField())}}
	if r.Intn(2) == 0 {
		out = append(out, core.StructField{Name: "O2", Term: core.Prj(pickVar(), pickField())})
	}
	q.Out = core.Struct(out...)
	if q.Validate() != nil {
		// Conditions only mention bound variables by construction; Validate
		// can still reject pathological duplicates — regenerate.
		return randomQuery(r)
	}
	return q
}

func planSigs(qs []*core.Query) map[string]bool {
	m := map[string]bool{}
	for _, q := range qs {
		m[q.CanonicalSignature()] = true
	}
	return m
}

func sameSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// matchUpToEquivalence checks that two plan sets coincide up to
// chase-equivalence under the dependencies: every plan of each side has a
// counterpart of the same size (binding count — the minimality measure)
// on the other side that is provably equivalent. A renaming-invariant
// signature match is used as a fast path; the chase decides the rest.
// Syntactic signatures alone are too strict: the two engines can render
// one plan with different (equivalent) spanning trees of the same
// congruence classes in the where clause.
func matchUpToEquivalence(t *testing.T, label string, a, b []*core.Query, deps []*core.Dependency) {
	t.Helper()
	bSigs := planSigs(b)
	for _, p := range a {
		if bSigs[p.CanonicalSignature()] {
			continue
		}
		found := false
		for _, q := range b {
			if len(q.Bindings) != len(p.Bindings) {
				continue
			}
			eq, err := Equivalent(p, q, deps, chase.Options{})
			if err != nil {
				t.Fatalf("%s: equivalence check: %v", label, err)
			}
			if eq {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: plan has no equivalent counterpart:\n%s", label, p)
		}
	}
}

// TestDifferentialEnumerateVsBruteForce validates Theorem 2 end to end on
// randomly generated inputs: Enumerate must return exactly
// the minimal equivalent subqueries that the exponential brute-force
// oracle finds (as sets of plans up to equivalence). The two
// implementations share only Subquery and the chase-based containment
// primitive, and search the lattice in entirely different ways, so
// agreement is a strong differential oracle (Ba & Rigger's
// independent-implementations principle). Each case also runs on its
// universal plan with the query as the goal (see Options.Goal).
func TestDifferentialEnumerateVsBruteForce(t *testing.T) {
	const cases = 120
	r := rand.New(rand.NewSource(42))
	for i := 0; i < cases; i++ {
		q := randomQuery(r)
		deps := randomDeps(r)
		opts := Options{}

		en, err := Enumerate(q, deps, opts)
		if err != nil {
			t.Fatalf("case %d: Enumerate: %v\nquery:\n%s", i, err, q)
		}
		if en.Truncated {
			t.Fatalf("case %d: unexpected truncation (generator must stay small)", i)
		}
		bf, err := BruteForceMinimal(q, deps, opts)
		if err != nil {
			t.Fatalf("case %d: BruteForceMinimal: %v\nquery:\n%s", i, err, q)
		}
		bfNorm := make([]*core.Query, len(bf))
		for j, p := range bf {
			bfNorm[j] = Normalize(p, deps, chase.Options{})
		}
		label := fmt.Sprintf("case %d (query:\n%s\n)", i, q)
		matchUpToEquivalence(t, label+" enumerate⊆bruteforce", en.Plans, bfNorm, deps)
		matchUpToEquivalence(t, label+" bruteforce⊆enumerate", bfNorm, en.Plans, deps)

		// The optimizer's shape: enumerate the universal plan U with q as
		// the goal. The search must be the root-directed one exactly, and
		// its plans must be the brute-force minimal subqueries of U, which
		// the oracle finds with full-fixpoint containment tests.
		chased, err := chase.Chase(q, deps, chase.Options{})
		if err != nil || chased.Inconsistent {
			continue
		}
		u := chased.Query
		root, err := Enumerate(u, deps, opts)
		if err != nil {
			t.Fatalf("case %d: Enumerate(U): %v", i, err)
		}
		goalOpts := opts
		goalOpts.Goal = q
		withGoal, err := Enumerate(u, deps, goalOpts)
		if err != nil {
			t.Fatalf("case %d: Enumerate(U) with goal: %v", i, err)
		}
		if got, want := resultFingerprint(withGoal), resultFingerprint(root); got != want {
			t.Fatalf("%s: Enumerate(U) with goal differs from without:\nwith:\n%s\nwithout:\n%s", label, got, want)
		}
		bfU, err := BruteForceMinimal(u, deps, opts)
		if err != nil {
			t.Fatalf("case %d: BruteForceMinimal(U): %v", i, err)
		}
		for j, p := range bfU {
			bfU[j] = Normalize(p, deps, chase.Options{})
		}
		matchUpToEquivalence(t, label+" goal enumerate⊆bruteforce(U)", withGoal.Plans, bfU, deps)
		matchUpToEquivalence(t, label+" bruteforce(U)⊆goal enumerate", bfU, withGoal.Plans, deps)
	}
}

// resultFingerprint flattens a Result into a comparable string: plan and
// explored-state renderings in their reported (canonical) order plus the
// counters. Byte equality of fingerprints means byte-identical results.
func resultFingerprint(res *Result) string {
	s := fmt.Sprintf("states=%d truncated=%v\n", res.States, res.Truncated)
	for _, p := range res.Plans {
		s += "plan:" + p.String() + "\n"
	}
	for _, e := range res.Explored {
		s += "explored:" + e.CanonicalSignature() + "\n"
	}
	return s
}

// TestDeterminismAcrossRuns asserts the engine's determinism guarantee:
// the Result — plans, explored states, counters, and their order — is
// identical across repeated runs.
func TestDeterminismAcrossRuns(t *testing.T) {
	deps := projDeptDeps()
	chased, err := chase.Chase(projDeptQuery(), deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := chased.Query

	var reference string
	for run := 0; run < 3; run++ {
		res, err := Enumerate(u, deps, Options{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		fp := resultFingerprint(res)
		if reference == "" {
			reference = fp
			continue
		}
		if fp != reference {
			t.Errorf("run %d: result differs from reference\ngot:\n%s\nwant:\n%s", run, fp, reference)
		}
	}

	// The random differential cases must also be run-to-run
	// deterministic, not just ProjDept.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		q := randomQuery(r)
		qdeps := randomDeps(r)
		var ref string
		for run := 0; run < 2; run++ {
			res, err := Enumerate(q, qdeps, Options{})
			if err != nil {
				t.Fatalf("case %d run %d: %v", i, run, err)
			}
			fp := resultFingerprint(res)
			if ref == "" {
				ref = fp
			} else if fp != ref {
				t.Errorf("case %d: run %d differs\nquery:\n%s", i, run, q)
			}
		}
	}
}

// scramble returns an alpha-renamed, binding-shuffled variant of q whose
// new variable names sort in a random order relative to the binding
// positions. randomQuery ranges are flat relation names, so every
// binding permutation is dependency-valid.
func scramble(q *core.Query, r *rand.Rand) *core.Query {
	perm := r.Perm(len(q.Bindings))
	names := map[string]string{}
	for i, b := range q.Bindings {
		names[b.Var] = fmt.Sprintf("y%03d", perm[i])
	}
	s := q.RenameVars(func(v string) string { return names[v] })
	r.Shuffle(len(s.Bindings), func(i, j int) {
		s.Bindings[i], s.Bindings[j] = s.Bindings[j], s.Bindings[i]
	})
	r.Shuffle(len(s.Conds), func(i, j int) { s.Conds[i], s.Conds[j] = s.Conds[j], s.Conds[i] })
	return s
}

// TestDeterminismRenamedInputs extends the determinism guarantee to
// alpha-renamed inputs: a scrambled variant of a query must itself
// enumerate deterministically across runs, and its plan set must
// coincide with the original's under the renaming-invariant canonical
// signature — the invariant the plan cache and singleflight keys rely
// on.
func TestDeterminismRenamedInputs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 15; i++ {
		q := randomQuery(r)
		s := scramble(q, r)
		qdeps := randomDeps(r)

		var refQ, refS string
		var qPlans, sPlans []*core.Query
		for run := 0; run < 2; run++ {
			resQ, err := Enumerate(q, qdeps, Options{})
			if err != nil {
				t.Fatalf("case %d run %d: %v", i, run, err)
			}
			resS, err := Enumerate(s, qdeps, Options{})
			if err != nil {
				t.Fatalf("case %d run %d (scrambled): %v", i, run, err)
			}
			if fp := resultFingerprint(resQ); refQ == "" {
				refQ, qPlans = fp, resQ.Plans
			} else if fp != refQ {
				t.Errorf("case %d: original query nondeterministic at run %d\nquery:\n%s", i, run, q)
			}
			if fp := resultFingerprint(resS); refS == "" {
				refS, sPlans = fp, resS.Plans
			} else if fp != refS {
				t.Errorf("case %d: scrambled query nondeterministic at run %d\nquery:\n%s", i, run, s)
			}
		}
		if !sameSets(planSigs(qPlans), planSigs(sPlans)) {
			t.Errorf("case %d: canonical plan-signature sets differ between original and scrambled input\noriginal:\n%s\nscrambled:\n%s", i, q, s)
		}
	}
}

// TestDeterminismSymmetricPlans pins the plan-representative choice on
// a symmetric self-join where removing x0 and removing x1 yield
// isomorphic normal forms with the same renaming-invariant signature but
// different variable names. The engine must keep the canonical
// representative (smallest rendering), not whichever state reached the
// dedup map first.
func TestDeterminismSymmetricPlans(t *testing.T) {
	q := &core.Query{
		Out: core.Prj(core.V("x0"), "A"),
		Bindings: []core.Binding{
			{Var: "x0", Range: core.Name("R")},
			{Var: "x1", Range: core.Name("R")},
		},
		Conds: []core.Cond{{L: core.V("x0"), R: core.V("x1")}},
	}
	var ref string
	for run := 0; run < 8; run++ {
		res, err := Enumerate(q, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fp := resultFingerprint(res)
		if ref == "" {
			ref = fp
		} else if fp != ref {
			t.Fatalf("run %d: symmetric-plan representative varies\ngot:\n%s\nwant:\n%s", run, fp, ref)
		}
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (with slack for runtime helpers), failing the test otherwise.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
}

// TestCancellationTerminatesWorkers cancels a large enumeration mid-run:
// EnumerateContext must return promptly with the context error and the
// partial results collected so far, leaving no goroutine behind. The
// context cancels itself at its 600th check: the run makes about 1 000
// (one for the root chase, about 160 in the seed dives, the rest in the
// exploration), so the cancellation lands in the exploration however
// fast the host is.
func TestCancellationTerminatesWorkers(t *testing.T) {
	deps := projDeptDeps()
	chased, err := chase.Chase(projDeptQuery(), deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	ctx := newCancelAfter(600)
	defer ctx.cancel()
	start := time.Now()
	res, err := EnumerateContext(ctx, chased.Query, deps, Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancellation must return the partial result")
	}
	// Cancellation must cut the run short (generous bound for slow CI).
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt termination", elapsed)
	}
	waitForGoroutines(t, baseline)
}

// TestCancelledBeforeStart covers the degenerate case: a context that is
// already cancelled fails fast, before the engine is built.
func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EnumerateContext(ctx, redundantTriple(), nil, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMaxStatesTruncationDeterministic asserts that the state budget
// stops the search with exactly MaxStates states explored, reporting
// truncation, and that the exploration order is fixed: two capped runs
// explore the same states and keep the same plans.
func TestMaxStatesTruncationDeterministic(t *testing.T) {
	deps := projDeptDeps()
	chased, err := chase.Chase(projDeptQuery(), deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50
	var ref string
	for run := 0; run < 2; run++ {
		res, err := Enumerate(chased.Query, deps, Options{MaxStates: budget})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Errorf("run %d: MaxStates=%d must truncate the ProjDept lattice", run, budget)
		}
		if res.States != budget || len(res.Explored) != budget {
			t.Errorf("run %d: explored %d states (%d listed), want the budget %d", run, res.States, len(res.Explored), budget)
		}
		fp := resultFingerprint(res)
		if ref == "" {
			ref = fp
		} else if fp != ref {
			t.Errorf("run %d: capped result differs\ngot:\n%s\nwant:\n%s", run, fp, ref)
		}
	}
}

// TestChaseBudgetSkipsCandidates asserts that per-candidate chase budget
// exhaustion is contained: the removal is treated as unverifiable, the
// run ends without an error, and every plan it keeps is still
// equivalent to the query.
func TestChaseBudgetSkipsCandidates(t *testing.T) {
	deps := projDeptDeps()
	q := projDeptQuery()
	res, err := Enumerate(q, deps, Options{Chase: chase.Options{MaxSteps: 1}})
	if err != nil {
		t.Fatalf("err = %v, want none", err)
	}
	if res.Chased == 0 || len(res.Plans) == 0 {
		t.Fatalf("chased %d, %d plans; want candidate chases and a plan", res.Chased, len(res.Plans))
	}
	for _, p := range res.Plans {
		if eq, err := Equivalent(p, q, deps, chase.Options{}); err != nil || !eq {
			t.Errorf("plan not equivalent to the query (%v, %v):\n%s", eq, err, p)
		}
	}
}

// TestMinimizeOneDeterministic pins the greedy minimizer's determinism:
// repeated runs take the same (first-in-binding-order) removal sequence
// to the same plan, which is smaller than the universal plan.
func TestMinimizeOneDeterministic(t *testing.T) {
	deps := projDeptDeps()
	chased, err := chase.Chase(projDeptQuery(), deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := MinimizeOne(chased.Query, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := MinimizeOne(chased.Query, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != first.String() {
		t.Errorf("minimized plan differs between runs\ngot:\n%s\nwant:\n%s", again, first)
	}
	if len(first.Bindings) >= len(chased.Query.Bindings) {
		t.Error("universal plan reported minimal")
	}
}

// TestBruteForceDeterministic pins the oracle itself: repeated runs
// return the same plans in the same order.
func TestBruteForceDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 10; i++ {
		q := randomQuery(r)
		deps := randomDeps(r)
		var ref string
		for run := 0; run < 2; run++ {
			plans, err := BruteForceMinimal(q, deps, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, p := range plans {
				got.WriteString(p.String() + "\n")
			}
			if run == 0 {
				ref = got.String()
			} else if got.String() != ref {
				t.Errorf("case %d: brute force differs between runs\nquery:\n%s", i, q)
			}
		}
	}
}
