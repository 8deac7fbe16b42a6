package backchase

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/workload"
)

// cancelAfter is a context that cancels itself at its n-th Err call, so a
// test can cancel a run at a fixed point of its work instead of after a
// wall-clock delay the run may outpace.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelAfter{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// acceptedStates runs the exhaustive search of root under deps and
// returns every candidate it found equivalent, certified or chased,
// rebuilt from its key.
func acceptedStates(t *testing.T, root *core.Query, deps []*core.Dependency, opts Options) (*Result, []*core.Query) {
	t.Helper()
	e, err := newEngine(context.Background(), root, deps, opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.enumerate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out []*core.Query
	for key, eq := range e.eq {
		if !eq {
			continue
		}
		sub, _, ok := e.subs.subquery(key)
		if !ok {
			t.Fatalf("accepted state %x cannot be rebuilt", key)
		}
		out = append(out, sub)
	}
	return res, out
}

// TestCertificatesAgreeWithChase: every state the search accepts, and so
// every state a seed certifies, is also proved equivalent by the
// goal-directed chase, on ProjDept, chain, the E13 star/snowflake
// workloads and the randomized inputs of the Enumerate ≡
// BruteForceMinimal suite.
func TestCertificatesAgreeWithChase(t *testing.T) {
	type scenario struct {
		label   string
		q, goal *core.Query
		deps    []*core.Dependency
	}
	var scenarios []scenario
	chased := func(label string, q *core.Query, deps []*core.Dependency) {
		res, err := chase.Chase(q, deps, chase.Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !res.Inconsistent {
			scenarios = append(scenarios, scenario{label, res.Query, q, deps})
		}
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	chased("ProjDept", pd.Q, pd.AllDeps())
	for _, n := range []int{3, 4, 5} {
		c, err := workload.NewChain(n, n-1)
		if err != nil {
			t.Fatal(err)
		}
		chased(fmt.Sprintf("chain n=%d", n), c.Q, c.Deps)
	}
	base := workload.StarConfig{Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true, Select: true, SelectA: 3, FKConstraints: true}
	twoViews, snow := base, base
	twoViews.Views = 2
	snow.Snowflake = true
	for i, cfg := range []workload.StarConfig{base, twoViews, snow} {
		s, err := workload.NewStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chased(fmt.Sprintf("E13 workload %d", i), s.Q, s.Deps)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 120; i++ {
		q, deps := randomQuery(r), randomDeps(r)
		scenarios = append(scenarios, scenario{fmt.Sprintf("random %d", i), q, nil, deps})
		chased(fmt.Sprintf("random %d (universal plan)", i), q, deps)
	}

	certified := 0
	for _, sc := range scenarios {
		opts := Options{Goal: sc.goal}
		res, accepted := acceptedStates(t, sc.q, sc.deps, opts)
		goal := sc.q
		if sc.goal != nil {
			goal = sc.goal
		}
		ix := chase.NewDepIndex(sc.deps)
		for _, s := range accepted {
			ok, err := chase.ContainedInCompiled(context.Background(), s, chase.CompileQuery(goal), ix, chase.Options{})
			if err != nil || !ok {
				t.Errorf("%s: accepted state fails the chase (%v, %v):\n%s", sc.label, ok, err, s)
			}
		}
		certified += res.Certified
	}
	if certified == 0 {
		t.Fatal("no state was certified")
	}
}

// TestProjDeptCertificates pins the certificates on the paper's example
// with the user's query as the goal, as the optimizer runs it: the same
// search, and at most 40 equivalence chases where every candidate used to
// be chased.
func TestProjDeptCertificates(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	u, err := chase.Chase(pd.Q, pd.AllDeps(), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Enumerate(u.Query, pd.AllDeps(), Options{Goal: pd.Q})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("states %d, plans %d, seeds %d, certified %d, chased %d",
		res.States, len(res.Plans), res.Seeds, res.Certified, res.Chased)
	if res.States != 228 || len(res.Plans) != 6 {
		t.Errorf("search = %d states, %d plans; want 228, 6", res.States, len(res.Plans))
	}
	if res.Seeds == 0 || res.Certified == 0 {
		t.Errorf("seeds %d, certified %d; want both > 0", res.Seeds, res.Certified)
	}
	if res.Chased > 40 {
		t.Errorf("chased %d candidates, want <= 40", res.Chased)
	}
}

// TestFailedCertificateFallsBackToChase: a state above a seed whose
// identity mapping fails is chased, and still proved equivalent; with
// the true seed the same state is certified without a chase.
func TestFailedCertificateFallsBackToChase(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	deps := pd.AllDeps()
	u, err := chase.Chase(pd.Q, deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Goal: pd.Q}.withDefaults()
	fresh := func() *engine {
		e, err := newEngine(context.Background(), u.Query, deps, opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// The dives' first normal form, and an equivalent state strictly
	// above it.
	d := fresh()
	var plan *core.Query
	var planRemoved posSet
	removed, cur := d.none, d.root
	for cur != nil {
		plan, planRemoved = cur, removed
		removed, cur, err = d.firstRemoval(context.Background(), removed, cur)
		if err != nil {
			t.Fatal(err)
		}
	}
	var key posSet
	var state *core.Query
	for p := range d.root.Bindings {
		if !planRemoved.has(p) {
			continue
		}
		k, sub := d.buildState(d.none.with(p))
		if sub == nil || !k.subsetOf(planRemoved) || k == planRemoved {
			continue
		}
		if eq, err := d.equivalence(context.Background(), k, sub); err != nil || !eq {
			continue
		}
		key, state = k, sub
		break
	}
	if state == nil {
		t.Fatal("no equivalent state strictly above the seed")
	}

	check := func(label string, sd *core.Query, wantCertified bool) {
		e := fresh()
		e.seeds = []seed{{removed: planRemoved, q: sd}}
		eq, err := e.equivalence(context.Background(), key, state)
		if err != nil || !eq {
			t.Fatalf("%s: equivalence = %v, %v; want true", label, eq, err)
		}
		certified, chased := e.certified, e.chased
		if wantCertified && (certified != 1 || chased != 0) {
			t.Errorf("%s: certified %d, chased %d; want 1, 0", label, certified, chased)
		}
		if !wantCertified && (certified != 0 || chased != 1) {
			t.Errorf("%s: certified %d, chased %d; want 0, 1", label, certified, chased)
		}
	}
	check("true seed", plan, true)
	// The same bindings with an output the state's cannot match: the
	// identity is no containment mapping, so only the chase decides.
	wrong := plan.Clone()
	wrong.Out = core.C("no such output")
	check("seed with a foreign output", wrong, false)
}

// TestCancelDuringSeeding: a context cancelled while the seed dives run
// ends the run with ctx.Err() before any state is explored.
func TestCancelDuringSeeding(t *testing.T) {
	u := chasedProjDept(t)
	for _, after := range []int64{1, 5} {
		e, err := newEngine(context.Background(), u, projDeptDeps(), Options{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		ctx := newCancelAfter(after)
		res, err := e.enumerate(ctx)
		ctx.cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at check %d: err = %v, want context.Canceled", after, err)
		}
		if res == nil || res.States != 0 || e.seeds != nil {
			t.Errorf("cancel at check %d: result %+v, seeds %d; want nothing explored, no seeds", after, res, len(e.seeds))
		}
	}
}
