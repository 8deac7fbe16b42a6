package bench

import (
	"fmt"
	"testing"

	"cnb/internal/core"
	"cnb/internal/optimizer"
	"cnb/internal/planrewrite"
	"cnb/internal/service"
	"cnb/internal/workload"
)

// referenceExecutablePool is phase 3's deduplication as it was before
// shape-key bucketing: every simplified plan's CanonicalSignature is
// rendered and the first plan of each signature is kept, in pool order.
// optimizer.ExecutablePool must return exactly its plans.
func referenceExecutablePool(plans []*core.Query) []*core.Query {
	var out []*core.Query
	seen := map[string]bool{}
	for _, p := range plans {
		s := planrewrite.SimplifyLookups(p)
		sig := s.CanonicalSignature()
		if !seen[sig] {
			seen[sig] = true
			out = append(out, s)
		}
	}
	return out
}

// optimizerPool rebuilds the pool OptimizeContext hands phase 3 from its
// result: the minimal plans, then (unless MinimalOnly) every explored
// state, restricted to the physical names unless the restriction fell
// back.
func optimizerPool(res *optimizer.Result, opts optimizer.Options) []*core.Query {
	pool := append([]*core.Query(nil), res.Minimal...)
	if !opts.MinimalOnly {
		pool = append(pool, res.Explored...)
	}
	if opts.PhysicalNames == nil || res.Fallback {
		return pool
	}
	var plans []*core.Query
	for _, p := range pool {
		physical := true
		for n := range p.Names() {
			physical = physical && opts.PhysicalNames[n]
		}
		if physical {
			plans = append(plans, p)
		}
	}
	return plans
}

// shapeCollisions counts the simplified plans whose shape key an
// earlier plan of the pool already had: the plans ExecutablePool
// canonicalizes.
func shapeCollisions(plans []*core.Query) int {
	seen := map[uint64]bool{}
	n := 0
	for _, p := range plans {
		k := planrewrite.SimplifyLookups(p).ShapeKey()
		if seen[k] {
			n++
		}
		seen[k] = true
	}
	return n
}

// checkSamePool fails unless got and want hold the same plans in the
// same order, rendered byte for byte.
func checkSamePool(t *testing.T, label string, got, want []*core.Query) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d executable plans, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if g, w := got[i].String(), want[i].String(); g != w {
			t.Fatalf("%s: executable plan %d differs\ngot:       %s\nreference: %s", label, i, g, w)
		}
	}
}

// experimentRequests lists the optimizer inputs of E1–E20: every query,
// dependency set and physical restriction an experiment optimizes, or
// whose backchase pool it ranks (E3, E6, E7, E9, E13–E15).
func experimentRequests(t *testing.T) []LoadQuery {
	t.Helper()
	var reqs []LoadQuery
	add := func(name string, q *core.Query, deps []*core.Dependency, phys map[string]bool) {
		reqs = append(reqs, LoadQuery{Name: name, Req: service.Request{Query: q, Deps: deps, PhysicalNames: phys}})
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	add("E1 ProjDept physical", pd.Q, pd.AllDeps(), pd.Physical.NameSet())
	add("E8/E11 ProjDept", pd.Q, pd.AllDeps(), nil)
	for n := 3; n <= 7; n++ {
		add(fmt.Sprintf("E3 redundant chain n=%d", n), redundantChain(n), nil, nil)
	}
	io, err := workload.NewIndexOnly(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	add("E4 index-only", io.Q, io.Deps, nil)
	vi, err := workload.NewViewIndex()
	if err != nil {
		t.Fatal(err)
	}
	add("E5/E10 view+index", vi.Q, vi.Deps, nil)
	for n := 2; n <= 5; n++ {
		c, err := workload.NewChain(n, n-1)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("E6/E7/E9 chain n=%d", n), c.Q, c.Deps, nil)
	}
	for _, wl := range e18Workloads() {
		s, err := workload.NewStar(wl.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		add("E18 "+wl.Name, s.Q, s.Deps, s.Physical.NameSet())
	}
	mixes := map[string]func() ([]LoadQuery, error){
		"E13–E16/E20": ServeMix, // e13Workloads, also e20Shapes
		"E16 small":   smallServeMix,
		"E17":         E17Mix,
	}
	for _, label := range []string{"E13–E16/E20", "E16 small", "E17"} {
		mix, err := mixes[label]()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mix {
			reqs = append(reqs, LoadQuery{Name: label + " " + m.Name, Req: m.Req})
		}
	}
	e19, err := e19Setup()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range e19.Mix {
		reqs = append(reqs, LoadQuery{Name: "E19 " + m.Name, Req: m.Req})
	}
	return reqs
}

// TestExecutablePoolMatchesReference: on every optimizer input of
// E1–E20, with and without MinimalOnly, Optimize's Executable is exactly
// the all-canonical reference deduplication of its pool.
func TestExecutablePoolMatchesReference(t *testing.T) {
	plans, collisions, dropped := 0, 0, 0
	for _, r := range experimentRequests(t) {
		for _, minimalOnly := range []bool{false, true} {
			label := fmt.Sprintf("%s (MinimalOnly=%v)", r.Name, minimalOnly)
			opts := optimizer.Options{Deps: r.Req.Deps, PhysicalNames: r.Req.PhysicalNames, MinimalOnly: minimalOnly}
			res, err := optimizer.Optimize(r.Req.Query, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			pool := optimizerPool(res, opts)
			checkSamePool(t, label, res.Executable, referenceExecutablePool(pool))
			plans += len(pool)
			collisions += shapeCollisions(pool)
			dropped += len(pool) - len(res.Executable)
		}
	}
	t.Logf("%d pool plans, %d shape-key collisions, %d isomorphic duplicates dropped", plans, collisions, dropped)
}

// TestExecutablePoolSelfJoinCollisions drives the canonical path on
// purpose: a hand-built self-join pool whose plans share shape keys,
// holding isomorphic duplicates (renamed, shuffled, with a flipped or
// duplicated condition, or isomorphic only once a guarded lookup is
// simplified) next to non-isomorphic plans of the same shape.
func TestExecutablePoolSelfJoinCollisions(t *testing.T) {
	v, n, prj := core.V, core.Name, core.Prj
	selfJoin := func(x, y, a, b string, flip bool) *core.Query {
		c := core.Cond{L: prj(v(x), a), R: prj(v(y), b)}
		if flip {
			c = core.Cond{L: c.R, R: c.L}
		}
		return &core.Query{
			Out:      core.Struct(core.SF("C", prj(v(x), "C"))),
			Bindings: []core.Binding{{Var: x, Range: n("R")}, {Var: y, Range: n("R")}},
			Conds:    []core.Cond{c},
		}
	}
	dup := selfJoin("r", "s", "B", "A", false)
	dup.Conds = append(dup.Conds, core.Cond{L: dup.Conds[0].R, R: dup.Conds[0].L})
	shuffled := selfJoin("q", "p", "A", "B", true)
	shuffled.Bindings[0], shuffled.Bindings[1] = shuffled.Bindings[1], shuffled.Bindings[0]
	guarded := &core.Query{ // simplifies to SI{"c"} t
		Out: prj(v("t"), "A"),
		Bindings: []core.Binding{
			{Var: "k", Range: core.Dom(n("SI"))},
			{Var: "t", Range: core.Lk(n("SI"), v("k"))},
		},
		Conds: []core.Cond{{L: v("k"), R: core.C("c")}},
	}
	direct := &core.Query{
		Out:      prj(v("u"), "A"),
		Bindings: []core.Binding{{Var: "u", Range: core.LkNF(n("SI"), core.C("c"))}},
	}
	pool := []*core.Query{
		selfJoin("x", "y", "A", "B", false), // kept
		selfJoin("x", "y", "B", "A", false), // same shape, not isomorphic: kept
		selfJoin("y", "x", "A", "B", true),  // renamed and flipped copy of 0
		dup,                                 // copy of 1 with a duplicated condition
		selfJoin("x", "y", "A", "A", false), // same shape, not isomorphic: kept
		shuffled,                            // renamed, shuffled copy of 0
		selfJoin("s", "r", "A", "A", true),  // copy of 4
		guarded,                             // kept
		direct,                              // copy of 7 once 7 is simplified
	}
	for i, p := range pool {
		if err := p.Validate(); err != nil {
			t.Fatalf("pool plan %d: %v", i, err)
		}
	}
	// Plans 1, 2, 3 and 5 land in plan 0's bucket, 6 in 4's and 8 in 7's:
	// x.A = y.B and x.B = y.A share a shape, x.A = y.A does not.
	if c := shapeCollisions(pool); c != 6 {
		t.Fatalf("%d shape-key collisions, want 6: the pool no longer exercises the canonical path", c)
	}
	want := referenceExecutablePool(pool)
	if len(want) != 4 {
		t.Fatalf("reference keeps %d plans, want 4", len(want))
	}
	checkSamePool(t, "self-join pool", optimizer.ExecutablePool(pool), want)
	for _, rot := range []int{1, 4, 7} {
		rotated := append(append([]*core.Query(nil), pool[rot:]...), pool[:rot]...)
		checkSamePool(t, fmt.Sprintf("self-join pool rotated by %d", rot),
			optimizer.ExecutablePool(rotated), referenceExecutablePool(rotated))
	}
}
