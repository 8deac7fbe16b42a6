package service

import (
	"fmt"
	"runtime"
	"testing"

	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

// projDeptResult optimizes the running example exhaustively under st,
// the way a flight does.
func projDeptResult(tb testing.TB, st *cost.Stats) *optimizer.Result {
	tb.Helper()
	pd, err := workload.NewProjDept()
	if err != nil {
		tb.Fatal(err)
	}
	r, err := optimizer.Optimize(pd.Q, optimizer.Options{
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
		Stats:         st,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// rendering is everything a result shows of its plans, in order.
type rendering struct {
	universal  string
	minimal    []string
	executable []string
	candidates []string
	costs      [][2]float64 // per candidate: cost, card
}

func render(r *optimizer.Result) rendering {
	out := rendering{universal: r.Universal.String()}
	for _, q := range r.Minimal {
		out.minimal = append(out.minimal, q.String())
	}
	for _, q := range r.Pool() {
		out.executable = append(out.executable, q.String())
	}
	for _, c := range r.Candidates {
		out.candidates = append(out.candidates, c.Query.String())
		out.costs = append(out.costs, [2]float64{c.Cost, c.Card})
	}
	return out
}

// sameRendering fails unless got renders exactly like want, plan for
// plan, with equal costs and cards.
func sameRendering(t *testing.T, got, want rendering) {
	t.Helper()
	if got.universal != want.universal {
		t.Fatalf("universal plan\n%s\nwant\n%s", got.universal, want.universal)
	}
	eq := func(what string, g, w []string) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%d %s plans, want %d", len(g), what, len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s plan %d:\n%s\nwant\n%s", what, i, g[i], w[i])
			}
		}
	}
	eq("minimal", got.minimal, want.minimal)
	eq("executable", got.executable, want.executable)
	eq("candidate", got.candidates, want.candidates)
	for i, w := range want.costs {
		if g := got.costs[i]; g != w {
			t.Fatalf("candidate %d: cost, card %v, want %v", i, g, w)
		}
	}
}

// resultQueries lists every plan a result holds.
func resultQueries(r *optimizer.Result) []*core.Query {
	qs := []*core.Query{r.Universal}
	qs = append(qs, r.Minimal...)
	qs = append(qs, r.Pool()...)
	for _, c := range r.Candidates {
		qs = append(qs, c.Query)
	}
	return qs
}

// TestPlanEntryHashConsed: a stored entry renders exactly like the
// flight's result, shares every repeated subterm across its plans as one
// node, and leaves the flight's result untouched.
func TestPlanEntryHashConsed(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	st := cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 30, ProjsPerDept: 8, CitiBankShare: 0.1, Seed: 1}))
	r := projDeptResult(t, st)
	want := render(r)
	flightQueries := resultQueries(r)
	flightBest := r.Best

	e := newPlanEntry("k", r, st.Fingerprint())
	stored := e.ranked.Load().res

	sameRendering(t, render(stored), want)
	if stored.Best != &stored.Candidates[0] {
		t.Fatal("stored Best does not point at the stored Candidates[0]")
	}
	if stored.Explored != nil {
		t.Fatal("stored entry kept the explored states")
	}

	// The flight's result: same plans, same pointers, same rendering.
	sameRendering(t, render(r), want)
	if r.Best != flightBest || r.Best != &r.Candidates[0] {
		t.Fatal("the flight's Best was re-pointed")
	}
	for i, q := range resultQueries(r) {
		if q != flightQueries[i] {
			t.Fatalf("the flight's plan %d was replaced", i)
		}
	}
	flightSet := map[*core.Query]bool{}
	for _, q := range flightQueries {
		flightSet[q] = true
	}

	// One node per distinct subterm across every stored plan.
	nodes := map[string]*core.Term{}
	var walk func(*core.Term)
	walk = func(u *core.Term) {
		if prev, ok := nodes[u.HashKey()]; ok {
			if prev != u {
				t.Fatalf("stored plans hold two nodes for %s", u)
			}
			return
		}
		nodes[u.HashKey()] = u
		switch u.Kind {
		case core.KProj, core.KDom:
			walk(u.Base)
		case core.KLookup:
			walk(u.Base)
			walk(u.Key)
		case core.KStruct:
			for _, f := range u.Fields {
				walk(f.Term)
			}
		}
	}
	for _, q := range resultQueries(stored) {
		if flightSet[q] {
			t.Fatal("a stored plan is the flight's own query value")
		}
		walk(q.Out)
		for _, b := range q.Bindings {
			walk(b.Range)
		}
		for _, c := range q.Conds {
			walk(c.L)
			walk(c.R)
		}
	}
}

// sameQuery reports whether two queries are Equal binding for binding,
// condition for condition and in their outputs.
func sameQuery(a, b *core.Query) bool {
	if !a.Out.Equal(b.Out) || len(a.Bindings) != len(b.Bindings) || len(a.Conds) != len(b.Conds) {
		return false
	}
	for i, bd := range a.Bindings {
		if bd.Var != b.Bindings[i].Var || !bd.Range.Equal(b.Bindings[i].Range) {
			return false
		}
	}
	for i, c := range a.Conds {
		if !c.L.Equal(b.Conds[i].L) || !c.R.Equal(b.Conds[i].R) {
			return false
		}
	}
	return true
}

// samePool fails unless pool is Equal, plan for plan and in order, to
// want.
func samePool(t *testing.T, what string, pool, want []*core.Query) {
	t.Helper()
	if len(pool) != len(want) {
		t.Fatalf("%s: %d pool plans, want %d", what, len(pool), len(want))
	}
	for i := range want {
		if !sameQuery(pool[i], want[i]) {
			t.Fatalf("%s: pool plan %d\n%s\nwant\n%s", what, i, pool[i], want[i])
		}
	}
}

// TestPlanEntryPoolRebuilds: a stored entry keeps its executable pool
// only as its candidates' binding orders, and the pool it rebuilds is
// Equal, in order, to the flight's Executable.
func TestPlanEntryPoolRebuilds(t *testing.T) {
	r := projDeptResult(t, nil)
	stored := newPlanEntry("k", r, "").ranked.Load().res
	if stored.Executable != nil {
		t.Fatal("the stored entry keeps the executable pool's plans")
	}
	samePool(t, "stored", stored.Pool(), r.Executable)
}

// TestPlanEntryRerankMatchesPool: re-ranking a stored entry under two
// different statistics snapshots gives exactly the candidates ranking
// the flight's own pool gives, and the re-ranked result stays compact
// and rebuilds the same pool.
func TestPlanEntryRerankMatchesPool(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	r := projDeptResult(t, nil)
	stored := newPlanEntry("k", r, "").ranked.Load().res
	for i, st := range []*cost.Stats{
		cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 30, ProjsPerDept: 8, CitiBankShare: 0.1, Seed: 1})),
		cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 400, ProjsPerDept: 2, CitiBankShare: 0.9, Seed: 2})),
	} {
		got, want := stored.Rerank(st), r.Rerank(st)
		what := fmt.Sprintf("snapshot %d", i)
		sameRendering(t, render(got), render(want))
		for j, c := range got.Candidates {
			if c.Pool != want.Candidates[j].Pool {
				t.Fatalf("%s: candidate %d reorders pool plan %d, want %d", what, j, c.Pool, want.Candidates[j].Pool)
			}
		}
		if got.Executable != nil {
			t.Fatalf("%s: re-ranking a stored entry expanded its pool", what)
		}
		samePool(t, what, got.Pool(), r.Executable)
	}
}

// BenchmarkPlanEntryRetained reports the heap a stored plan table entry
// keeps alive (retained_B/entry): each iteration optimizes ProjDept, as a
// cold flight does, and stores only the entry.
func BenchmarkPlanEntryRetained(b *testing.B) {
	projDeptResult(b, nil) // first-use allocations are not the entry's
	entries := make([]*planEntry, 0, b.N)
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		entries = append(entries, newPlanEntry("k", projDeptResult(b, nil), ""))
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(b.N), "retained_B/entry")
	runtime.KeepAlive(entries)
}
