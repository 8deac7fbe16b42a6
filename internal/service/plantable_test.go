package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

// testEntry is a plan table entry with an empty result, for the
// table-level tests.
func testEntry(key string) *planEntry {
	return newPlanEntry(key, &optimizer.Result{}, "")
}

// store runs e's shape through the table the way a request does: a
// lookup that misses starts a flight, which publishes e. It returns the
// entry the table serves for the key — the stored one when the lookup
// hits.
func store(tab *planTable, e *planEntry) *planEntry {
	hit, f, owner := tab.lookup(context.Background(), e.key)
	if hit != nil {
		return hit
	}
	if !owner {
		panic("store: joined another caller's flight")
	}
	tab.publish(f, e, nil)
	return e
}

// get looks key up, returning its stored entry or nil. A miss leaves no
// flight behind.
func get(tab *planTable, key string) *planEntry {
	e, f, _ := tab.lookup(context.Background(), key)
	if f != nil {
		tab.publish(f, nil, errors.New("probe"))
	}
	return e
}

// TestPlanTableEvictsWhenFull: the entry cap evicts rather than grows.
func TestPlanTableEvictsWhenFull(t *testing.T) {
	tab := newPlanTable(2)
	for _, k := range []string{"a", "b", "c"} {
		store(tab, testEntry(k))
	}
	if n := tab.size(); n != 2 {
		t.Fatalf("table holds %d entries, want 2", n)
	}
	if c := tab.counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
}

// TestPlanTableLRUSingleShard pins the exact LRU and counter semantics
// on a single shard: a hit refreshes recency, so the untouched entry is
// the victim; a stored shape is a hit, never a second flight; every
// lookup is exactly one hit or one miss.
func TestPlanTableLRUSingleShard(t *testing.T) {
	tab := newPlanTable(2)
	a := store(tab, testEntry("a"))
	store(tab, testEntry("b"))
	if got := get(tab, "a"); got != a {
		t.Fatal("lookup returned a different entry than the one stored")
	}
	if again := store(tab, testEntry("a")); again != a {
		t.Fatal("a stored shape must serve (and keep) its first entry")
	}
	store(tab, testEntry("c")) // evicts b, the least recently used
	if get(tab, "b") != nil {
		t.Fatal("b should have been evicted")
	}
	if get(tab, "a") == nil || get(tab, "c") == nil {
		t.Fatal("a and c must survive")
	}
	if c := tab.counters(); c.Hits != 4 || c.Misses != 4 || c.Evictions != 1 {
		t.Fatalf("counters = %+v, want 4 hits, 4 misses, 1 eviction", c)
	}
}

// TestPlanTableSmallSizeSingleShard: a small bounded table collapses to
// few shards so no shard drops below minShardCapacity, and the shard
// capacities always sum to exactly the configured bound.
func TestPlanTableSmallSizeSingleShard(t *testing.T) {
	if n := len(newPlanTable(4).shards); n != 1 {
		t.Fatalf("4-entry table has %d shards, want 1", n)
	}
	for _, size := range []int{4, 9, 100, 1000, 1024} {
		tab := newPlanTable(size)
		total := 0
		for _, s := range tab.shards {
			if s.maxEntries < minShardCapacity && len(tab.shards) > 1 {
				t.Errorf("size %d: shard capacity %d below %d", size, s.maxEntries, minShardCapacity)
			}
			total += s.maxEntries
		}
		if total != size {
			t.Errorf("size %d: shard capacities sum to %d", size, total)
		}
	}
	if n := len(newPlanTable(-1).shards); n != DefaultCacheShards {
		t.Errorf("unbounded table has %d shards, want %d", n, DefaultCacheShards)
	}
}

// TestPlanTableConcurrentAccess hammers lookup/publish/wait across
// shards (meaningful under -race) and checks the bound holds throughout.
func TestPlanTableConcurrentAccess(t *testing.T) {
	tab := newPlanTable(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%200)
				if e, f, owner := tab.lookup(context.Background(), key); e == nil {
					if owner {
						tab.publish(f, testEntry(key), nil)
					} else {
						tab.wait(context.Background(), f, noBudget)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := tab.size(); n > 64 {
		t.Fatalf("table grew to %d entries past its 64 bound", n)
	}
}

// TestPlanTableKeySensitivity: the flight key — and with it the plan
// table entry — separates requests that differ in the dependency set or
// the physical restriction, and nothing else: an alpha-renamed query
// shares the key.
func TestPlanTableKeySensitivity(t *testing.T) {
	req, _ := projDeptRequest(t)
	base := flightKey(req)

	renamed := req
	renamed.Query = req.Query.RenameVars(func(v string) string { return "q2_" + v })
	if flightKey(renamed) != base {
		t.Error("alpha-renamed query must share the key")
	}
	fewerDeps := req
	fewerDeps.Deps = req.Deps[1:]
	if flightKey(fewerDeps) == base {
		t.Error("key ignores the dependency set")
	}
	noPhys := req
	noPhys.PhysicalNames = nil
	if flightKey(noPhys) == base {
		t.Error("key ignores the physical restriction")
	}
	otherPhys := req
	otherPhys.PhysicalNames = map[string]bool{"Proj": true}
	if flightKey(otherPhys) == base {
		t.Error("key ignores which physical names are allowed")
	}

	// End to end on a cheap shape: each variation is a miss of its own,
	// and repeating one is a hit.
	scan := &core.Query{
		Out:      core.Prj(core.V("r"), "A"),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
	}
	svc := New(Options{})
	ctx := context.Background()
	for _, r := range []Request{
		{Query: scan},
		{Query: scan, PhysicalNames: map[string]bool{"R": true}},
		{Query: scan, Deps: req.Deps[:1]},
		{Query: scan},
	} {
		if _, err := svc.Optimize(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if c := svc.CacheCounters(); c.Misses != 3 || c.Hits != 1 {
		t.Fatalf("cache counters = %+v, want 3 misses and 1 hit", c)
	}
}

// TestPlanTableSkipsTruncatedRuns: errored and truncated optimizer runs
// are served (or reported) but never stored.
func TestPlanTableSkipsTruncatedRuns(t *testing.T) {
	req, _ := projDeptRequest(t)
	failing := New(Options{Chase: chase.Options{MaxSteps: 1}})
	if _, err := failing.Optimize(context.Background(), req); err == nil {
		t.Fatal("a 1-step chase budget must fail the flight")
	}
	if n := failing.CacheLen(); n != 0 {
		t.Fatalf("errored run stored %d entries", n)
	}

	tab := newPlanTable(0)
	_, f, _ := tab.lookup(context.Background(), "truncated")
	tab.publish(f, newPlanEntry("truncated", &optimizer.Result{Truncated: true}, ""), nil)
	if e, landed, err := tab.wait(context.Background(), f, noBudget); e == nil || !landed || err != nil {
		t.Fatalf("a truncated run must still yield an entry to serve: e=%v landed=%v err=%v", e, landed, err)
	}
	if n := tab.size(); n != 0 {
		t.Fatalf("truncated run stored %d entries", n)
	}
	store(tab, testEntry("complete"))
	if n := tab.size(); n != 1 {
		t.Fatalf("complete run stored %d entries, want 1", n)
	}
}

// TestPlanTableHitOnRepeat: a warm request does no work. Ten Optimize
// and ten Query hits move neither the chase counters nor the flight or
// backchase counts, and every hit returns the stored entry's ranked
// candidates unchanged — the very slice the first request received.
func TestPlanTableHitOnRepeat(t *testing.T) {
	svc, req, _ := projDeptQuerySetup(t, "pd", workload.GenOptions{NumDepts: 10, ProjsPerDept: 4, CitiBankShare: 0.3, Seed: 1})
	ctx := context.Background()
	cold, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first request cannot be a hit")
	}
	if cold.Result.Explored != nil {
		t.Error("the stored result must not keep the explored lattice")
	}
	want := cold.Result.Candidates
	chaseRuns := svc.ChaseMetrics().Runs.Load()
	before := svc.Counters()

	same := func(what string, r *Response) {
		t.Helper()
		if !r.CacheHit {
			t.Fatalf("%s: not a cache hit", what)
		}
		got := r.Result.Candidates
		if len(got) != len(want) || &got[0] != &want[0] {
			t.Fatalf("%s: candidates differ from the stored entry's", what)
		}
	}
	for i := 0; i < 10; i++ {
		r, err := svc.Optimize(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		same("Optimize hit", r)
		qr, err := svc.Query(ctx, QueryRequest{Request: req, Instance: "pd"})
		if err != nil {
			t.Fatal(err)
		}
		same("Query hit", qr.Optimize)
	}
	if got := svc.ChaseMetrics().Runs.Load(); got != chaseRuns {
		t.Errorf("hits ran %d chases", got-chaseRuns)
	}
	after := svc.Counters()
	if after.Flights != before.Flights || after.BackchaseRuns != before.BackchaseRuns {
		t.Errorf("hits moved flights %d -> %d, backchase runs %d -> %d",
			before.Flights, after.Flights, before.BackchaseRuns, after.BackchaseRuns)
	}
	if c := svc.CacheCounters(); c.Hits != 20 || c.Misses != 1 {
		t.Errorf("cache counters = %+v, want 20 hits and 1 miss", c)
	}
}

// TestPlanTableHitAcrossRenaming: the table is keyed by the
// renaming-invariant signature, so an alpha-renamed repeat is a hit that
// runs no chase and serves the first request's plans.
func TestPlanTableHitAcrossRenaming(t *testing.T) {
	req, _ := projDeptRequest(t)
	svc := New(Options{})
	ctx := context.Background()
	first, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	chaseRuns := svc.ChaseMetrics().Runs.Load()
	renamed := req
	renamed.Query = req.Query.RenameVars(func(v string) string { return "q2_" + v })
	second, err := svc.Optimize(ctx, renamed)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("alpha-renamed repeat must hit the plan table")
	}
	if got := svc.ChaseMetrics().Runs.Load(); got != chaseRuns {
		t.Errorf("renamed hit ran %d chases", got-chaseRuns)
	}
	if second.Result.Best.Cost != first.Result.Best.Cost {
		t.Errorf("renamed hit best cost %v, first %v", second.Result.Best.Cost, first.Result.Best.Cost)
	}
}

// TestOptimizeReuseAcrossRenaming: optimizing an equivalent,
// alpha-renamed query through one service reuses the first run's
// optimization — one backchase for both, one table hit, and the same
// best plan — with no statistics configured.
func TestOptimizeReuseAcrossRenaming(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{})
	ctx := context.Background()
	req := Request{Query: pd.Q, Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}
	first, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first optimization must not be a hit")
	}
	renamed := req
	renamed.Query = pd.Q.RenameVars(func(s string) string { return "q2_" + s })
	second, err := svc.Optimize(ctx, renamed)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second optimization must reuse the first")
	}
	if second.Result.Best == nil || first.Result.Best == nil || second.Result.Best.Cost != first.Result.Best.Cost {
		t.Error("reused optimization chose a different best plan cost")
	}
	if c := svc.CacheCounters(); c.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", c.Hits)
	}
	if c := svc.Counters(); c.BackchaseRuns != 1 {
		t.Errorf("backchase runs = %d, want 1", c.BackchaseRuns)
	}
}

// TestStatsSwapExhaustiveHitReranks: a statistics swap keeps the
// entry; the first hit under the new snapshot re-ranks
// the stored (hash-consed) executable pool — no backchase — and yields
// exactly the candidates, costs and cards a fresh service started with
// the new statistics ranks.
// Later hits serve the new ranking without ranking again.
func TestStatsSwapExhaustiveHitReranks(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Query: pd.Q, Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}
	statsA := cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 30, ProjsPerDept: 8, CitiBankShare: 0.1, Seed: 1}))
	statsB := cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 60, ProjsPerDept: 5, CitiBankShare: 0.2, Seed: 2}))
	ctx := context.Background()

	svc := New(Options{Stats: statsA})
	if _, err := svc.Optimize(ctx, req); err != nil {
		t.Fatal(err)
	}
	svc.SetStats(statsB)
	if n := svc.CacheLen(); n != 1 {
		t.Fatalf("swap left %d entries, want the 1 stored", n)
	}
	// Concurrent first hits may each re-rank; all must agree.
	hits := make([]*Response, 4)
	errs := make([]error, len(hits))
	var wg sync.WaitGroup
	for i := range hits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hits[i], errs[i] = svc.Optimize(ctx, req)
		}(i)
	}
	wg.Wait()
	if c := svc.Counters(); c.BackchaseRuns != 1 {
		t.Fatalf("backchase runs = %d, want 1", c.BackchaseRuns)
	}

	fresh, err := New(Options{Stats: statsB}).Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Result.Candidates
	for h, hit := range hits {
		if errs[h] != nil {
			t.Fatal(errs[h])
		}
		if !hit.CacheHit {
			t.Fatal("post-swap request must hit the kept entry")
		}
		got := hit.Result.Candidates
		if len(got) != len(want) {
			t.Fatalf("re-ranked %d candidates, fresh service ranks %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Query.String() != want[i].Query.String() || got[i].Cost != want[i].Cost || got[i].Card != want[i].Card {
				t.Fatalf("candidate %d: re-ranked %s @ %g (card %g), fresh %s @ %g (card %g)",
					i, got[i].Query, got[i].Cost, got[i].Card, want[i].Query, want[i].Cost, want[i].Card)
			}
		}
	}

	stored := get(svc.table, flightKey(req)).ranked.Load().res
	again, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Result.Candidates[0] != &stored.Candidates[0] {
		t.Error("a later post-swap hit ranked again instead of serving the stored ranking")
	}
}
