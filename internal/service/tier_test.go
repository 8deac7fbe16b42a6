package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cnb/internal/core"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

// coldStarRequest builds a cold star shape whose exhaustive backchase
// takes ~100ms+ — far above the tiny tier budgets used here, so a
// budgeted request deterministically misses the flight.
func coldStarRequest(t *testing.T) Request {
	t.Helper()
	st, err := workload.NewStar(workload.StarConfig{
		Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Request{Query: st.Q, Deps: st.Deps, PhysicalNames: st.Physical.NameSet()}
}

// waitCounter polls the counter selector until it reaches want or the
// deadline passes.
func waitCounter(t *testing.T, svc *Service, want int64, sel func(Counters) int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for sel(svc.Counters()) < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := sel(svc.Counters()); got < want {
		t.Fatalf("counter stuck at %d, want %d", got, want)
	}
}

// waitGoroutines polls until the goroutine count returns to the
// baseline, the leak-check idiom of engine/stream_test.go extended to
// detached flights.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestTieredColdServesGreedyThenUpgrades: the tentpole contract end to
// end. A cold request under a 2ms budget is answered by the greedy tier;
// the detached flight lands, upgrades the cache, and the next request
// serves the backchase plan — at exactly the cost a fully synchronous
// service computes for the same request.
func TestTieredColdServesGreedyThenUpgrades(t *testing.T) {
	req := coldStarRequest(t)
	before := runtime.NumGoroutine()

	svc := New(Options{MinimalOnly: true, MaxPlanLatency: 2 * time.Millisecond})
	resp, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tier != TierGreedy {
		t.Fatalf("cold tier = %q, want %q", resp.Tier, TierGreedy)
	}
	if resp.Upgraded {
		t.Fatal("greedy response claims Upgraded")
	}
	if resp.Result.Best == nil || resp.Result.Best.Query == nil {
		t.Fatal("greedy response has no plan")
	}
	if err := resp.Result.Best.Query.Validate(); err != nil {
		t.Fatalf("greedy plan invalid: %v", err)
	}
	if c := svc.Counters(); c.GreedyServed != 1 {
		t.Fatalf("GreedyServed = %d, want 1", c.GreedyServed)
	}

	waitCounter(t, svc, 1, func(c Counters) int64 { return c.Upgraded })

	up, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if up.Tier != TierBackchase || !up.CacheHit || !up.Upgraded {
		t.Fatalf("post-upgrade response: tier=%q cacheHit=%v upgraded=%v, want backchase/true/true",
			up.Tier, up.CacheHit, up.Upgraded)
	}

	sync := New(Options{MinimalOnly: true})
	want, err := sync.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if up.Result.Best.Cost != want.Result.Best.Cost {
		t.Fatalf("upgraded cost %.6f != synchronous cost %.6f", up.Result.Best.Cost, want.Result.Best.Cost)
	}
	waitGoroutines(t, before)
}

// TestDetachedFlightSurvivesCallerCancellation: under tiered serving,
// cancelling the only caller mid-flight must not cancel the flight — it
// lands detached and populates the plan cache — and must not leak its
// goroutine once landed.
func TestDetachedFlightSurvivesCallerCancellation(t *testing.T) {
	req := coldStarRequest(t)
	before := runtime.NumGoroutine()

	svc := New(Options{MinimalOnly: true, MaxPlanLatency: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := svc.Optimize(ctx, req)
	cancel()
	if err == nil {
		t.Log("flight landed before the cancel (fast machine); survival check still applies")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error class: %v", err)
	}

	// The detached flight must land on its own and leave a warm cache
	// entry; no greedy response was served, so no upgrade is recorded.
	resp, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tier != TierBackchase || resp.Result.Best == nil {
		t.Fatalf("post-cancel response: tier=%q, want a backchase plan", resp.Tier)
	}
	if c := svc.Counters(); c.Upgraded != 0 || c.GreedyServed != 0 {
		t.Fatalf("counters after cancel-only run: %+v, want no greedy/upgrades", c)
	}
	if c := svc.Counters(); c.Flights != 1 {
		t.Fatalf("Flights = %d, want 1 (second request must reuse the detached flight or its cache entry)", c.Flights)
	}
	waitGoroutines(t, before)
}

// TestTieredStormCoalescesOntoOneFlight: 8 concurrent cold requests
// under a tiny budget all get the greedy tier, yet start exactly one
// detached flight — and that single flight records exactly one upgrade.
func TestTieredStormCoalescesOntoOneFlight(t *testing.T) {
	req := coldStarRequest(t)
	before := runtime.NumGoroutine()

	const storm = 8
	svc := New(Options{MinimalOnly: true, MaxPlanLatency: 2 * time.Millisecond})
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
	)
	start.Add(1)
	tiers := make([]Tier, storm)
	errs := make([]error, storm)
	for i := 0; i < storm; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, err := svc.Optimize(context.Background(), req)
			if err != nil {
				errs[i] = err
				return
			}
			tiers[i] = resp.Tier
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 0; i < storm; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if tiers[i] != TierGreedy {
			t.Fatalf("request %d tier = %q, want greedy", i, tiers[i])
		}
	}
	c := svc.Counters()
	if c.Flights != 1 {
		t.Fatalf("Flights = %d, want 1", c.Flights)
	}
	if c.GreedyServed != storm {
		t.Fatalf("GreedyServed = %d, want %d", c.GreedyServed, storm)
	}
	waitCounter(t, svc, 1, func(c Counters) int64 { return c.Upgraded })
	if c := svc.Counters(); c.Upgraded != 1 {
		t.Fatalf("Upgraded = %d, want exactly 1", c.Upgraded)
	}
	checkPartition(t, svc)
	waitGoroutines(t, before)
}

// TestWarmShapeUnaffectedByBudget: a budget above the warm-path latency
// never triggers the greedy tier — the cold request lands inside the
// generous budget and the warm hit is served from the cache as before.
func TestWarmShapeUnaffectedByBudget(t *testing.T) {
	req, _ := projDeptRequest(t)
	svc := New(Options{MinimalOnly: true, MaxPlanLatency: 30 * time.Second})
	first, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tier != TierBackchase {
		t.Fatalf("cold tier under generous budget = %q, want backchase", first.Tier)
	}
	warm, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Tier != TierBackchase || !warm.CacheHit || warm.Upgraded {
		t.Fatalf("warm response: tier=%q cacheHit=%v upgraded=%v, want backchase/true/false",
			warm.Tier, warm.CacheHit, warm.Upgraded)
	}
	if c := svc.Counters(); c.GreedyServed != 0 || c.Upgraded != 0 {
		t.Fatalf("tier counters moved on warm path: %+v", c)
	}
}

// customerRequest is the ProjDept query over the customer name c: one
// cold shape per distinct c.
func customerRequest(t *testing.T, c string) Request {
	t.Helper()
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	q := pd.Q.Clone()
	for i, cd := range q.Conds {
		if cd.R.Kind == core.KConst {
			q.Conds[i].R = core.C(c)
		}
	}
	return Request{Query: q, Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}
}

// TestDetachedFlightsShareSlots: under a latency budget, every flight
// optimizes serially inside the service-wide slots — never more at once than the semaphore holds, each with one
// backchase worker — and a flight finding every slot taken is counted in
// SlotWaits. A synchronous service takes no slot and keeps its
// Parallelism.
func TestDetachedFlightsShareSlots(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	running, peak := 0, 0
	var workers []int
	blocking := func(ctx context.Context, q *core.Query, o optimizer.Options) (*optimizer.Result, error) {
		mu.Lock()
		running++
		peak = max(peak, running)
		workers = append(workers, o.Parallelism)
		mu.Unlock()
		<-release
		mu.Lock()
		running--
		mu.Unlock()
		return optimizer.OptimizeContext(ctx, q, o)
	}

	svc := New(Options{MinimalOnly: true, Parallelism: 4, MaxPlanLatency: time.Millisecond})
	svc.optimize = blocking
	slots := cap(svc.slots)
	shapes := slots + 2
	for i := 0; i < shapes; i++ {
		resp, err := svc.Optimize(context.Background(), customerRequest(t, fmt.Sprintf("C%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Tier != TierGreedy {
			t.Fatalf("shape %d: tier %q, want greedy", i, resp.Tier)
		}
	}
	waitCounter(t, svc, int64(shapes-slots), func(c Counters) int64 { return c.SlotWaits })
	waitUntil(t, "every slot taken", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return running == slots
	})
	close(release)
	waitCounter(t, svc, int64(shapes), func(c Counters) int64 { return c.Upgraded })
	mu.Lock()
	if peak != slots {
		t.Errorf("peak concurrent flights = %d, want the %d slots", peak, slots)
	}
	for _, w := range workers {
		if w != 1 {
			t.Errorf("detached-capable flight ran with Parallelism %d, want 1", w)
		}
	}
	mu.Unlock()
	if c := svc.Counters(); c.SlotWaits != int64(shapes-slots) {
		t.Errorf("SlotWaits = %d, want %d", c.SlotWaits, shapes-slots)
	}

	syncSvc := New(Options{MinimalOnly: true, Parallelism: 4})
	var syncWorkers []int
	syncSvc.optimize = func(ctx context.Context, q *core.Query, o optimizer.Options) (*optimizer.Result, error) {
		syncWorkers = append(syncWorkers, o.Parallelism)
		return optimizer.OptimizeContext(ctx, q, o)
	}
	if _, err := syncSvc.Optimize(context.Background(), customerRequest(t, "C0")); err != nil {
		t.Fatal(err)
	}
	if len(syncWorkers) != 1 || syncWorkers[0] != 4 || syncSvc.Counters().SlotWaits != 0 {
		t.Errorf("synchronous flight: Parallelism %v, SlotWaits %d; want [4], 0", syncWorkers, syncSvc.Counters().SlotWaits)
	}
}

// TestEvictedShapeTakesBudgetedWaitAgain: under a budget the plan table
// is the only memory of a shape that landed, so a shape whose entry was
// evicted is cold again — a greedy response from the budgeted wait, a
// second backchase run and a second upgrade. Each flight blocks until
// the test releases it, so every budget expires before its flight lands
// and no step depends on timing.
func TestEvictedShapeTakesBudgetedWaitAgain(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var costs []float64
	blocking := func(ctx context.Context, q *core.Query, o optimizer.Options) (*optimizer.Result, error) {
		<-gate
		r, err := optimizer.OptimizeContext(ctx, q, o)
		if err == nil {
			mu.Lock()
			costs = append(costs, r.Best.Cost)
			mu.Unlock()
		}
		return r, err
	}
	svc := New(Options{MinimalOnly: true, CacheSize: 1, MaxPlanLatency: time.Millisecond})
	svc.optimize = blocking
	a, b := customerRequest(t, "A"), customerRequest(t, "B")

	// cold serves one shape cold: a greedy response, then the released
	// flight's upgrade, the n-th of the run.
	cold := func(name string, req Request, n int64) {
		t.Helper()
		resp, err := svc.Optimize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Tier != TierGreedy || resp.CacheHit {
			t.Fatalf("cold %s: tier %q, cache hit %v; want a greedy miss", name, resp.Tier, resp.CacheHit)
		}
		gate <- struct{}{}
		waitCounter(t, svc, n, func(c Counters) int64 { return c.Upgraded })
	}

	cold("A", a, 1)
	cold("B", b, 2)
	if cc := svc.CacheCounters(); cc.Evictions != 1 || svc.CacheLen() != 1 {
		t.Fatalf("after B: %d evictions, %d entries; want B's upgrade to evict A", cc.Evictions, svc.CacheLen())
	}
	cold("A", a, 3)
	if c := svc.Counters(); c.BackchaseRuns != 3 || c.GreedyServed != 3 {
		t.Fatalf("after A again: %d backchase runs, %d greedy responses; want 3 and 3", c.BackchaseRuns, c.GreedyServed)
	}

	hit, err := svc.Optimize(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Tier != TierBackchase || !hit.CacheHit || !hit.Upgraded {
		t.Fatalf("warm A: tier %q, cache hit %v, upgraded %v; want an upgraded backchase hit", hit.Tier, hit.CacheHit, hit.Upgraded)
	}
	mu.Lock()
	first := costs[0]
	mu.Unlock()
	if hit.Result.Best.Cost != first {
		t.Fatalf("warm A cost %v, want the first run's %v", hit.Result.Best.Cost, first)
	}
	if c := svc.Counters(); c.Flights != 3 || c.BackchaseRuns != 3 {
		t.Fatalf("the hit started work: %d flights, %d backchase runs; want 3 and 3", c.Flights, c.BackchaseRuns)
	}
	checkPartition(t, svc)
}
