package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

// projDeptRequest builds the running example's request and an instance
// statistics snapshot.
func projDeptRequest(t *testing.T) (Request, *cost.Stats) {
	t.Helper()
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 30, ProjsPerDept: 8, CitiBankShare: 0.1, Seed: 1})
	return Request{
		Query:         pd.Q,
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
	}, cost.FromInstance(in)
}

// scanRequest is a one-binding scan of rel: a distinct, cheap shape per
// relation name.
func scanRequest(rel string) Request {
	return Request{Query: &core.Query{
		Out:      core.Prj(core.V("r"), "A"),
		Bindings: []core.Binding{{Var: "r", Range: core.Name(rel)}},
	}}
}

// checkPartition asserts that every accepted request was exactly one of
// a plan table hit, a miss (the flight's owner) or a coalesced waiter,
// and that it had exactly one outcome: a response recorded in one tier
// histogram, or an error. Callers send no invalid query, so every error
// belongs to an accepted request.
func checkPartition(t *testing.T, svc *Service) {
	t.Helper()
	c, cc := svc.Counters(), svc.CacheCounters()
	if cc.Hits+cc.Misses+c.Coalesced != c.Requests {
		t.Fatalf("hits %d + misses %d + coalesced %d != requests %d", cc.Hits, cc.Misses, c.Coalesced, c.Requests)
	}
	h := svc.Histograms()
	if h.Greedy.Total+h.BackchaseSync.Total+h.BackchaseUpgraded.Total+c.Errors != c.Requests {
		t.Fatalf("greedy %d + backchase sync %d + backchase upgraded %d + errors %d != requests %d",
			h.Greedy.Total, h.BackchaseSync.Total, h.BackchaseUpgraded.Total, c.Errors, c.Requests)
	}
}

// TestSingleflightStorm: 8 concurrent requests for the identical query
// must trigger exactly one optimizer flight — and exactly one backchase —
// with the other 7 served as waiters sharing the owner's result. The
// chase work counter proves no hidden duplicate work: the storm performs
// exactly as many chase runs as one solo optimization.
func TestSingleflightStorm(t *testing.T) {
	req, _ := projDeptRequest(t)

	// Solo baseline: chase runs of exactly one optimization.
	solo := New(Options{})
	if _, err := solo.Optimize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	baselineRuns := solo.ChaseMetrics().Runs.Load()
	if baselineRuns == 0 {
		t.Fatal("solo optimization recorded no chase runs — metrics not threaded")
	}

	const storm = 8
	svc := New(Options{})
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		mu    sync.Mutex
		costs []float64
	)
	start.Add(1)
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
			mu.Lock()
			costs = append(costs, resp.Result.Best.Cost)
			mu.Unlock()
		}(i)
	}
	start.Done()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	c := svc.Counters()
	if c.Flights != 1 {
		t.Errorf("flights = %d, want exactly 1 for an %d-way identical storm", c.Flights, storm)
	}
	if c.BackchaseRuns != 1 {
		t.Errorf("backchase runs = %d, want exactly 1", c.BackchaseRuns)
	}
	if c.Coalesced != storm-1 {
		t.Errorf("coalesced = %d, want %d", c.Coalesced, storm-1)
	}
	if c.Requests != storm || c.Errors != 0 {
		t.Errorf("requests = %d errors = %d, want %d and 0", c.Requests, c.Errors, storm)
	}
	if got := svc.ChaseMetrics().Runs.Load(); got != baselineRuns {
		t.Errorf("storm performed %d chase runs, want the solo baseline %d", got, baselineRuns)
	}
	for _, cst := range costs {
		if cst != costs[0] {
			t.Errorf("waiters saw different best costs: %v", costs)
			break
		}
	}
}

// TestAlphaRenamedRequestsCoalesce: the flight key is the canonical
// renaming-invariant signature, so concurrent alpha-renamed variants of
// one query share a single flight.
func TestAlphaRenamedRequestsCoalesce(t *testing.T) {
	req, _ := projDeptRequest(t)
	renamed := req
	renamed.Query = req.Query.RenameVars(func(v string) string { return "zz_" + v })

	svc := New(Options{})
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make([]error, 2)
	for i, r := range []Request{req, renamed} {
		done.Add(1)
		go func(i int, r Request) {
			defer done.Done()
			start.Wait()
			_, errs[i] = svc.Optimize(context.Background(), r)
		}(i, r)
	}
	start.Done()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if c := svc.Counters(); c.Flights != 1 || c.Coalesced != 1 {
		t.Errorf("flights = %d coalesced = %d, want 1 and 1: alpha-renamed variants must share a flight", c.Flights, c.Coalesced)
	}
}

// TestAlphaRenamedShuffledRequestsCoalesce pins the canonicalization fix
// on the exact shape the old raw-name tie-break got wrong: an asymmetric
// self-join (two bindings over one relation, not interchangeable) under
// an order-REVERSING rename. Concurrent variants must share one flight,
// and a later renamed repeat must hit the plan cache instead of paying a
// second backchase.
func TestAlphaRenamedShuffledRequestsCoalesce(t *testing.T) {
	w, err := workload.NewIndexOnly(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	q := &core.Query{
		Out: core.Struct(
			core.SF("C1", core.Prj(core.V("r"), "C")),
			core.SF("C2", core.Prj(core.V("s"), "C")),
		),
		Bindings: []core.Binding{
			{Var: "r", Range: core.Name("R")},
			{Var: "s", Range: core.Name("R")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.Prj(core.V("s"), "B")}},
	}
	req := Request{Query: q, Deps: w.Deps}
	renamed := req
	// r -> z, s -> a: the new names sort in the opposite order, so a
	// binding-position tie-break keyed on raw names splits the pair.
	renamed.Query = q.RenameVars(func(v string) string {
		return map[string]string{"r": "z", "s": "a"}[v]
	})

	svc := New(Options{})
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make([]error, 2)
	for i, r := range []Request{req, renamed} {
		done.Add(1)
		go func(i int, r Request) {
			defer done.Done()
			start.Wait()
			_, errs[i] = svc.Optimize(context.Background(), r)
		}(i, r)
	}
	start.Done()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if c := svc.Counters(); c.Flights != 1 || c.Coalesced != 1 {
		t.Errorf("flights = %d coalesced = %d, want 1 and 1: order-reversed renames must share a flight", c.Flights, c.Coalesced)
	}

	// A sequential renamed repeat must be a plan-cache hit: still one
	// backchase run for the whole test.
	if _, err := svc.Optimize(context.Background(), renamed); err != nil {
		t.Fatal(err)
	}
	if c := svc.Counters(); c.BackchaseRuns != 1 {
		t.Errorf("backchase runs = %d after renamed repeat, want 1 (plan-cache hit)", c.BackchaseRuns)
	}
}

// waitUntil polls cond for up to 10s (generous: the race detector slows
// everything down).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// flightRefs reads the current waiter count of the (single) in-progress
// flight, 0 when none.
func flightRefs(s *Service) int {
	for _, sh := range s.table.shards {
		sh.mu.Lock()
		for _, rec := range sh.m {
			if rec.f != nil {
				refs := rec.f.refs
				sh.mu.Unlock()
				return refs
			}
		}
		sh.mu.Unlock()
	}
	return 0
}

// TestWaiterCancellationMidFlight: cancelling a waiter returns that
// waiter promptly with ctx.Err() while the flight owner keeps running to
// completion and stores a healthy cache entry.
func TestWaiterCancellationMidFlight(t *testing.T) {
	req, _ := projDeptRequest(t)
	svc := New(Options{})

	type outcome struct {
		resp *Response
		err  error
	}
	ownerCh := make(chan outcome, 1)
	go func() {
		resp, err := svc.Optimize(context.Background(), req)
		ownerCh <- outcome{resp, err}
	}()
	waitUntil(t, "owner flight to start", func() bool { return flightRefs(svc) >= 1 })

	wctx, wcancel := context.WithCancel(context.Background())
	waiterCh := make(chan outcome, 1)
	go func() {
		resp, err := svc.Optimize(wctx, req)
		waiterCh <- outcome{resp, err}
	}()
	waitUntil(t, "waiter to join the flight", func() bool { return flightRefs(svc) >= 2 })

	wcancel()
	select {
	case w := <-waiterCh:
		if !errors.Is(w.err, context.Canceled) {
			t.Errorf("cancelled waiter returned %v, want context.Canceled", w.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter did not return promptly")
	}

	o := <-ownerCh
	if o.err != nil {
		t.Fatalf("owner was cancelled along with the waiter: %v", o.err)
	}
	if o.resp.Result.Best == nil {
		t.Fatal("owner result has no best plan")
	}

	// The cache entry is healthy: the next request is a pure hit.
	resp, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("post-cancellation request must be served from the plan cache")
	}
	if c := svc.Counters(); c.BackchaseRuns != 1 {
		t.Errorf("backchase runs = %d, want 1 (owner's only)", c.BackchaseRuns)
	}
	checkPartition(t, svc)
}

// TestSingleflightStaggeredStorm: requests arriving just before, during
// and just after a flight publishes share its one optimizer run. The
// lookup-or-join is one locked step, so there is no window between "no
// entry stored" and "no flight live" in which a second flight could
// start. Repeated 200 times; meaningful under -race.
func TestSingleflightStaggeredStorm(t *testing.T) {
	req := scanRequest("R")
	const reps, callers = 200, 8
	var hits, coalesced int64
	for rep := range reps {
		svc := New(Options{})
		svc.optimize = func(context.Context, *core.Query, optimizer.Options) (*optimizer.Result, error) {
			time.Sleep(200 * time.Microsecond)
			return &optimizer.Result{}, nil
		}
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(i) * 50 * time.Microsecond)
				_, errs[i] = svc.Optimize(context.Background(), req)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("rep %d request %d: %v", rep, i, err)
			}
		}
		if c := svc.Counters(); c.BackchaseRuns != 1 || c.Flights != 1 {
			t.Fatalf("rep %d: backchase runs = %d, flights = %d, want 1 and 1", rep, c.BackchaseRuns, c.Flights)
		}
		checkPartition(t, svc)
		hits += svc.CacheCounters().Hits
		coalesced += svc.Counters().Coalesced
	}
	if hits == 0 || coalesced == 0 {
		t.Fatalf("the stagger never straddled a publish: %d hits, %d coalesced over %d reps", hits, coalesced, reps)
	}
}

// TestLastCallerCancellationAbortsFlight: when the only interested caller
// cancels, the flight itself is cancelled (no orphaned work) and nothing
// poisonous is cached — a retry recomputes cleanly.
func TestLastCallerCancellationAbortsFlight(t *testing.T) {
	req, _ := projDeptRequest(t)
	svc := New(Options{})

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := svc.Optimize(ctx, req)
		errCh <- err
	}()
	waitUntil(t, "flight to start", func() bool { return flightRefs(svc) >= 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("sole caller returned %v, want context.Canceled", err)
	}
	waitEmpty(t, svc.table)

	resp, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("retry after aborted flight: %v", err)
	}
	if resp.Result.Best == nil {
		t.Fatal("retry produced no best plan")
	}
	if resp.CacheHit {
		t.Error("aborted flight must not have cached anything")
	}
}

// TestSetStatsHotSwap: swapping the statistics snapshot keeps serving
// and keeps every plan table entry; the next hit serves the stored pool
// re-ranked under the new snapshot, and an equal-fingerprint swap
// changes nothing.
func TestSetStatsHotSwap(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Query: pd.Q, Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}
	statsA := cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 30, ProjsPerDept: 8, CitiBankShare: 0.1, Seed: 1}))
	statsB := cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 60, ProjsPerDept: 5, CitiBankShare: 0.2, Seed: 2}))
	if statsA.Fingerprint() == statsB.Fingerprint() {
		t.Fatal("test needs two distinct statistics snapshots")
	}

	svc := New(Options{Stats: statsA})
	ctx := context.Background()
	if _, err := svc.Optimize(ctx, req); err != nil {
		t.Fatal(err)
	}
	underA, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !underA.CacheHit {
		t.Fatal("repeat under stable stats must hit the plan cache")
	}

	svc.SetStats(statsB)
	if n := svc.CacheLen(); n != 1 {
		t.Fatalf("swap left %d entries, want the 1 stored", n)
	}
	underB, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !underB.CacheHit {
		t.Error("first request after the swap must hit the kept entry")
	}
	want := underA.Result.Rerank(statsB).Candidates
	got := underB.Result.Candidates
	if len(got) != len(want) {
		t.Fatalf("post-swap hit ranks %d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Query.String() != want[i].Query.String() || got[i].Cost != want[i].Cost {
			t.Fatalf("candidate %d: served %s @ %g, want %s @ %g", i, got[i].Query, got[i].Cost, want[i].Query, want[i].Cost)
		}
	}

	// Swapping to an equal-fingerprint snapshot serves the same ranking.
	statsB2 := cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 60, ProjsPerDept: 5, CitiBankShare: 0.2, Seed: 2}))
	svc.SetStats(statsB2)
	again, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Result != underB.Result {
		t.Error("equal-fingerprint swap must serve the stored ranking as it is")
	}

	if c := svc.Counters(); c.StatsSwaps != 2 || c.BackchaseRuns != 1 {
		t.Errorf("counters = %+v, want 2 stats swaps and 1 backchase run", c)
	}
}

// TestStatsSwapMidFlightLeavesNoStaleEntry: a SetStats landing while a
// flight is still running does not discard that flight's entry: it is
// stored ranked under the old snapshot, and the next request hits it and
// serves the pool re-ranked under the new one, exactly as a fresh
// service started with the new statistics ranks it.
func TestStatsSwapMidFlightLeavesNoStaleEntry(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Query: pd.Q, Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}
	statsA := cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 30, ProjsPerDept: 8, CitiBankShare: 0.1, Seed: 1}))
	statsB := cost.FromInstance(pd.Generate(workload.GenOptions{NumDepts: 60, ProjsPerDept: 5, CitiBankShare: 0.2, Seed: 2}))

	svc := New(Options{Stats: statsA})
	done := make(chan error, 1)
	go func() {
		_, err := svc.Optimize(context.Background(), req)
		done <- err
	}()
	waitUntil(t, "flight to start", func() bool { return flightRefs(svc) >= 1 })
	svc.SetStats(statsB)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := svc.CacheLen(); n != 1 {
		t.Errorf("cache holds %d entries after a mid-flight swap, want 1", n)
	}
	resp, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("request after a mid-flight swap must hit the flight's entry")
	}
	fresh, err := New(Options{Stats: statsB}).Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resp.Result.Best.Cost, fresh.Result.Best.Cost; got != want {
		t.Errorf("post-swap best cost %g, want %g (ranked under the new stats)", got, want)
	}
	if c := svc.Counters(); c.BackchaseRuns != 1 {
		t.Errorf("backchase runs = %d, want 1", c.BackchaseRuns)
	}
}

// TestStatsSwapFlipStorm: SetStats flipping between two snapshots, A/B/A,
// while flights for many shapes run and publish, drops no entry: every
// flight's entry is stored (or evicted by capacity), and once the storm
// ends on A every hit serves a ranking under A. Meaningful under -race.
func TestStatsSwapFlipStorm(t *testing.T) {
	statsA, statsB := cost.NewStats(), cost.NewStats()
	statsB.LookupCost = 2
	if statsA.Fingerprint() == statsB.Fingerprint() {
		t.Fatal("test needs two distinct statistics snapshots")
	}
	svc := New(Options{Stats: statsA})
	svc.optimize = func(context.Context, *core.Query, optimizer.Options) (*optimizer.Result, error) {
		time.Sleep(50 * time.Microsecond)
		return &optimizer.Result{}, nil
	}
	// Many shapes, so most requests start a flight rather than hit.
	const workers, flips, shapes = 4, 200, 1024
	var flipping atomic.Bool
	flipping.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; flipping.Load(); i++ {
				if _, err := svc.Optimize(context.Background(), scanRequest(fmt.Sprintf("R%d", (w*shapes/workers+i)%shapes))); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	// Flip B, A, B, ..., A; the workers stop only after the last swap,
	// so flights started under the old snapshot publish after it.
	for i := range flips {
		if i > 0 {
			time.Sleep(100 * time.Microsecond)
		}
		if i%2 == 0 {
			svc.SetStats(statsB)
		} else {
			svc.SetStats(statsA)
		}
	}
	flipping.Store(false)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if svc.Stats() != statsA {
		t.Fatal("the storm must end on snapshot A")
	}
	cc := svc.CacheCounters()
	if stored := int64(svc.CacheLen()) + cc.Evictions; stored != cc.Misses {
		t.Fatalf("%d flights but %d entries stored or evicted: a swap dropped entries", cc.Misses, stored)
	}
	snap := svc.stats.Load()
	for _, sh := range svc.table.shards {
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*planEntry)
			e.result(snap)
			if e.ranked.Load().fp != snap.fp {
				t.Fatalf("an entry served a ranking under another snapshot after the swap back to A (%d swaps)", svc.Counters().StatsSwaps)
			}
		}
	}
	checkPartition(t, svc)
}

// TestStatsSwapKeepsStatsFreeEntries: the backchase result does not
// depend on statistics (they only rank candidates), so a plan table
// entry survives every swap, including the revert to uniform defaults.
func TestStatsSwapKeepsStatsFreeEntries(t *testing.T) {
	req, statsA := projDeptRequest(t)
	svc := New(Options{Stats: statsA})
	ctx := context.Background()
	if _, err := svc.Optimize(ctx, req); err != nil {
		t.Fatal(err)
	}
	svc.SetStats(nil)
	if n := svc.CacheLen(); n != 1 {
		t.Errorf("swap left %d entries, want 1", n)
	}
	resp, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("the entry must serve across the swap")
	}
}

// TestChaseBudgetsThreadThrough: a service constructed with tight chase
// budgets propagates them into flights (ErrBudget surfaces as a request
// error, counted, not cached).
func TestChaseBudgetsThreadThrough(t *testing.T) {
	req, _ := projDeptRequest(t)
	svc := New(Options{Chase: chase.Options{MaxSteps: 1}})
	_, err := svc.Optimize(context.Background(), req)
	var budget *chase.ErrBudget
	if !errors.As(err, &budget) {
		t.Fatalf("want ErrBudget through the service, got %v", err)
	}
	if c := svc.Counters(); c.Errors != 1 {
		t.Errorf("errors = %d, want 1", c.Errors)
	}
	if svc.CacheLen() != 0 {
		t.Error("failed flight must not populate the plan cache")
	}
}
