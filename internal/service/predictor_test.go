package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestPredictorColdStart: an unknown shape family predicts nothing, and
// a service routes it to the classic budgeted wait.
func TestPredictorColdStart(t *testing.T) {
	p := NewLatencyPredictor(0)
	if _, ok := p.predict("never-seen"); ok {
		t.Fatal("cold predictor claims to know an unseen key")
	}
	if p.Len() != 0 {
		t.Fatalf("cold predictor Len = %d, want 0", p.Len())
	}

	svc := New(Options{MinimalOnly: true, MaxPlanLatency: 30 * time.Second})
	req, _ := projDeptRequest(t)
	resp, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TierReason != ReasonBudgeted {
		t.Fatalf("cold request reason = %q, want %q", resp.TierReason, ReasonBudgeted)
	}
	if c := svc.Counters(); c.BudgetedWaits != 1 || c.PredictedFast != 0 || c.PredictedSlow != 0 {
		t.Fatalf("cold-start counters: %+v", c)
	}
}

// TestPredictorEWMARules pins the update discipline: a first observation
// seeds the EWMA, and later ones average in with weight 1/2. Max tracks
// the worst case.
func TestPredictorEWMARules(t *testing.T) {
	p := NewLatencyPredictor(0)
	p.observe("k", 100*time.Millisecond)
	if got, ok := p.predict("k"); !ok || got != 100*time.Millisecond {
		t.Fatalf("after seed: ewma=%v ok=%v, want 100ms", got, ok)
	}
	p.observe("k", 200*time.Millisecond)
	if got, _ := p.predict("k"); got != 150*time.Millisecond {
		t.Fatalf("after averaging: ewma=%v, want 150ms", got)
	}
	p.observe("k", 2*time.Millisecond)
	if got, _ := p.predict("k"); got != 76*time.Millisecond {
		t.Fatalf("after a fast landing: ewma=%v, want 76ms", got)
	}
	e := p.shard("k").entries["k"]
	if e.max != 200*time.Millisecond {
		t.Fatalf("max=%v, want 200ms", e.max)
	}
	if e.samples != 3 {
		t.Fatalf("samples=%d, want 3", e.samples)
	}
}

// TestPredictorAbandonedFlightTrains: a detached flight whose only
// caller cancelled mid-wait still trains the predictor when it lands —
// the observation happens inside the flight, not on any caller's path.
func TestPredictorAbandonedFlightTrains(t *testing.T) {
	req := coldStarRequest(t)
	svc := New(Options{MinimalOnly: true, MaxPlanLatency: 10 * time.Second})
	key := flightKey(req)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := svc.Optimize(ctx, req)
	cancel()
	if err == nil {
		t.Log("flight landed before the cancel (fast machine); training check still applies")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error class: %v", err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := svc.predictor.predict(key); ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	ewma, ok := svc.predictor.predict(key)
	if !ok {
		t.Fatal("abandoned detached flight landed without training the predictor")
	}
	if ewma <= 0 {
		t.Fatalf("trained ewma = %v, want > 0", ewma)
	}
	if c := svc.Counters(); c.GreedyServed != 0 {
		t.Fatalf("GreedyServed = %d, want 0 (the caller cancelled, it was not served)", c.GreedyServed)
	}
}

// TestPredictorEvictionAtCapacity: a full shard evicts its oldest
// family FIFO; the evicted key reverts to unknown, the newest survives.
func TestPredictorEvictionAtCapacity(t *testing.T) {
	// Capacity 16 across 16 shards = one entry per shard, so two keys on
	// the same shard force an eviction. Find such a pair by probing.
	p := NewLatencyPredictor(16)
	var first, second string
	seen := map[*predShard]string{}
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := p.shard(k)
		if prev, ok := seen[s]; ok {
			first, second = prev, k
			break
		}
		seen[s] = k
	}
	p.observe(first, time.Millisecond)
	p.observe(second, 2*time.Millisecond)
	if _, ok := p.predict(first); ok {
		t.Fatalf("oldest key %q not evicted at capacity", first)
	}
	if got, ok := p.predict(second); !ok || got != 2*time.Millisecond {
		t.Fatalf("newest key %q: ewma=%v ok=%v, want 2ms", second, got, ok)
	}
	if got := p.shard(second).entries; len(got) != 1 {
		t.Fatalf("shard holds %d entries, want 1", len(got))
	}
}

// TestPredictorSurvivesStatsSwap: statistics only rank, so the shape
// family key carries no statistics fingerprint and a stats hot-swap
// keeps both the plan table entry and the trained prediction — the next
// request is a predicted-fast hit, re-ranked under the new snapshot.
func TestPredictorSurvivesStatsSwap(t *testing.T) {
	req, st := projDeptRequest(t)
	svc := New(Options{
		MinimalOnly:    true,
		Stats:          st,
		MaxPlanLatency: 30 * time.Second,
	})
	ctx := context.Background()

	cold, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.TierReason != ReasonBudgeted {
		t.Fatalf("cold reason = %q, want budgeted", cold.TierReason)
	}
	warm, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.TierReason != ReasonPredictedFast || !warm.CacheHit {
		t.Fatalf("warm response: reason=%q cacheHit=%v, want predicted-fast/true", warm.TierReason, warm.CacheHit)
	}

	svc.SetStats(nil)
	swapped, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if swapped.TierReason != ReasonPredictedFast || !swapped.CacheHit {
		t.Fatalf("post-swap response: reason=%q cacheHit=%v, want predicted-fast/true", swapped.TierReason, swapped.CacheHit)
	}
	if got, want := swapped.Result.Best.Cost, warm.Result.Rerank(nil).Best.Cost; got != want {
		t.Fatalf("post-swap best cost %g, want %g (the pool re-ranked under uniform defaults)", got, want)
	}
	if c := svc.Counters(); c.BudgetedWaits != 1 || c.PredictedFast != 2 || c.BackchaseRuns != 1 {
		t.Fatalf("post-swap counters: %+v", c)
	}
}

// TestClassifyUpgradedOverridesSlowEWMA: a shape whose plan table entry
// is present is served predicted-fast from it even while the EWMA
// remembers a slow enumeration — answering it is a lookup.
func TestClassifyUpgradedOverridesSlowEWMA(t *testing.T) {
	req, _ := projDeptRequest(t)
	key := flightKey(req)
	svc := New(Options{MinimalOnly: true, MaxPlanLatency: 30 * time.Second})
	if _, err := svc.Optimize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	for range 8 {
		svc.predictor.observe(key, time.Hour)
	}
	if got, _ := svc.classify(key); got != ReasonPredictedSlow {
		t.Fatalf("slow EWMA classifies %q, want predicted-slow", got)
	}
	resp, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TierReason != ReasonPredictedFast || !resp.CacheHit {
		t.Fatalf("shape with a table entry: reason=%q cacheHit=%v, want predicted-fast/true", resp.TierReason, resp.CacheHit)
	}
}

// TestClassifySplitsAtBudget: MaxPlanLatency alone splits the trained
// shapes — an EWMA above the budget routes predicted-slow, one within it
// predicted-fast.
func TestClassifySplitsAtBudget(t *testing.T) {
	svc := New(Options{MinimalOnly: true, MaxPlanLatency: 10 * time.Millisecond})
	svc.predictor.observe("over", 50*time.Millisecond)
	if got, _ := svc.classify("over"); got != ReasonPredictedSlow {
		t.Fatalf("EWMA over the budget classifies %q, want predicted-slow", got)
	}
	svc.predictor.observe("under", 5*time.Millisecond)
	if got, _ := svc.classify("under"); got != ReasonPredictedFast {
		t.Fatalf("EWMA under the budget classifies %q, want predicted-fast", got)
	}
}

// TestPredictedSlowServesGreedyInstantly: a trained-slow shape on a
// fresh service is served the greedy tier with no timed wait, and the
// detached flight still lands and upgrades for the next request.
func TestPredictedSlowServesGreedyInstantly(t *testing.T) {
	req := coldStarRequest(t)
	pred := NewLatencyPredictor(0)
	key := flightKey(req)
	pred.observe(key, time.Minute)

	svc := New(Options{MinimalOnly: true, MaxPlanLatency: 10 * time.Second, Predictor: pred})
	resp, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TierReason != ReasonPredictedSlow || resp.Tier != TierGreedy {
		t.Fatalf("trained-slow response: reason=%q tier=%q, want predicted-slow/greedy", resp.TierReason, resp.Tier)
	}
	if c := svc.Counters(); c.PredictedSlow != 1 || c.GreedyServed != 1 || c.BudgetedWaits != 0 {
		t.Fatalf("predicted-slow counters: %+v", c)
	}

	waitCounter(t, svc, 1, func(c Counters) int64 { return c.Upgraded })
	up, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if up.TierReason != ReasonPredictedFast || up.Tier != TierBackchase || !up.Upgraded {
		t.Fatalf("post-upgrade response: reason=%q tier=%q upgraded=%v, want predicted-fast/backchase/true",
			up.TierReason, up.Tier, up.Upgraded)
	}
}

// TestSynchronousReasonWithoutBudget: with two-tier serving off, every
// response reports the synchronous reason and the predictor still
// trains (so enabling a budget later starts warm).
func TestSynchronousReasonWithoutBudget(t *testing.T) {
	svc := New(Options{MinimalOnly: true})
	req, _ := projDeptRequest(t)
	resp, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TierReason != ReasonSynchronous {
		t.Fatalf("reason = %q, want %q", resp.TierReason, ReasonSynchronous)
	}
	if svc.PredictorLen() != 1 {
		t.Fatalf("PredictorLen = %d, want 1 (synchronous flights still train)", svc.PredictorLen())
	}
	if c := svc.Counters(); c.BudgetedWaits != 0 || c.PredictedFast != 0 || c.PredictedSlow != 0 {
		t.Fatalf("adaptive counters moved without a budget: %+v", c)
	}
}
