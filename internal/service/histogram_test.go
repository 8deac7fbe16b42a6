package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"cnb/internal/workload"
)

// TestHistogramBuckets pins the log2-µs bucket layout: sub-µs samples in
// bucket 0, [2^(i-1), 2^i) µs in bucket i, overflow clamped to the last.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{1500 * time.Nanosecond, 1},
		{2 * time.Microsecond, 2},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{512 * time.Microsecond, 10},
		{time.Millisecond, 10}, // 1000µs ∈ [512, 1024)
		{1024 * time.Microsecond, 11},
		{time.Second, 20}, // 10^6µs ∈ [2^19, 2^20)
		{time.Hour, histogramBuckets - 1},
		{1000 * time.Hour, histogramBuckets - 1},
	}
	for _, c := range cases {
		if got := histogramBucketFor(c.d); got != c.want {
			t.Errorf("bucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestHistogramTotalIsBucketSum: the snapshot total is derived from the
// buckets, so it equals the recorded sample count by construction, even
// under concurrent recording; Reset zeroes everything.
func TestHistogramTotalIsBucketSum(t *testing.T) {
	var h LatencyHistogram
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Total != workers*perWorker {
		t.Fatalf("Total = %d, want %d", snap.Total, workers*perWorker)
	}
	var sum int64
	for _, c := range snap.Counts {
		sum += c
	}
	if sum != snap.Total {
		t.Fatalf("bucket sum %d != Total %d", sum, snap.Total)
	}
	h.Reset()
	if after := h.Snapshot(); after.Total != 0 {
		t.Fatalf("Total after Reset = %d, want 0", after.Total)
	}
}

// TestHistogramUpperBounds: bucket i (1 <= i < 31) ends exclusively at
// 2^i microseconds, bucket 0 below 1 µs, and the last bucket has no
// upper bound.
func TestHistogramUpperBounds(t *testing.T) {
	if got := histogramBucketFor(999 * time.Nanosecond); got != 0 {
		t.Fatalf("sub-microsecond sample in bucket %d, want 0", got)
	}
	for i := 1; i < histogramBuckets-1; i++ {
		bound := time.Duration(1<<i) * time.Microsecond
		if got := histogramBucketFor(bound - time.Microsecond); got != i {
			t.Fatalf("%v in bucket %d, want %d", bound-time.Microsecond, got, i)
		}
		if got := histogramBucketFor(bound); got != i+1 {
			t.Fatalf("%v in bucket %d, want %d", bound, got, i+1)
		}
	}
	if got := histogramBucketFor(1 << 62); got != histogramBuckets-1 {
		t.Fatalf("overflow sample in bucket %d, want %d", got, histogramBuckets-1)
	}
}

// TestServiceHistogramsPerTier: each served request lands in exactly one
// tier histogram — greedy for a budget-expired cold shape, sync for an
// ordinary backchase response, upgraded for a post-upgrade hit — and the
// totals sum to the request count. ResetHistograms zeroes them without
// touching the counters.
func TestServiceHistogramsPerTier(t *testing.T) {
	req := coldStarRequest(t)
	svc := New(Options{MinimalOnly: true, MaxPlanLatency: 2 * time.Millisecond})
	ctx := context.Background()

	if _, err := svc.Optimize(ctx, req); err != nil { // cold: greedy tier
		t.Fatal(err)
	}
	waitCounter(t, svc, 1, func(c Counters) int64 { return c.Upgraded })
	if _, err := svc.Optimize(ctx, req); err != nil { // upgraded hit
		t.Fatal(err)
	}

	warmReq, _ := projDeptRequest(t)
	sync := New(Options{MinimalOnly: true})
	if _, err := sync.Optimize(ctx, warmReq); err != nil { // plain backchase
		t.Fatal(err)
	}

	h := svc.Histograms()
	if h.Greedy.Total != 1 || h.BackchaseUpgraded.Total != 1 || h.BackchaseSync.Total != 0 {
		t.Fatalf("tiered histograms: greedy=%d upgraded=%d sync=%d, want 1/1/0",
			h.Greedy.Total, h.BackchaseUpgraded.Total, h.BackchaseSync.Total)
	}
	if sum := h.Greedy.Total + h.BackchaseSync.Total + h.BackchaseUpgraded.Total; sum != svc.Counters().Requests {
		t.Fatalf("histogram sum %d != %d requests", sum, svc.Counters().Requests)
	}
	if hs := sync.Histograms(); hs.BackchaseSync.Total != 1 || hs.Greedy.Total != 0 {
		t.Fatalf("synchronous service histograms: sync=%d greedy=%d, want 1/0", hs.BackchaseSync.Total, hs.Greedy.Total)
	}

	before := svc.Counters()
	svc.ResetHistograms()
	if after := svc.Histograms(); after.Greedy.Total != 0 || after.BackchaseUpgraded.Total != 0 {
		t.Fatal("ResetHistograms left samples behind")
	}
	if svc.Counters() != before {
		t.Fatal("ResetHistograms touched the counters")
	}
}

// TestQueryHistogramsSplitPlanExec: a successful Query records one
// sample in the plan histogram and one in the exec histogram.
func TestQueryHistogramsSplitPlanExec(t *testing.T) {
	svc, req, _ := projDeptQuerySetup(t, "pd", workload.GenOptions{Seed: 1})
	if _, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd"}); err != nil {
		t.Fatal(err)
	}
	h := svc.Histograms()
	if h.QueryPlan.Total != 1 || h.QueryExec.Total != 1 {
		t.Fatalf("query histograms: plan=%d exec=%d, want 1/1", h.QueryPlan.Total, h.QueryExec.Total)
	}
}
