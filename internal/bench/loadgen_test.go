package bench

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"cnb/internal/service"
	"cnb/internal/workload"
)

// TestServiceLoadHarness is the CI service-load gate: 16 closed-loop
// workers hammer one Service with the small star/snowflake/ProjDept mix
// (half the requests alpha-renamed) and every response must succeed. Run
// under -race this doubles as the serving layer's concurrency gate. In
// -short mode (the CI configuration) the request count shrinks so the
// race-instrumented run stays fast.
func TestServiceLoadHarness(t *testing.T) {
	mix, err := smallServeMix()
	if err != nil {
		t.Fatal(err)
	}
	requests := 300
	if testing.Short() {
		requests = 160
	}
	svc := service.New(service.Options{})
	res, err := RunLoad(context.Background(), svc, mix, LoadConfig{
		Workers:   16,
		Requests:  requests,
		AlphaRate: 0.5,
		Seed:      7,
	})
	if err != nil {
		t.Fatalf("load run returned an error response: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d error responses out of %d requests", res.Errors, res.Requests)
	}
	if res.Requests != requests || res.Service.Requests != int64(requests) {
		t.Errorf("request accounting off: result %d, service %d, want %d",
			res.Requests, res.Service.Requests, requests)
	}
	// Singleflight + plan cache: each distinct shape backchases exactly
	// once no matter how the 16 workers interleave — every other request
	// is a cache hit or a coalesced waiter.
	if got, want := res.Service.BackchaseRuns, int64(len(mix)); got != want {
		t.Errorf("backchase runs = %d, want exactly %d (one per shape)", got, want)
	}
	if res.HitRate < 0.5 {
		t.Errorf("cache hit rate %.2f below 0.5 on the replay mix", res.HitRate)
	}
	// Every request is accounted for as a hit, a miss, or a coalesced
	// waiter (waiters never reach the cache).
	total := res.Cache.Hits + res.Cache.Misses + res.Service.Coalesced
	if total != int64(requests) {
		t.Errorf("hits(%d) + misses(%d) + coalesced(%d) = %d, want %d",
			res.Cache.Hits, res.Cache.Misses, res.Service.Coalesced, total, requests)
	}
}

// TestRunLoadDeterministicAtOneWorker: two single-worker runs over fresh
// services produce identical counter outcomes — the property that lets
// benchcheck gate E16's workers=1 counters exactly.
func TestRunLoadDeterministicAtOneWorker(t *testing.T) {
	mix, err := smallServeMix()
	if err != nil {
		t.Fatal(err)
	}
	cfg := LoadConfig{Workers: 1, Requests: 60, AlphaRate: 0.5, Seed: 11}
	run := func() *LoadResult {
		t.Helper()
		svc := service.New(service.Options{})
		res, err := RunLoad(context.Background(), svc, mix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cache.Hits != b.Cache.Hits || a.Cache.Misses != b.Cache.Misses ||
		a.Service.BackchaseRuns != b.Service.BackchaseRuns {
		t.Errorf("single-worker runs diverged: %+v vs %+v", a.Cache, b.Cache)
	}
	if a.Service.Coalesced != 0 {
		t.Errorf("a single worker cannot coalesce, got %d", a.Service.Coalesced)
	}
	if a.Cache.Misses != int64(len(mix)) {
		t.Errorf("misses = %d, want one per shape (%d)", a.Cache.Misses, len(mix))
	}
}

// TestRunLoadRespectsContext: cancelling the run's context fails pending
// requests instead of hanging the workers.
func TestRunLoadRespectsContext(t *testing.T) {
	mix, err := smallServeMix()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	var res *LoadResult
	go func() {
		defer close(done)
		res, _ = RunLoad(ctx, service.New(service.Options{}), mix, LoadConfig{
			Workers: 4, Requests: 40, AlphaRate: 0.5, Seed: 3,
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled load run did not finish")
	}
	if res.Errors != res.Requests {
		t.Errorf("cancelled run: %d errors out of %d requests, want all", res.Errors, res.Requests)
	}
}

// TestE16ServeLoad pins the headline serving claims: >= 50% cache hit
// rate on the replay mix, backchase runs sublinear in (and exactly the
// shape count of) the request stream, and zero error responses at every
// worker count.
func TestE16ServeLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("E16 replays hundreds of requests")
	}
	tb, err := E16()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[2] != "0" {
			t.Errorf("workers=%s: %s error responses", row[0], row[2])
		}
		if row[len(row)-1] != "3" {
			t.Errorf("workers=%s: backchase runs = %s, want 3 (one per shape)", row[0], row[len(row)-1])
		}
	}
	if tb.Metrics["hit_rate"] < 0.5 {
		t.Errorf("workers=1 hit rate %.2f below the promised 0.5", tb.Metrics["hit_rate"])
	}
	if tb.Metrics["backchase_runs"] >= tb.Metrics["cache_hits"] {
		t.Errorf("backchase runs %v not sublinear vs cache hits %v",
			tb.Metrics["backchase_runs"], tb.Metrics["cache_hits"])
	}
}

// TestE17ServeLoad pins the canonicalization claim end to end: under
// order-SHUFFLING alpha-renames, over a mix that includes an asymmetric
// self-join (the raw-name tie-break's failure shape), renamed repeats
// must behave exactly like verbatim repeats — backchase runs equal to
// the distinct-shape count at every worker count and a hit rate
// matching the order-preserving replay.
func TestE17ServeLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("E17 replays hundreds of requests")
	}
	tb, err := E17()
	if err != nil {
		t.Fatal(err)
	}
	mix, err := E17Mix()
	if err != nil {
		t.Fatal(err)
	}
	shapes := len(mix)
	for _, row := range tb.Rows {
		if row[2] != "0" {
			t.Errorf("workers=%s: %s error responses", row[0], row[2])
		}
		if want := fmt.Sprintf("%d", shapes); row[len(row)-1] != want {
			t.Errorf("workers=%s: backchase runs = %s, want %s (one per shape — shuffled renames must coalesce)",
				row[0], row[len(row)-1], want)
		}
	}
	if tb.Metrics["hit_rate"] < 0.95 {
		t.Errorf("workers=1 hit rate %.3f below 0.95: shuffled renames are splitting cache classes", tb.Metrics["hit_rate"])
	}
	if got, want := tb.Metrics["cache_misses"], float64(shapes); got != want {
		t.Errorf("workers=1 misses = %v, want exactly %v (one per shape)", got, want)
	}
}

// TestPercentileDegenerateWindows: the nearest-rank helper must answer —
// not panic or report garbage — on empty windows, single samples and
// out-of-range or NaN quantiles, because a zero-request replay bucket
// (e.g. a mix entry a schedule never drew) produces exactly these
// inputs.
func TestPercentileDegenerateWindows(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	window := []time.Duration{ms(1), ms(2), ms(3), ms(4)}
	for _, tc := range []struct {
		name   string
		sorted []time.Duration
		p      float64
		want   time.Duration
	}{
		{"empty p50", nil, 0.50, 0},
		{"empty p99", []time.Duration{}, 0.99, 0},
		{"empty NaN", nil, math.NaN(), 0},
		{"single p0", []time.Duration{ms(7)}, 0, ms(7)},
		{"single p50", []time.Duration{ms(7)}, 0.50, ms(7)},
		{"single p99", []time.Duration{ms(7)}, 0.99, ms(7)},
		{"single p1", []time.Duration{ms(7)}, 1, ms(7)},
		{"NaN clamps to min", window, math.NaN(), ms(1)},
		{"negative clamps to min", window, -0.5, ms(1)},
		{"above one clamps to max", window, 1.5, ms(4)},
		{"p25 nearest rank", window, 0.25, ms(1)},
		{"p50 nearest rank", window, 0.50, ms(2)},
		{"p75 nearest rank", window, 0.75, ms(3)},
		{"p99 nearest rank", window, 0.99, ms(4)},
		{"p1 is max", window, 1, ms(4)},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
}

// smallServeMix returns a cheaper mix (single-dimension star and
// snowflake plus the ProjDept running example) for race-detector and
// -short runs, where the full E13 lattices would dominate the budget.
func smallServeMix() ([]LoadQuery, error) {
	var mix []LoadQuery
	small := workload.StarConfig{
		Dims: 1, Views: 1, FactIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true,
	}
	snow := small
	snow.Snowflake = true
	for _, c := range []struct {
		name string
		cfg  workload.StarConfig
	}{{"star d=1 v=1", small}, {"snowflake d=1 v=1", snow}} {
		s, err := workload.NewStar(c.cfg)
		if err != nil {
			return nil, err
		}
		mix = append(mix, LoadQuery{Name: c.name, Req: service.Request{Query: s.Q, Deps: s.Deps}})
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		return nil, err
	}
	mix = append(mix, LoadQuery{Name: "projdept", Req: service.Request{
		Query:         pd.Q,
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
	}})
	return mix, nil
}
