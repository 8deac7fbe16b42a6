// E20: two-tier cold serving — the greedy instant tier under a plan
// latency budget, the detached backchase upgrade, and the proof that
// both tiers answer correctly.
package bench

import (
	"context"
	"fmt"
	"time"

	"cnb/internal/eval"
	"cnb/internal/service"
	"cnb/internal/workload"
)

// e20Shape is one cold workload shape of the replay: the star (its query
// is the request), a small seeded instance for the differential check,
// and the per-shape outcomes filled in as the phases run.
type e20Shape struct {
	Name string
	Star *workload.Star
	Req  service.Request

	syncLatency   time.Duration
	syncCost      float64
	tieredLatency time.Duration
	upgradedCost  float64
	checkRows     int
}

// e20Budget bounds the adaptive plan-latency budget: never below the
// warm-path latency (a cache-hit flight is ~1ms — a budget under it
// would push even warm shapes to the greedy tier), never above 200ms
// (past that the "instant" tier isn't).
const (
	e20MinBudget = 2 * time.Millisecond
	e20MaxBudget = 200 * time.Millisecond
)

// e20Gen is the differential-check instance size: small enough that
// eval.QueryEager evaluates the ORIGINAL query (no helpful access paths,
// so nested scans) in well under a second per shape, fixed seed so the
// greedy_check_rows gate is exact.
var e20Gen = workload.StarGenOptions{NumFact: 1500, NumDim: 300, NumSub: 200, DomA: 50, Seed: 2025}

// e20Shapes builds the E13 star/snowflake family as cold request shapes
// — the shapes whose synchronous cold plan takes 21–130 ms each at
// -parallelism 1 (five chasebench -exp E20 runs on a 2-vCPU host, cold
// p99 91–130 ms), i.e. exactly the cold-shape p99 problem the two-tier
// path exists for.
func e20Shapes() ([]*e20Shape, error) {
	var shapes []*e20Shape
	for _, wl := range e13Workloads() {
		s, err := workload.NewStar(wl.Cfg)
		if err != nil {
			return nil, err
		}
		shapes = append(shapes, &e20Shape{
			Name: wl.Name,
			Star: s,
			Req:  service.Request{Query: s.Q, Deps: s.Deps},
		})
	}
	return shapes, nil
}

// e20Service builds a fresh E16-configuration service (MinimalOnly,
// exhaustive backchase, experiment parallelism) with the given latency
// budget (0 = synchronous).
func e20Service(budget time.Duration) *service.Service {
	return service.New(service.Options{
		Parallelism:    Parallelism,
		MinimalOnly:    true,
		MaxPlanLatency: budget,
	})
}

// E20 measures cold-shape serving with and without the two-tier path and
// proves the tiering contract end to end:
//
//  1. synchronous pass — every shape cold on a fresh synchronous
//     service; per-shape plan latency and cheapest cost are the
//     baseline. The plan-latency budget is then set adaptively to
//     sync_p99/20 (clamped to [2ms, 200ms]): far under the cold flight,
//     far over the warm path, and machine-speed independent.
//  2. tiered pass — every shape cold on a fresh service with the budget:
//     each response MUST come from the greedy tier, and each greedy plan
//     is differentially checked through the full /query execution path
//     (streaming engine) against the reference evaluator's result for the
//     original query on a seeded instance — row-identical or the
//     experiment fails.
//  3. upgrade pass — after the detached flights land (counted by the
//     exact-gated upgraded_flights), every shape is re-requested: the
//     response must be a backchase-tier cache hit marked Upgraded with
//     exactly the synchronous pass's cheapest cost.
//
// Hard failure conditions: any phase-2 response not served by the greedy
// tier, any differential mismatch, upgrades not landing, any phase-3
// response missing the cache or the synchronous cost, or cold-shape p99
// improving by less than 10x (the adaptive budget makes the expected
// ratio ~20x by construction, so 10x is a robust floor, not a wall-clock
// flake gate).
//
// Gated metrics: greedy_served / upgraded_flights (exact counters),
// greedy_check_rows (exact — the differential result cardinality),
// cheapest_cost_sync_total / cheapest_cost_upgraded_total (exact — and
// equal to each other by the phase-3 assertion). cold_sync_p99_ms,
// cold_tiered_p99_ms and cold_speedup are informational wall clocks.
func E20() (*Table, error) {
	shapes, err := e20Shapes()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Phase 1: synchronous cold pass.
	syncSvc := e20Service(0)
	syncLat := make([]time.Duration, 0, len(shapes))
	var syncCostTotal float64
	for _, sh := range shapes {
		t0 := time.Now()
		resp, err := syncSvc.Optimize(ctx, sh.Req)
		sh.syncLatency = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: sync: %w", sh.Name, err)
		}
		if resp.Tier != service.TierBackchase || resp.Result.Best == nil {
			return nil, fmt.Errorf("E20 %s: sync response tier=%q", sh.Name, resp.Tier)
		}
		sh.syncCost = resp.Result.Best.Cost
		syncCostTotal += sh.syncCost
		syncLat = append(syncLat, sh.syncLatency)
	}
	sortDurations(syncLat)
	syncP99 := percentile(syncLat, 0.99)

	budget := syncP99 / 20
	if budget < e20MinBudget {
		budget = e20MinBudget
	}
	if budget > e20MaxBudget {
		budget = e20MaxBudget
	}

	// Phase 2: tiered cold pass on a fresh service.
	svc := e20Service(budget)
	tierLat := make([]time.Duration, 0, len(shapes))
	for _, sh := range shapes {
		t0 := time.Now()
		resp, err := svc.Optimize(ctx, sh.Req)
		sh.tieredLatency = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: tiered: %w", sh.Name, err)
		}
		if resp.Tier != service.TierGreedy {
			return nil, fmt.Errorf("E20 %s: cold tiered response tier=%q, want greedy (budget %v, flight landed in %v?)",
				sh.Name, resp.Tier, budget, sh.tieredLatency)
		}
		tierLat = append(tierLat, sh.tieredLatency)
	}
	sortDurations(tierLat)
	tieredP99 := percentile(tierLat, 0.99)

	// Differential check, on a scratch tiered service where every request
	// is cold and therefore guaranteed greedy-tier: serve each shape
	// through the full /query path (greedy plan on the streaming engine)
	// and compare against the reference evaluator's result for the original
	// query on the same seeded instance.
	scratch := e20Service(budget)
	var checkRows int
	for i, sh := range shapes {
		inst := fmt.Sprintf("star%d", i)
		if _, err := scratch.InstallInstance(inst, sh.Star.Generate(e20Gen)); err != nil {
			return nil, fmt.Errorf("E20 %s: install: %w", sh.Name, err)
		}
		got, err := scratch.Query(ctx, service.QueryRequest{Request: sh.Req, Instance: inst, MaxRows: -1})
		if err != nil {
			return nil, fmt.Errorf("E20 %s: query: %w", sh.Name, err)
		}
		if got.Optimize == nil || got.Optimize.Tier != service.TierGreedy {
			return nil, fmt.Errorf("E20 %s: differential request was not served by the greedy tier", sh.Name)
		}
		want, err := eval.QueryEager(sh.Req.Query, sh.Star.Generate(e20Gen))
		if err != nil {
			return nil, fmt.Errorf("E20 %s: eval: %w", sh.Name, err)
		}
		if got.ResultRows != want.Len() || len(got.Rows) != want.Len() {
			return nil, fmt.Errorf("E20 %s: served %d rows, eval %d", sh.Name, got.ResultRows, want.Len())
		}
		for _, v := range got.Rows {
			if !want.Contains(v) {
				return nil, fmt.Errorf("E20 %s: served row %s not in eval result", sh.Name, v)
			}
		}
		sh.checkRows = want.Len()
		checkRows += sh.checkRows
	}

	// Wait for every detached flight to land and upgrade its entry, then
	// snapshot the gated counters BEFORE phase 3: phase-3 retries (a warm
	// flight exceeding the budget under heavy instrumentation) may serve
	// extra greedy responses, which must not perturb the exact gates.
	deadline := time.Now().Add(2 * time.Minute)
	for svc.Counters().Upgraded < int64(len(shapes)) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	counters := svc.Counters()
	if counters.Upgraded < int64(len(shapes)) {
		return nil, fmt.Errorf("E20: only %d/%d detached flights upgraded within deadline", counters.Upgraded, len(shapes))
	}

	// Phase 3: upgraded entries serve the synchronous cheapest cost.
	var upgradedCostTotal float64
	for _, sh := range shapes {
		var resp *service.Response
		for attempt := 0; ; attempt++ {
			resp, err = svc.Optimize(ctx, sh.Req)
			if err != nil {
				return nil, fmt.Errorf("E20 %s: upgraded: %w", sh.Name, err)
			}
			if resp.Tier == service.TierBackchase {
				break
			}
			if attempt >= 10 {
				return nil, fmt.Errorf("E20 %s: warm request still greedy-tier after %d attempts", sh.Name, attempt+1)
			}
		}
		if !resp.CacheHit || !resp.Upgraded {
			return nil, fmt.Errorf("E20 %s: upgraded response cacheHit=%v upgraded=%v, want true/true", sh.Name, resp.CacheHit, resp.Upgraded)
		}
		if resp.Result.Best == nil || resp.Result.Best.Cost != sh.syncCost {
			return nil, fmt.Errorf("E20 %s: upgraded cost %v != synchronous cheapest %v", sh.Name, resp.Result.Best, sh.syncCost)
		}
		sh.upgradedCost = resp.Result.Best.Cost
		upgradedCostTotal += sh.upgradedCost
	}

	speedup := float64(syncP99) / float64(tieredP99)
	if speedup < 10 {
		return nil, fmt.Errorf("E20: cold-shape p99 speedup %.1fx below the 10x floor (sync %v, tiered %v, budget %v)",
			speedup, syncP99, tieredP99, budget)
	}

	tb := &Table{
		ID:      "E20",
		Title:   "Two-tier cold serving: greedy instant tier + detached backchase upgrade",
		Columns: []string{"shape", "sync cold", "tiered cold", "check rows", "sync cost", "upgraded cost"},
		Metrics: map[string]float64{
			"shapes":                       float64(len(shapes)),
			"greedy_served":                float64(counters.GreedyServed),
			"upgraded_flights":             float64(counters.Upgraded),
			"greedy_check_rows":            float64(checkRows),
			"cheapest_cost_sync_total":     syncCostTotal,
			"cheapest_cost_upgraded_total": upgradedCostTotal,
			"cold_sync_p99_ms":             float64(syncP99) / float64(time.Millisecond),
			"cold_tiered_p99_ms":           float64(tieredP99) / float64(time.Millisecond),
			"cold_speedup":                 speedup,
		},
		Notes: []string{
			fmt.Sprintf("adaptive budget %v (sync p99 / 20, clamped to [%v, %v])", budget.Round(time.Millisecond), e20MinBudget, e20MaxBudget),
			fmt.Sprintf("cold p99 %v -> %v (%.0fx) with every greedy plan row-identical to eval", syncP99.Round(time.Millisecond), tieredP99.Round(time.Millisecond), speedup),
		},
	}
	for _, sh := range shapes {
		tb.Rows = append(tb.Rows, []string{
			sh.Name,
			sh.syncLatency.Round(time.Millisecond).String(),
			sh.tieredLatency.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", sh.checkRows),
			fmt.Sprintf("%.1f", sh.syncCost),
			fmt.Sprintf("%.1f", sh.upgradedCost),
		})
	}
	return tb, nil
}

// sortDurations sorts in place ascending (the shape percentile expects).
func sortDurations(d []time.Duration) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}
