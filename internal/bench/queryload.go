// E19: end-to-end query serving — the loadgen harness driven through
// Service.Query (the /query path) against a seeded star instance, so the
// replay measures planning AND measured execution per request.
package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cnb/internal/eval"
	"cnb/internal/service"
	"cnb/internal/workload"
)

// QueryLoadResult extends LoadResult with the execution-side aggregates
// of a Service.Query replay.
type QueryLoadResult struct {
	LoadResult
	// Evals / Rows / OutRows sum StreamPlan.Measure over every
	// successful request; ResultRows sums the (pre-cap) result
	// cardinalities. At Workers=1 all four are deterministic.
	Evals      int64
	Rows       int64
	OutRows    int64
	ResultRows int64
	// Skipped sums the non-executable candidates passed over by the
	// delivery rule across all requests.
	Skipped int64
}

// RunQueryLoad replays the mix through svc.Query against the named
// registered instance, with the same closed-loop workers, deterministic
// seeded schedule and error accounting as RunLoad.
func RunQueryLoad(ctx context.Context, svc *service.Service, mix []LoadQuery, cfg LoadConfig, instName string) (*QueryLoadResult, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("loadgen: empty mix")
	}
	if cfg.Workers < 1 || cfg.Requests < 1 {
		return nil, fmt.Errorf("loadgen: need at least 1 worker and 1 request")
	}
	schedule := buildSchedule(mix, cfg)
	latencies := make([]time.Duration, len(schedule))
	var (
		next       atomic.Int64
		errCount   atomic.Int64
		evals      atomic.Int64
		rows       atomic.Int64
		outRows    atomic.Int64
		resultRows atomic.Int64
		skipped    atomic.Int64
		errMu      sync.Mutex
		firstErr   error
		wg         sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(schedule) {
					return
				}
				t0 := time.Now()
				res, err := svc.Query(ctx, service.QueryRequest{
					Request:  schedule[i],
					Instance: instName,
				})
				latencies[i] = time.Since(t0)
				if err != nil {
					errCount.Add(1)
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d: %w", i, err)
					}
					errMu.Unlock()
					continue
				}
				evals.Add(res.Measure.Evals)
				rows.Add(res.Measure.Rows)
				outRows.Add(res.Measure.OutRows)
				resultRows.Add(int64(res.ResultRows))
				skipped.Add(int64(res.Skipped))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	res := &QueryLoadResult{
		LoadResult: LoadResult{
			Requests:   len(schedule),
			Errors:     int(errCount.Load()),
			Wall:       wall,
			Throughput: float64(len(schedule)) / wall.Seconds(),
			P50:        percentile(sorted, 0.50),
			P99:        percentile(sorted, 0.99),
			Service:    svc.Counters(),
			Cache:      svc.CacheCounters(),
		},
		Evals:      evals.Load(),
		Rows:       rows.Load(),
		OutRows:    outRows.Load(),
		ResultRows: resultRows.Load(),
		Skipped:    skipped.Load(),
	}
	if total := res.Cache.Hits + res.Cache.Misses; total > 0 {
		res.HitRate = float64(res.Cache.Hits) / float64(total)
	}
	return res, firstErr
}

// e19Scenario is the E19 setup: one seeded star instance plus a
// two-shape query mix over its schema (narrow projection and
// ProjectAll), so the replay exercises distinct plans against the same
// data.
type e19Scenario struct {
	Star *workload.Star // narrow-projection shape (owns the instance)
	Mix  []LoadQuery
	Gen  workload.StarGenOptions
}

// e19Setup builds the scenario at a CI-friendly tier: 20k fact rows with
// indexed access paths, so the delivered plans are index navigations and
// 160 executed requests stay cheap.
func e19Setup() (*e19Scenario, error) {
	cfg := workload.StarConfig{
		Dims: 2, FactIndexes: 1, DimKeyIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true,
	}
	narrow, err := workload.NewStar(cfg)
	if err != nil {
		return nil, err
	}
	cfgAll := cfg
	cfgAll.ProjectAll = true
	wide, err := workload.NewStar(cfgAll)
	if err != nil {
		return nil, err
	}
	mix := []LoadQuery{
		{Name: "star narrow", Req: service.Request{Query: narrow.Q, Deps: narrow.Deps, PhysicalNames: narrow.Physical.NameSet()}},
		{Name: "star project-all", Req: service.Request{Query: wide.Q, Deps: wide.Deps, PhysicalNames: wide.Physical.NameSet()}},
	}
	return &e19Scenario{
		Star: narrow,
		Mix:  mix,
		Gen:  workload.StarGenOptions{NumFact: 20_000, NumDim: 200, DomA: 20, Seed: 1901},
	}, nil
}

// e19Service builds a fresh serving-configuration Service with the
// scenario's instance installed and its synthetic statistics ranking
// candidates.
func (sc *e19Scenario) service() (*service.Service, error) {
	svc := service.New(service.Options{
		MinimalOnly: true,
		Stats:       sc.Star.SyntheticStats(sc.Gen),
	})
	if _, err := svc.InstallInstance("star", sc.Star.Generate(sc.Gen)); err != nil {
		return nil, err
	}
	return svc, nil
}

// E19 replays the E16-style load mix through the full query path:
// Optimize (plan cache + singleflight) followed by streaming execution
// of the delivered plan against a registered 20k-row star instance.
// Before the replay, both query shapes are differentially checked — the
// served result set must equal the reference evaluator's result for the
// original logical query — and the experiment hard-fails on any
// mismatch, so the correctness claim travels with the experiment.
//
// Headline expectations (gated by TestE19QueryLoad and, for the exact
// counters, cmd/benchcheck):
//
//   - hit rate and backchase runs behave exactly as in E16: two shapes,
//     two backchase runs, everything else served warm — execution does
//     not disturb the serving-layer invariants;
//   - the workers=1 pass is fully deterministic, so its total executed
//     work (query_evals / query_rows / query_out_rows / result_rows)
//     is exact-gated: any drift means the optimizer delivered a
//     different plan or the engine's accounting changed;
//   - zero error responses, zero skipped candidates on this instance.
func E19() (*Table, error) {
	sc, err := e19Setup()
	if err != nil {
		return nil, err
	}

	// Differential anchor: serve each shape once on a scratch service
	// and compare against the reference evaluator's result for the original
	// logical query on the same instance.
	scratch, err := sc.service()
	if err != nil {
		return nil, err
	}
	in := sc.Star.Generate(sc.Gen)
	for _, lq := range sc.Mix {
		got, err := scratch.Query(context.Background(), service.QueryRequest{
			Request: lq.Req, Instance: "star", MaxRows: -1,
		})
		if err != nil {
			return nil, fmt.Errorf("E19 %s: query: %w", lq.Name, err)
		}
		want, err := eval.QueryEager(lq.Req.Query, in)
		if err != nil {
			return nil, fmt.Errorf("E19 %s: eval: %w", lq.Name, err)
		}
		if got.ResultRows != want.Len() || len(got.Rows) != want.Len() {
			return nil, fmt.Errorf("E19 %s: served %d rows, eval %d", lq.Name, got.ResultRows, want.Len())
		}
		for _, v := range got.Rows {
			if !want.Contains(v) {
				return nil, fmt.Errorf("E19 %s: served row %s not in eval result", lq.Name, v)
			}
		}
	}

	tb := &Table{
		ID:      "E19",
		Title:   "End-to-end query serving: /query replay against a 20k-row star instance",
		Columns: []string{"workers", "requests", "errors", "wall", "req/s", "p50", "p99", "hit rate", "backchase runs", "evals", "rows", "out rows"},
		Metrics: map[string]float64{},
	}
	const requests = 160
	cfg := LoadConfig{AlphaRate: 0.5, Seed: 19, Requests: requests}
	for _, workers := range []int{1, 4, 16} {
		svc, err := sc.service()
		if err != nil {
			return nil, err
		}
		cfg.Workers = workers
		res, err := RunQueryLoad(context.Background(), svc, sc.Mix, cfg, "star")
		if err != nil {
			return nil, fmt.Errorf("E19 workers=%d: %w", workers, err)
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%d", res.Requests),
			fmt.Sprintf("%d", res.Errors),
			res.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", res.Throughput),
			res.P50.Round(time.Microsecond).String(),
			res.P99.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", res.HitRate),
			fmt.Sprintf("%d", res.Service.BackchaseRuns),
			fmt.Sprintf("%d", res.Evals),
			fmt.Sprintf("%d", res.Rows),
			fmt.Sprintf("%d", res.OutRows),
		})
		if workers == 1 {
			// Deterministic pass: gated exactly by cmd/benchcheck
			// (exactCounters for the serving counters and hit rate, the
			// _evals/_rows suffixes for the executed work totals).
			tb.Metrics["cache_hits"] = float64(res.Cache.Hits)
			tb.Metrics["cache_misses"] = float64(res.Cache.Misses)
			tb.Metrics["backchase_runs"] = float64(res.Service.BackchaseRuns)
			tb.Metrics["hit_rate"] = res.HitRate
			tb.Metrics["query_evals"] = float64(res.Evals)
			tb.Metrics["query_rows"] = float64(res.Rows)
			tb.Metrics["query_out_rows"] = float64(res.OutRows)
			tb.Metrics["result_rows"] = float64(res.ResultRows)
			tb.Metrics["query_exec_skipped"] = float64(res.Skipped)
		}
		tb.Metrics[fmt.Sprintf("throughput_w%d", workers)] = res.Throughput
		tb.Metrics[fmt.Sprintf("p99_w%d_ms", workers)] = float64(res.P99.Milliseconds())
	}
	tb.Notes = append(tb.Notes,
		fmt.Sprintf("mix: 2 star shapes (narrow + project-all) over one 20k-row instance, %d requests per worker count, alpha-rename rate 0.5, seed 19, MinimalOnly serving with synthetic stats", requests),
		"each request optimizes through the plan cache/singleflight, then executes the delivered plan on the streaming engine against the registered instance",
		"served result sets are differentially checked against eval.QueryEager before the replay; the experiment hard-fails on any mismatch",
		"workers=1 counters are deterministic and gated exactly (cache_hits, cache_misses, backchase_runs, hit_rate, query_evals, query_rows, query_out_rows, result_rows); wall-clock numbers are informational")
	return tb, nil
}
