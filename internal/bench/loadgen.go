// Load harness for the serving layer: closed-loop workers replay a mix
// of query shapes against one internal/service.Service, measuring
// throughput, latency percentiles and cache effectiveness. E16 runs it at
// 1/4/16 workers; the CI service-load job runs it under the race
// detector.
package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cnb/internal/core"
	"cnb/internal/service"
	"cnb/internal/workload"
)

// LoadQuery is one shape of the replay mix.
type LoadQuery struct {
	Name string
	Req  service.Request
}

// LoadConfig sizes a load run.
type LoadConfig struct {
	// Workers is the closed-loop client count: each worker issues its
	// next request as soon as the previous one returns.
	Workers int
	// Requests is the total request count across all workers.
	Requests int
	// AlphaRate is the fraction of requests issued as alpha-renamed
	// variants of their shape (a fresh uniform variable-name prefix per
	// request — an order-preserving rename, the kind client-side query
	// generators emit). The serving layer keys flights and cache entries
	// by the canonical signature, which renames normalize away, so these
	// must coalesce and hit exactly like verbatim repeats.
	AlphaRate float64
	// AlphaShuffle hardens the alpha renames: instead of an
	// order-preserving prefix rename, each renamed request draws a random
	// permutation of the variable-name order (reversals included), the
	// adversarial case for canonicalization — a tie-break on raw variable
	// names canonicalizes such variants apart. With a truly
	// renaming-invariant canonical form (core.Query.CanonicalSignature)
	// shuffled renames must coalesce and hit exactly like verbatim
	// repeats; E17 gates exactly that.
	AlphaShuffle bool
	// Seed makes the request schedule (shape choice and renames)
	// deterministic; at Workers=1 the service counters are then exact,
	// which is what lets cmd/benchcheck gate them.
	Seed int64
}

// LoadResult is the outcome of one load run.
type LoadResult struct {
	Requests   int
	Errors     int
	Wall       time.Duration
	Throughput float64 // requests per second
	P50, P99   time.Duration
	// Service and Cache snapshot the service's counters after the run
	// (the service must be fresh for them to describe this run alone).
	Service service.Counters
	Cache   service.CacheCounters
	// HitRate is Cache.Hits / (Cache.Hits + Cache.Misses).
	HitRate float64
}

// ServeMix returns the E16 replay mix: the three E13 star/snowflake
// scenarios, optimized against their own dependency sets. No statistics
// are installed — the exhaustive backchase is deterministic and its cache
// entries are statistics-independent, so the measured hit rates isolate
// the serving layer from cost-model variance.
func ServeMix() ([]LoadQuery, error) {
	var mix []LoadQuery
	for _, wl := range e13Workloads() {
		s, err := workload.NewStar(wl.Cfg)
		if err != nil {
			return nil, err
		}
		mix = append(mix, LoadQuery{Name: wl.Name, Req: service.Request{Query: s.Q, Deps: s.Deps}})
	}
	return mix, nil
}

// SmallServeMix returns a cheaper mix (single-dimension star and
// snowflake plus the ProjDept running example) for race-detector and
// -short runs, where the full E13 lattices would dominate the budget.
func SmallServeMix() ([]LoadQuery, error) {
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

// buildSchedule renders the deterministic request sequence: request i
// picks a shape and, at the alpha rate, an alpha-renamed copy with
// request-unique variable names (order-preserving by default,
// order-shuffling when cfg.AlphaShuffle is set).
func buildSchedule(mix []LoadQuery, cfg LoadConfig) []service.Request {
	rng := rand.New(rand.NewSource(cfg.Seed))
	schedule := make([]service.Request, cfg.Requests)
	for i := range schedule {
		shape := mix[rng.Intn(len(mix))]
		req := shape.Req
		if rng.Float64() < cfg.AlphaRate {
			prefix := fmt.Sprintf("ld%d_", i)
			if cfg.AlphaShuffle {
				req.Query = shuffleRename(req.Query, prefix, rng)
			} else {
				req.Query = req.Query.RenameVars(func(v string) string { return prefix + v })
			}
		}
		schedule[i] = req
	}
	return schedule
}

// shuffleRename alpha-renames the query so that the lexicographic order
// of its variable names is a random permutation of the original order:
// sorted original variables v_0 < v_1 < ... map to zero-padded fresh
// names whose sorted order realizes perm. The identity permutation is
// explicitly skipped (when more than one variable exists), so every
// shuffled rename genuinely reorders at least one name pair — the case a
// raw-name canonicalization tie-break gets wrong.
func shuffleRename(q *core.Query, prefix string, rng *rand.Rand) *core.Query {
	vars := make([]string, 0, len(q.Bindings))
	for _, b := range q.Bindings {
		vars = append(vars, b.Var)
	}
	sort.Strings(vars)
	perm := rng.Perm(len(vars))
	if len(vars) > 1 {
		for identity(perm) {
			perm = rng.Perm(len(vars))
		}
	}
	names := make(map[string]string, len(vars))
	for j, v := range vars {
		names[v] = fmt.Sprintf("%s%04d", prefix, perm[j])
	}
	return q.RenameVars(func(v string) string { return names[v] })
}

func identity(perm []int) bool {
	for i, p := range perm {
		if i != p {
			return false
		}
	}
	return true
}

// RunLoad replays the mix against the service with cfg.Workers closed-loop
// clients and returns the measured result. Any request error aborts
// nothing — the remaining requests still run, so one failure cannot mask
// others — but the first error is returned alongside the result, and
// LoadResult.Errors counts them all.
func RunLoad(ctx context.Context, svc *service.Service, mix []LoadQuery, cfg LoadConfig) (*LoadResult, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("loadgen: empty mix")
	}
	if cfg.Workers < 1 || cfg.Requests < 1 {
		return nil, fmt.Errorf("loadgen: need at least 1 worker and 1 request")
	}
	schedule := buildSchedule(mix, cfg)
	latencies := make([]time.Duration, len(schedule))
	var (
		next     atomic.Int64
		errCount atomic.Int64
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
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
				_, err := svc.Optimize(ctx, schedule[i])
				latencies[i] = time.Since(t0)
				if err != nil {
					errCount.Add(1)
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d: %w", i, err)
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	res := &LoadResult{
		Requests:   len(schedule),
		Errors:     int(errCount.Load()),
		Wall:       wall,
		Throughput: float64(len(schedule)) / wall.Seconds(),
		P50:        percentile(sorted, 0.50),
		P99:        percentile(sorted, 0.99),
		Service:    svc.Counters(),
		Cache:      svc.CacheCounters(),
	}
	if total := res.Cache.Hits + res.Cache.Misses; total > 0 {
		res.HitRate = float64(res.Cache.Hits) / float64(total)
	}
	return res, firstErr
}

// percentile reads the p-quantile (0..1) of an ascending-sorted slice
// using the nearest-rank method: rank = ceil(p * n). Degenerate windows
// are answered, never panicked on: an empty window reports 0 (a
// zero-request replay bucket has no latency, not a garbage one), a
// single-sample window reports its sample for every p, and p outside
// [0, 1] — including NaN, whose int conversion is platform-defined —
// clamps to the window's min/max rather than indexing out of range.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(p) || p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// E16 measures the serving layer under concurrent load: closed-loop
// workers replay the star/snowflake mix (half the requests alpha-renamed)
// against a fresh Service per worker count. Headline expectations (gated
// by TestE16ServeLoad and, for the exact counters, cmd/benchcheck):
//
//   - cache hit rate >= 50% on every worker count (repeated and
//     alpha-renamed shapes are served from the sharded plan cache);
//   - total backchase runs stay at the number of distinct shapes —
//     sublinear in the request count — because singleflight coalescing
//     and the cache make every later request O(chase + lookup);
//   - zero error responses.
//
// The workers=1 pass is fully deterministic (seeded schedule, serial
// service), so its cache_hits / cache_misses / backchase_runs metrics are
// gated exactly by the bench-regression pipeline; wall-clock derived
// numbers (throughput, p50/p99) are informational — CI runners are noisy.
func E16() (*Table, error) {
	mix, err := ServeMix()
	if err != nil {
		return nil, err
	}
	return serveLoadTable("E16", "Optimizer-as-a-service: load replay at 1/4/16 workers",
		mix, LoadConfig{AlphaRate: 0.5, Seed: 16})
}

// E17Mix extends the E16 mix with an asymmetric self-join over the
// IndexOnly relational scenario:
//
//	select struct(C1: r.C, C2: s.C) from R r, R s where r.A = s.B
//
// Two bindings range over the same relation R, so canonicalizing the
// binding order must break a tie between alpha-equivalent ranges — the
// exact spot where a raw-variable-name tie-break canonicalizes
// order-shuffled renames apart (and where swapping the bindings is NOT an
// automorphism: the condition and output tell r and s apart). The E16
// star/snowflake shapes never reach that tie-break (every binding ranges
// over a distinct schema name or a distinct dependent path), which is why
// the seed defect was invisible to E16 even under shuffled renames.
func E17Mix() ([]LoadQuery, error) {
	mix, err := ServeMix()
	if err != nil {
		return nil, err
	}
	io, err := workload.NewIndexOnly(5, 9)
	if err != nil {
		return nil, err
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
	if err := q.Validate(); err != nil {
		return nil, err
	}
	mix = append(mix, LoadQuery{Name: "selfjoin R", Req: service.Request{Query: q, Deps: io.Deps}})
	return mix, nil
}

// E17 is E16's adversarial twin: every request is an order-shuffling
// alpha-rename of its shape (LoadConfig.AlphaShuffle), the rename class
// the seed code's raw-name canonicalization tie-break split apart. With
// the renaming-invariant canonical form the shuffled replay must behave
// exactly like the order-preserving one: hit rate equal to a verbatim
// repeat of the mix, backchase runs equal to the distinct-shape count.
// The workers=1 counters are gated exactly by cmd/benchcheck, so any
// future canonicalization regression that is invisible to
// order-preserving renames fails CI here.
func E17() (*Table, error) {
	mix, err := E17Mix()
	if err != nil {
		return nil, err
	}
	// AlphaRate 0.5 mirrors E16: the verbatim half of the replay anchors
	// the original binding/name order, so a canonicalization that depends
	// on raw names must split the renamed half of the self-join shape
	// into a second class (a measured extra backchase run + misses),
	// while a renaming-invariant form keeps hit rate identical to E16's
	// order-preserving replay. At rate 1.0 the two-variable self-join
	// would only ever be seen reversed — one class, no split, no gate.
	return serveLoadTable("E17", "Serving under order-shuffling alpha-renames (canonicalization gate)",
		mix, LoadConfig{AlphaRate: 0.5, AlphaShuffle: true, Seed: 17})
}

// serveLoadTable runs the shared E16/E17 load replay: the mix against a
// fresh Service per worker count, with the alpha-rename policy taken from
// cfg (AlphaRate, AlphaShuffle, Seed).
func serveLoadTable(id, title string, mix []LoadQuery, cfg LoadConfig) (*Table, error) {
	tb := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"workers", "requests", "errors", "wall", "req/s", "p50", "p99", "hits", "misses", "hit rate", "coalesced", "backchase runs"},
		Metrics: map[string]float64{},
	}
	const requests = 160
	cfg.Requests = requests
	for _, workers := range []int{1, 4, 16} {
		// MinimalOnly is the serving configuration: the backchase (and
		// hence the cache entry and every gated counter) is identical,
		// but a cache-hit request skips re-ranking hundreds of explored
		// lattice states it will never execute — the difference between
		// ~50ms and ~1ms warm latency on this mix.
		svc := service.New(service.Options{MinimalOnly: true})
		cfg.Workers = workers
		res, err := RunLoad(context.Background(), svc, mix, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s workers=%d: %w", id, workers, err)
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%d", res.Requests),
			fmt.Sprintf("%d", res.Errors),
			res.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", res.Throughput),
			res.P50.Round(time.Microsecond).String(),
			res.P99.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", res.Cache.Hits),
			fmt.Sprintf("%d", res.Cache.Misses),
			fmt.Sprintf("%.2f", res.HitRate),
			fmt.Sprintf("%d", res.Service.Coalesced),
			fmt.Sprintf("%d", res.Service.BackchaseRuns),
		})
		if workers == 1 {
			// Deterministic pass: gated exactly by cmd/benchcheck.
			tb.Metrics["cache_hits"] = float64(res.Cache.Hits)
			tb.Metrics["cache_misses"] = float64(res.Cache.Misses)
			tb.Metrics["backchase_runs"] = float64(res.Service.BackchaseRuns)
			tb.Metrics["hit_rate"] = res.HitRate
		}
		tb.Metrics[fmt.Sprintf("throughput_w%d", workers)] = res.Throughput
		tb.Metrics[fmt.Sprintf("p99_w%d_ms", workers)] = float64(res.P99.Milliseconds())
	}
	renames := "order-preserving"
	if cfg.AlphaShuffle {
		renames = "order-shuffling"
	}
	tb.Notes = append(tb.Notes,
		fmt.Sprintf("mix: %d star/snowflake shapes, %d requests per worker count, %s alpha-rename rate %g, seed %d, MinimalOnly serving", len(mix), requests, renames, cfg.AlphaRate, cfg.Seed),
		"workers=1 counters are deterministic and gated exactly (cache_hits, cache_misses, backchase_runs); wall-clock numbers are informational",
		"backchase runs == distinct shapes: every other request is served by the plan cache or coalesced onto an in-progress flight")
	return tb, nil
}
