// Command cnbbench is the repository's benchmark: it builds nothing
// itself (run.sh builds cnbd and this program from the tree), starts
// cnbd on loopback with -parallelism 1 and a -pprof-addr, and drives it
// with one closed-loop client for one workload. It checks every
// response, reads the server's counters from outside, and prints the
// metrics as one JSON line last. With -trace 1 it prints the per-layer
// metrics instead, adding an in-process traced replay and a layer
// replay. README.md gives the workloads and the reasons behind them.
//
// Usage:
//
//	cnbbench -cnbd BIN -workload warm_query|cold_plan|scan_exec -seed N -seconds S -trace 0|1 [-out DIR]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/parser"
	"cnb/internal/service"
	"cnb/internal/workload"
)

// setupReps is how many times a -trace 0 run sets the server up; setup_s
// is their median.
const setupReps = 3

// gcRadius is how many requests on each side a request's CPU time is
// averaged with. A GC cycle runs on the CPU time of whichever request is
// in flight: at scan_exec's 53 MB per request every second request
// carries one, and the median of unsmoothed times hops between the
// two modes from run to run.
const gcRadius = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		bin     = flag.String("cnbd", "", "cnbd binary to benchmark")
		wl      = flag.String("workload", "", "warm_query, cold_plan or scan_exec")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = print per-layer metrics (adds the traced replay)")
		out     = flag.String("out", ".", "directory for the span files of -trace 1")
	)
	flag.Parse()
	spec, ok := workloads[*wl]
	if !ok || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "cnbbench: need -cnbd, -workload one of %v, -seconds >= 1, -trace 0|1\n", sortedKeys(workloads))
		os.Exit(2)
	}
	res, err := run(context.Background(), *bin, spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cnbbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cnbbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// reference is the benchmark's own copy of the generated instance, for
// the output checks.
type reference struct {
	in        *instance.Instance
	custCount map[string]int
	projRows  int
}

func newReference(spec workloadSpec, seed int64) (*reference, error) {
	pd, err := workload.NewProjDept()
	if err != nil {
		return nil, err
	}
	in := pd.Generate(spec.genOptions(seed))
	ref := &reference{in: in, custCount: map[string]int{}}
	proj, _ := in.Lookup("Proj")
	for _, row := range proj.(*instance.Set).Elems() {
		c, _ := row.(*instance.Struct).Field("CustName")
		ref.custCount[string(c.(instance.Str))]++
		ref.projRows++
	}
	return ref, nil
}

// expected is the result cardinality of the request with this constant.
func (r *reference) expected(constant string) int {
	if constant == "" {
		return r.projRows
	}
	return r.custCount[constant]
}

// rows evaluates the query of body on the reference instance and returns
// each result row as canonical JSON, sorted. The §1 query goes through
// eval's nested loops; the join would take 2·10^9 of them at 10^5 rows,
// so it runs its unoptimized logical form on the engine instead.
func (r *reference) rows(ctx context.Context, body string) ([]string, error) {
	doc, err := parser.Parse(body)
	if err != nil {
		return nil, err
	}
	q := doc.Queries[doc.QueryOrder[0]]
	var set *instance.Set
	if r.projRows <= 1000 {
		set, err = eval.Query(q, r.in)
	} else {
		var p *engine.StreamPlan
		if p, err = engine.CompileStream(q, r.in, engine.StreamOptions{}); err == nil {
			set, err = p.Run(ctx)
		}
	}
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, set.Len())
	for _, v := range set.Elems() {
		b, err := json.Marshal(service.ValueJSON(v))
		if err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out, nil
}

// canonicalRows re-encodes response rows so they compare with
// reference.rows (object keys sorted, numbers as sent).
func canonicalRows(raw []json.RawMessage) ([]string, error) {
	out := make([]string, 0, len(raw))
	for _, r := range raw {
		var v any
		dec := json.NewDecoder(bytes.NewReader(r))
		dec.UseNumber()
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out, nil
}

// checker validates responses and counts the failures.
type checker struct {
	spec workloadSpec
	ref  *reference
	// cost is the cold_plan cheapest cost fixed by the first setup
	// response (0 until then).
	cost   float64
	failed int
	first  string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

// check validates one response against the expected cardinality, and on
// cold_plan against the cheapest cost found at setup.
func (c *checker) check(res *execResult, err error, constant string) bool {
	if err != nil {
		c.fail("request failed: %v", err)
		return false
	}
	if want := c.ref.expected(constant); res.ResultRows != want {
		c.fail("constant %q: %d result rows, want %d", constant, res.ResultRows, want)
		return false
	}
	if c.spec.name == "cold_plan" {
		if c.cost == 0 {
			c.cost = res.EstCost
		}
		if res.EstCost != c.cost {
			c.fail("est_cost %g, want the setup's cheapest %g", res.EstCost, c.cost)
			return false
		}
	}
	return true
}

// setupTimes is how long one set-up took: wall time from process start to
// warm-up done, the instance install's share of it, and cnbd's CPU time
// over all of it.
type setupTimes struct {
	wall, install, cpu time.Duration
}

// setupOnce starts cnbd, installs the workload's instance and sends the
// warm-up requests. It returns the server, the stream positioned after
// the warm-up, and the set-up's times.
func setupOnce(ctx context.Context, bin string, spec workloadSpec, seed int64, chk *checker) (*server, *requestStream, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	srv, err := startServer(ctx, bin)
	if err != nil {
		return nil, nil, st, err
	}
	t := time.Now()
	if _, err := srv.post("/instance?name="+spec.name, spec.instanceBody(seed)); err != nil {
		srv.stop()
		return nil, nil, st, err
	}
	st.install = time.Since(t)
	stream := newRequestStream(spec, seed)
	type warm struct {
		res      *execResult
		err      error
		constant string
	}
	warms := make([]warm, 0, spec.warmup)
	for i := 0; i < spec.warmup; i++ {
		body, constant := stream.Next()
		res, _, err := srv.query(spec.name, body, 0)
		warms = append(warms, warm{res, err, constant})
	}
	st.wall = time.Since(start)
	if st.cpu, err = cpuTime(srv.pid()); err != nil {
		srv.stop()
		return nil, nil, st, err
	}
	for _, w := range warms {
		chk.check(w.res, w.err, w.constant)
	}
	return srv, stream, st, nil
}

// window is one timed closed-loop window's raw observations.
type window struct {
	elapsed   time.Duration
	rtt       []float64 // ms
	cpu       []float64 // cnbd CPU ms from each request's send to the next's
	cal       []float64 // calibration ms after each request
	scale     float64   // calRef / median(cal)
	outside   []float64 // rtt - response wall_ms: parse, encode, transport
	planMS    []float64
	execMS    []float64
	execWork  float64 // sum of measure.evals + measure.rows
	attempted int
	failed    int
	before    counters
	after     counters
	peakRSSKB int64
}

// runWindow drives the closed loop for d: one client, the next request
// sent when the previous response has been read.
func runWindow(srv *server, spec workloadSpec, stream *requestStream, d time.Duration, chk *checker) (*window, error) {
	w := &window{}
	// Reading order keeps only requests between the heap samples:
	// metrics, heap | requests | heap, heap, metrics.
	if err := srv.readMetrics(&w.before); err != nil {
		return nil, err
	}
	if err := srv.readHeap(&w.before); err != nil {
		return nil, err
	}
	failedBefore := chk.failed
	// A request's CPU time runs from its send to the next request's, so
	// GC work a request leaves behind after its response is counted too.
	cpu0, err := cpuTime(srv.pid())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		body, constant := stream.Next()
		res, rtt, qerr := srv.query(spec.name, body, 0)
		w.attempted++
		w.rtt = append(w.rtt, float64(rtt.Nanoseconds())/1e6)
		w.cal = append(w.cal, calibrateFor(w.rtt[len(w.rtt)-1], calShare))
		cpu1, err := cpuTime(srv.pid())
		if err != nil {
			return nil, err
		}
		w.cpu = append(w.cpu, float64((cpu1-cpu0).Nanoseconds())/1e6)
		cpu0 = cpu1
		if !chk.check(res, qerr, constant) {
			continue
		}
		w.outside = append(w.outside, float64(rtt.Nanoseconds())/1e6-res.WallMS)
		w.planMS = append(w.planMS, res.PlanMS)
		w.execMS = append(w.execMS, res.ExecMS)
		w.execWork += float64(res.Measure.Evals + res.Measure.Rows)
	}
	w.elapsed = time.Since(start)
	w.scale = calRef / median(w.cal)
	w.failed = chk.failed - failedBefore
	// The first closing heap read counts its own rendering inside the
	// window; an identical second read measures that cost to subtract.
	var again counters
	if err := srv.readHeap(&w.after); err != nil {
		return nil, err
	}
	if err := srv.readHeap(&again); err != nil {
		return nil, err
	}
	w.after.Mallocs -= again.Mallocs - w.after.Mallocs
	w.after.TotalAlloc -= again.TotalAlloc - w.after.TotalAlloc
	if err := srv.readMetrics(&w.after); err != nil {
		return nil, err
	}
	if w.peakRSSKB, err = procStatusKB(srv.pid(), "VmHWM"); err != nil {
		return nil, err
	}
	return w, nil
}

// identities checks the window's server counters: every request is a
// cache hit, a miss or a coalesced waiter; no request errored; and the
// workload exercised the cache as designed (cold_plan runs one backchase
// per request, the others none).
func identities(spec workloadSpec, w *window) []string {
	b, a := w.before, w.after
	req := a.Requests - b.Requests
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	coal := a.Coalesced - b.Coalesced
	runs := a.BackchaseRuns - b.BackchaseRuns
	var bad []string
	if hits+misses+coal != req {
		bad = append(bad, fmt.Sprintf("cache.hits+cache.misses+coalesced = %d, requests = %d", hits+misses+coal, req))
	}
	if a.Errors != b.Errors {
		bad = append(bad, fmt.Sprintf("errors moved by %d", a.Errors-b.Errors))
	}
	if runs != misses {
		bad = append(bad, fmt.Sprintf("backchase_runs = %d, cache.misses = %d", runs, misses))
	}
	if req != int64(w.attempted) {
		bad = append(bad, fmt.Sprintf("server saw %d requests, client sent %d", req, w.attempted))
	}
	wantRuns := int64(0)
	if spec.name == "cold_plan" {
		wantRuns = req
	}
	if runs != wantRuns {
		bad = append(bad, fmt.Sprintf("%d backchase runs for %d requests, want %d", runs, req, wantRuns))
	}
	return bad
}

// runProcess sets one cnbd process up, optionally runs the output
// checks on it, times a window of d and stops it. It returns the window
// and the set-up's times.
func runProcess(ctx context.Context, bin string, spec workloadSpec, seed int64, d time.Duration, chk *checker, outputChecks bool) (*window, setupTimes, error) {
	srv, stream, st, err := setupOnce(ctx, bin, spec, seed, chk)
	if err != nil {
		return nil, st, fmt.Errorf("setup: %w", err)
	}
	defer srv.stop()
	if outputChecks {
		if err := checkOutputs(ctx, srv, spec, seed, chk); err != nil {
			return nil, st, err
		}
	}
	w, err := runWindow(srv, spec, stream, d, chk)
	if err != nil {
		return nil, st, fmt.Errorf("window: %w", err)
	}
	return w, st, nil
}

// checkOutputs sends one request per distinct shape, untimed, and
// compares its full result row for row with the reference evaluation.
func checkOutputs(ctx context.Context, srv *server, spec workloadSpec, seed int64, chk *checker) error {
	checks := newCheckStream(spec, seed)
	for i := 0; i < spec.checkDistinct; i++ {
		body, constant := checks.Next()
		res, _, err := srv.query(spec.name, body, -1)
		if !chk.check(res, err, constant) {
			continue
		}
		want, err := chk.ref.rows(ctx, body)
		if err != nil {
			return fmt.Errorf("reference evaluation: %w", err)
		}
		got, err := canonicalRows(res.Rows)
		if err != nil {
			return fmt.Errorf("decode rows: %w", err)
		}
		if !slices.Equal(got, want) {
			chk.fail("constant %q: %d rows differ from the reference's %d", constant, len(got), len(want))
		}
	}
	return nil
}

// run performs one benchmark run and returns its result line. A -trace 0
// run sets cnbd up setupReps times and times an equal share of the
// window on each process, so no single process's heap layout and GC
// phase decides the result; a -trace 1 run uses one process.
func run(ctx context.Context, bin string, spec workloadSpec, seed int64, d time.Duration, traced bool, outDir string) (*result, error) {
	ref, err := newReference(spec, seed)
	if err != nil {
		return nil, err
	}
	chk := &checker{spec: spec, ref: ref}
	procs := setupReps
	if traced {
		procs = 1
	}
	var (
		parts                        []*window
		setups, wallSetups, installs []float64
		bad                          []string
	)
	for r := 0; r < procs; r++ {
		w, st, err := runProcess(ctx, bin, spec, seed, d/time.Duration(procs), chk, r == 0)
		if err != nil {
			return nil, err
		}
		parts = append(parts, w)
		setups = append(setups, st.cpu.Seconds()*w.scale)
		wallSetups = append(wallSetups, st.wall.Seconds())
		installs = append(installs, st.install.Seconds())
		bad = append(bad, identities(spec, w)...)
	}

	var (
		rtt, cal, cpu       []float64
		peaks               []float64
		elapsed             time.Duration
		attempted, failed   int
		mallocs, totalAlloc int64
		execWork, cpuTotal  float64
	)
	for _, w := range parts {
		rtt = append(rtt, w.rtt...)
		cal = append(cal, w.cal...)
		for _, v := range movingMean(w.cpu, gcRadius) {
			cpu = append(cpu, v*w.scale)
		}
		cpuTotal += sumOf(w.cpu) * w.scale
		peaks = append(peaks, float64(w.peakRSSKB)/1024)
		elapsed += w.elapsed
		attempted += w.attempted
		failed += w.failed
		mallocs += w.after.Mallocs - w.before.Mallocs
		totalAlloc += w.after.TotalAlloc - w.before.TotalAlloc
		execWork += w.execWork
	}
	for _, b := range bad {
		fmt.Printf("invalid window: %s\n", b)
	}
	if n := chk.failed - failed; n > 0 {
		fmt.Printf("%d checks failed outside the window; first failure: %s\n", n, chk.first)
	}
	if failed > 0 {
		fmt.Printf("%d requests in the window failed; first failure: %s\n", failed, chk.first)
	}
	res := &result{
		Correct:   len(bad) == 0 && chk.failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	ok := float64(attempted - failed)
	if ok < 1 {
		return nil, fmt.Errorf("no request in the window succeeded")
	}
	fmt.Printf("workload %s, seed %d: %d requests in %.2fs over %d cnbd processes, one closed-loop client\n",
		spec.name, seed, attempted, elapsed.Seconds(), procs)

	if !traced {
		wp, wallTail, _, _ := tail(rtt)
		fmt.Printf("wall clock at this host's speed: %.3f req/s, round trip p50 %.3f ms, p%g %.3f ms, set-up %.3f s\n",
			ok*1000/sumOf(rtt), median(rtt), wp, wallTail, median(wallSetups))
		fmt.Printf("calibration kernel median %.4f ms (reference %.2f ms)\n", median(cal), calRef)
		p, tailV, beyond, tailOK := tail(cpu)
		note := ""
		if !tailOK {
			note = " (too few samples for a tail; median shown)"
		}
		fmt.Printf("cpu_ms_tail is p%g of %d samples, %d beyond%s\n", p, len(cpu), beyond, note)
		fmt.Printf("error_rate %g\n", float64(failed)/float64(attempted))
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("ops_per_cpu_s", "1/s", ok*1000/cpuTotal)
		put("cpu_ms_p50", "ms", median(cpu))
		put("cpu_ms_tail", "ms", tailV)
		put("setup_s", "s", median(setups))
		put("server_allocs_per_op", "count", float64(mallocs)/float64(attempted))
		put("server_alloc_kb_per_op", "KiB", float64(totalAlloc)/1024/float64(attempted))
		put("peak_rss_mb", "MiB", median(peaks))
		put("exec_work_per_op", "count", execWork/ok)
		printMetrics(res.Metrics)
		return res, nil
	}

	w := parts[0]
	layers, err := perLayer(ctx, spec, seed, ref, w, installs[0], outDir)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	printMetrics(res.Metrics)
	return res, nil
}

// perLayer gathers the per-layer metrics of a -trace 1 run: window
// deltas of the server's counters, response fields, the traced replay's
// self times and the layer replay.
func perLayer(ctx context.Context, spec workloadSpec, seed int64, ref *reference, w *window, installS float64, outDir string) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	b, a := w.before, w.after
	n := float64(a.Requests - b.Requests)
	bi, ai := b.Instances[spec.name], a.Instances[spec.name]

	put("cnbd.outside_ms_p50", "ms", median(w.outside))
	put("service.plan_ms_p50", "ms", median(w.planMS))
	put("service.exec_ms_p50", "ms", median(w.execMS))
	put("service.flights_per_op", "count", float64(a.Flights-b.Flights)/n)
	put("chase.runs_per_op", "count", float64(a.Chase.Runs-b.Chase.Runs)/n)
	put("chase.steps_per_op", "count", float64(a.Chase.Steps-b.Chase.Steps)/n)
	put("chase.hom_tests_per_op", "count", float64(a.Chase.HomTests-b.Chase.HomTests)/n)
	put("chase.dep_searches_per_op", "count", float64(a.Chase.DepSearches-b.Chase.DepSearches)/n)
	put("backchase.runs_per_op", "count", float64(a.BackchaseRuns-b.BackchaseRuns)/n)
	hits, misses := float64(a.Cache.Hits-b.Cache.Hits), float64(a.Cache.Misses-b.Cache.Misses)
	put("backchase.cache_hit_ratio", "ratio", hits/(hits+misses))
	put("engine.evals_per_op", "count", float64(ai.Evals-bi.Evals)/n)
	put("engine.rows_per_op", "count", float64(ai.RowsEmitted-bi.RowsEmitted)/n)
	put("instance.install_s", "s", installS)

	// The traced replay gets half the window: its per-op figures need far
	// fewer samples than the end-to-end tail.
	tr, traced, svc, err := tracedRun(ctx, spec, seed, ref.in, w.elapsed/2)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	path, err := writeSpans(outDir, fmt.Sprintf("%s-seed%d", spec.name, seed), tr)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	self := tr.selfPerOp(traced)
	e2e := mean(w.rtt)
	fmt.Printf("traced replay: %d requests, spans in %s\n", traced, path)
	fmt.Printf("  %-16s %10s %8s\n", "layer", "self ms/op", "share")
	var attributed float64
	for _, l := range traceLayers {
		v := self[l.span]
		attributed += v
		put(l.metric, "ms", v)
		fmt.Printf("  %-16s %10.3f %7.1f%%\n", l.span, v, 100*v/e2e)
	}
	tracedTotal := attributed + self["request"]
	fmt.Printf("  traced per-op %.3f ms, end-to-end per-op %.3f ms: transport + tracing overhead %.3f ms\n", tracedTotal, e2e, e2e-tracedTotal)
	put("trace.unattributed_share", "ratio", (e2e-attributed)/e2e)
	fmt.Printf("  unattributed share of end-to-end per-op time: %.1f%%\n", 100*(e2e-attributed)/e2e)

	replay, err := layerReplay(ctx, spec, seed, ref.in, svc)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	units := map[string]string{
		"parser.parse_ms": "ms", "parser.allocs": "count",
		"core.canon_sig_us": "us", "core.canon_sig_allocs": "count",
		"chase.chase_ms": "ms", "backchase.enum_ms": "ms", "backchase.states": "count",
		"backchase.plans_per_state": "ratio", "cost.rank_ms": "ms", "cost.rank_candidates": "count",
		"engine.compile_us": "us", "engine.run_ms": "ms", "engine.rows_per_s": "1/s",
		"instance.elems_ms": "ms",
	}
	for k, v := range replay {
		put(k, units[k], v)
	}
	return m, nil
}

func printMetrics(m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("%-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
