// Command cnbd serves the chase & backchase optimizer — and, with a
// registered data instance, the queries themselves — over HTTP: the
// paper's universal-plan optimizer as persistent infrastructure rather
// than a one-shot CLI. Requests from any number of concurrent clients
// share one internal/service.Service — a sharded plan table that stores
// finished plans and coalesces alpha-equivalent queries onto one flight,
// hot-swappable statistics and named hot-swappable instances, with
// delivered plans executed on the streaming batch engine.
//
// Endpoints: POST /optimize, POST /stats, POST /instance, GET /instance,
// POST /query, GET /metrics, GET /healthz. The request/response schemas,
// error codes and curl examples live in docs/API.md — the single source
// of truth for the HTTP surface.
//
// With -max-plan-latency set, serving is two-tiered: a request whose
// backchase flight misses the budget is answered from the instant greedy
// tier (tier "greedy" in /optimize and /query results) while the flight
// continues detached and stores its plan, so the shape's later requests
// are plan-cache hits — /metrics reports greedy_served, upgraded_flights,
// slot_waits and per-tier latency histograms (reset each scrape with
// -hist-reset-on-scrape).
//
// On SIGINT or SIGTERM the server stops accepting connections, lets the
// requests in flight finish and exits 0. A request still running after
// drainTimeout is cut off and the server exits 1; a second signal during
// the drain kills the process at once.
//
// Usage:
//
//	cnbd [-addr :8343] [-cache-size N]
//	     [-query-timeout 30s] [-max-plan-latency 0] [-hist-reset-on-scrape]
//	     [-pprof-addr addr]
//
// The backchase is serial. The -parallelism flag is still accepted, so
// older command lines keep working, and ignored.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"cnb/internal/cost"
	"cnb/internal/parser"
	"cnb/internal/service"
)

// queryResult is the JSON summary of one optimized query.
type queryResult struct {
	Name              string  `json:"name"`
	UniversalBindings int     `json:"universal_bindings"`
	ChaseSteps        int     `json:"chase_steps"`
	States            int     `json:"states"`
	MinimalPlans      int     `json:"minimal_plans"`
	Candidates        int     `json:"candidates"`
	BestPlan          string  `json:"best_plan,omitempty"`
	BestCost          float64 `json:"best_cost"`
	Tier              string  `json:"tier"`
	Upgraded          bool    `json:"upgraded,omitempty"`
	CacheHit          bool    `json:"cache_hit"`
	Coalesced         bool    `json:"coalesced"`
	Fallback          bool    `json:"fallback,omitempty"`
	Inconsistent      bool    `json:"inconsistent,omitempty"`
	WallMS            float64 `json:"wall_ms"`
}

type optimizeResponse struct {
	Design  string        `json:"design,omitempty"`
	Queries []queryResult `json:"queries"`
}

// execMeasure is the executed plan's work profile, the counters
// StreamPlan.Measure reports (see internal/engine).
type execMeasure struct {
	Evals   int64 `json:"evals"`
	Rows    int64 `json:"rows"`
	OutRows int64 `json:"out_rows"`
}

// execResult is the JSON outcome of one executed (or explained) query.
type execResult struct {
	Name       string      `json:"name"`
	Plan       string      `json:"plan"`
	EstCost    float64     `json:"est_cost"`
	Tier       string      `json:"tier"`
	Upgraded   bool        `json:"upgraded,omitempty"`
	CacheHit   bool        `json:"cache_hit"`
	Coalesced  bool        `json:"coalesced"`
	Skipped    int         `json:"skipped,omitempty"`
	Rows       []any       `json:"rows,omitempty"`
	ResultRows int         `json:"result_rows"`
	Truncated  bool        `json:"truncated,omitempty"`
	Explain    string      `json:"explain,omitempty"`
	Measure    execMeasure `json:"measure"`
	PlanMS     float64     `json:"plan_ms"`
	ExecMS     float64     `json:"exec_ms"`
	WallMS     float64     `json:"wall_ms"`
}

type execResponse struct {
	Instance string       `json:"instance"`
	Design   string       `json:"design,omitempty"`
	Queries  []execResult `json:"queries"`
}

type server struct {
	svc          *service.Service
	queryTimeout time.Duration
	start        time.Time
	// histResetOnScrape makes every GET /metrics response snapshot the
	// per-tier latency histograms and then zero them, so each scrape
	// reports the interval since the previous one (-hist-reset-on-scrape).
	histResetOnScrape bool
	// parse parses a request body: a DesignCache's Parse, so a design
	// sent again is not parsed again.
	parse func(src string) (*parser.Document, error)
}

// newServer builds the shared service and its HTTP mux; split from main
// so handler tests can drive the exact production routing.
func newServer(opts service.Options, queryTimeout time.Duration) (*server, *http.ServeMux) {
	s := &server{
		svc:          service.New(opts),
		queryTimeout: queryTimeout,
		start:        time.Now(),
		parse:        parser.NewDesignCache().Parse,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /optimize", s.handleOptimize)
	mux.HandleFunc("POST /stats", s.handleStats)
	mux.HandleFunc("POST /instance", s.handleInstance)
	mux.HandleFunc("GET /instance", s.handleInstanceList)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, mux
}

func main() {
	var (
		addr         = flag.String("addr", ":8343", "listen address")
		cacheSize    = flag.Int("cache-size", 0, "plan cache entry bound (0 = default, <0 = unbounded)")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "server-side execution deadline per /query request (0 = none)")
		maxPlanLat   = flag.Duration("max-plan-latency", 0, "plan-latency SLO: serve the greedy tier when the backchase flight misses this budget (0 = synchronous)")
		histReset    = flag.Bool("hist-reset-on-scrape", false, "zero the per-tier latency histograms after every GET /metrics, so each scrape reports the interval since the previous one")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	)
	flag.Int("parallelism", 0, "deprecated: ignored; the backchase is serial")
	flag.Parse()

	srv0, mux := newServer(service.Options{
		CacheSize:      *cacheSize,
		MaxPlanLatency: *maxPlanLat,
	}, *queryTimeout)
	srv0.histResetOnScrape = *histReset

	if *pprofAddr != "" {
		// The pprof handlers self-register on DefaultServeMux (blank
		// import above); serving them on their own listener keeps the
		// profiling surface off the public API address.
		go func() {
			log.Printf("pprof listening on %s (e.g. go tool pprof http://%s/debug/pprof/profile?seconds=10)", *pprofAddr, *pprofAddr)
			srv := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			log.Printf("pprof server stopped: %v", srv.ListenAndServe())
		}()
	}

	log.Printf("cnbd listening on %s (max-plan-latency=%v)", *addr, *maxPlanLat)
	srv := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := serve(srv); err != nil {
		log.Fatal(err)
	}
	log.Printf("cnbd stopped")
}

// drainTimeout bounds how long requests in flight get to finish after
// SIGINT or SIGTERM.
const drainTimeout = 10 * time.Second

// serve runs srv until it fails or the process gets SIGINT or SIGTERM.
// Then it shuts srv down: the listener closes at once and requests in
// flight get up to drainTimeout to finish; any still running after that
// are closed and serve reports the timeout. The signals are released
// when the first one arrives, so a second one kills the process as
// usual. It returns nil on a clean shutdown. Detached backchase flights
// (the two-tier mode) are not waited for.
func serve(srv *http.Server) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("cnbd shutting down; draining requests for up to %v", drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// handleOptimize parses the posted cnb document and optimizes every query
// in it through the shared service.
func (s *server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	src, ok := readBody(w, r)
	if !ok {
		return
	}
	doc, target, ok := s.parseDocument(w, r, src)
	if !ok {
		return
	}
	resp := optimizeResponse{}
	if target.Design != nil {
		resp.Design = target.Design.Name
	}

	for _, name := range doc.QueryOrder {
		q := doc.Queries[name]
		start := time.Now()
		res, err := s.svc.Optimize(r.Context(), service.Request{
			Query:         q,
			Deps:          target.Deps,
			PhysicalNames: target.PhysicalNames,
		})
		if err != nil {
			httpError(w, errStatus(r, err), "query %s: %v", name, err)
			return
		}
		qr := queryResult{
			Name:              name,
			UniversalBindings: len(res.Result.Universal.Bindings),
			ChaseSteps:        len(res.Result.ChaseSteps),
			States:            res.Result.States,
			MinimalPlans:      len(res.Result.Minimal),
			Candidates:        len(res.Result.Candidates),
			Tier:              string(res.Tier),
			Upgraded:          res.Upgraded,
			CacheHit:          res.CacheHit,
			Coalesced:         res.Coalesced,
			Fallback:          res.Result.Fallback,
			Inconsistent:      res.Result.Inconsistent,
			WallMS:            float64(time.Since(start).Microseconds()) / 1000,
		}
		if res.Result.Best != nil {
			qr.BestPlan = res.Result.Best.Query.String()
			qr.BestCost = res.Result.Best.Cost
		}
		resp.Queries = append(resp.Queries, qr)
	}
	writeJSON(w, resp)
}

// handleQuery optimizes AND executes every query of the posted cnb
// document against the instance named by ?instance. ?explain=1 returns
// the streaming operator tree instead of rows, ?max_rows caps the
// result encoding, ?timeout_ms overrides the server-side deadline.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	src, ok := readBody(w, r)
	if !ok {
		return
	}
	instName := r.URL.Query().Get("instance")
	if instName == "" {
		httpError(w, http.StatusBadRequest, "query: missing ?instance=NAME")
		return
	}
	explain := r.URL.Query().Get("explain") != ""
	maxRows := 0
	if mr := r.URL.Query().Get("max_rows"); mr != "" {
		n, err := strconv.Atoi(mr)
		if err != nil {
			httpError(w, http.StatusBadRequest, "query: bad max_rows %q", mr)
			return
		}
		maxRows = n
	}
	timeout := s.queryTimeout
	if tm := r.URL.Query().Get("timeout_ms"); tm != "" {
		n, err := strconv.Atoi(tm)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "query: bad timeout_ms %q", tm)
			return
		}
		timeout = time.Duration(n) * time.Millisecond
	}
	doc, target, ok := s.parseDocument(w, r, src)
	if !ok {
		return
	}

	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	resp := execResponse{Instance: instName}
	if target.Design != nil {
		resp.Design = target.Design.Name
	}
	for _, name := range doc.QueryOrder {
		start := time.Now()
		qres, err := s.svc.Query(ctx, service.QueryRequest{
			Request: service.Request{
				Query:         doc.Queries[name],
				Deps:          target.Deps,
				PhysicalNames: target.PhysicalNames,
			},
			Instance: instName,
			MaxRows:  maxRows,
			Explain:  explain,
		})
		if err != nil {
			httpError(w, errStatus(r, err), "query %s: %v", name, err)
			return
		}
		er := execResult{
			Name:       name,
			Plan:       qres.Plan,
			EstCost:    qres.EstCost,
			Tier:       string(qres.Optimize.Tier),
			Upgraded:   qres.Optimize.Upgraded,
			CacheHit:   qres.Optimize.CacheHit,
			Coalesced:  qres.Optimize.Coalesced,
			Skipped:    qres.Skipped,
			ResultRows: qres.ResultRows,
			Truncated:  qres.Truncated,
			Explain:    qres.Explain,
			Measure: execMeasure{
				Evals:   qres.Measure.Evals,
				Rows:    qres.Measure.Rows,
				OutRows: qres.Measure.OutRows,
			},
			PlanMS: float64(qres.PlanDur.Microseconds()) / 1000,
			ExecMS: float64(qres.ExecDur.Microseconds()) / 1000,
			WallMS: float64(time.Since(start).Microseconds()) / 1000,
		}
		if !explain {
			er.Rows = make([]any, 0, len(qres.Rows))
			for _, v := range qres.Rows {
				er.Rows = append(er.Rows, service.ValueJSON(v))
			}
		}
		resp.Queries = append(resp.Queries, er)
	}
	writeJSON(w, resp)
}

// handleInstance installs (or atomically replaces) a named instance from
// the posted spec — a workload generator spec or inline data rows (see
// buildInstance and docs/API.md).
func (s *server) handleInstance(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "instance: missing ?name=NAME")
		return
	}
	in, err := buildInstance(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}
	sum, err := s.svc.InstallInstance(name, in)
	if err != nil {
		httpError(w, http.StatusBadRequest, "instance: %v", err)
		return
	}
	writeJSON(w, map[string]any{
		"installed":   true,
		"name":        sum.Name,
		"collections": sum.Collections,
		"rows":        sum.Rows,
		"cards":       sum.Cards,
	})
}

// handleInstanceList reports the summary of every registered instance.
func (s *server) handleInstanceList(w http.ResponseWriter, r *http.Request) {
	sums := s.svc.Instances()
	out := make([]map[string]any, 0, len(sums))
	for _, sum := range sums {
		out = append(out, map[string]any{
			"name":        sum.Name,
			"collections": sum.Collections,
			"rows":        sum.Rows,
			"cards":       sum.Cards,
		})
	}
	writeJSON(w, map[string]any{"instances": out})
}

// handleStats installs a new statistics snapshot. The body is a JSON
// object using internal/cost.Stats field names; omitted fields keep
// NewStats defaults. Unknown fields, trailing data and statistics
// cost.Stats.Validate rejects are a 400 naming the field.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	st := cost.NewStats()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(st); err != nil {
		httpError(w, http.StatusBadRequest, "stats: %v", err)
		return
	}
	if dec.More() {
		httpError(w, http.StatusBadRequest, "stats: trailing data after the JSON object")
		return
	}
	if err := st.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "stats: %v", err)
		return
	}
	s.svc.SetStats(st)
	writeJSON(w, map[string]any{
		"installed":   true,
		"fingerprint": st.Fingerprint(),
	})
}

// kv is one key of an orderedObj.
type kv struct {
	k string
	v any
}

// orderedObj is a JSON object whose keys marshal in insertion order.
// /metrics renders through it so the whole document — including the
// per-instance section, inserted in Instances()'s name-sorted order —
// has one deterministic key order and successive scrapes diff cleanly
// line by line (a plain map hands the layout to encoding/json instead
// of the handler, and anything non-map, like a struct, would freeze the
// dynamic instance names out entirely). TestMetricsKeyOrder pins the
// rendered order.
type orderedObj []kv

// MarshalJSON renders the object with keys in insertion order. Nested
// values go back through json.Marshal, so nested orderedObj values
// order their keys the same way.
func (o orderedObj) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, e := range o {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, err := json.Marshal(e.k)
		if err != nil {
			return nil, err
		}
		b.Write(kb)
		b.WriteByte(':')
		vb, err := json.Marshal(e.v)
		if err != nil {
			return nil, err
		}
		b.Write(vb)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// histogramJSON renders one per-tier latency snapshot: the bucket
// layout is log2 microseconds (buckets[0] is <1µs, buckets[i] covers
// [2^(i-1), 2^i) µs, the last bucket absorbs everything larger) and
// total is the exact sum of buckets — the number of requests recorded.
func histogramJSON(h service.HistogramSnapshot) orderedObj {
	return orderedObj{
		{"total", h.Total},
		{"buckets", h.Counts},
	}
}

// handleMetrics dumps every counter the serving layer maintains,
// including the cumulative executed-query accounting per instance and
// the per-tier latency histograms. With -hist-reset-on-scrape the
// histograms are zeroed after the snapshot, so each scrape reports the
// interval since the previous one.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.svc.Counters()
	cc := s.svc.CacheCounters()
	m := s.svc.ChaseMetrics()
	h := s.svc.Histograms()
	if s.histResetOnScrape {
		s.svc.ResetHistograms()
	}
	instances := orderedObj{}
	for _, sum := range s.svc.Instances() {
		qc, _ := s.svc.InstanceCountersFor(sum.Name)
		instances = append(instances, kv{sum.Name, orderedObj{
			{"collections", sum.Collections},
			{"data_rows", sum.Rows},
			{"queries", qc.Queries},
			{"rows_emitted", qc.Rows},
			{"evals", qc.Evals},
			{"plan_errors", qc.PlanErrors},
			{"exec_errors", qc.ExecErrors},
		}})
	}
	writeJSON(w, orderedObj{
		{"uptime_seconds", time.Since(s.start).Seconds()},
		{"requests", c.Requests},
		{"errors", c.Errors},
		{"coalesced", c.Coalesced},
		{"flights", c.Flights},
		{"backchase_runs", c.BackchaseRuns},
		{"stats_swaps", c.StatsSwaps},
		{"greedy_served", c.GreedyServed},
		{"upgraded_flights", c.Upgraded},
		{"slot_waits", c.SlotWaits},
		{"cache", orderedObj{
			{"hits", cc.Hits},
			{"misses", cc.Misses},
			{"evictions", cc.Evictions},
			{"entries", s.svc.CacheLen()},
		}},
		{"chase", orderedObj{
			{"runs", m.Runs.Load()},
			{"steps", m.ChaseSteps.Load()},
			{"hom_tests", m.HomTests.Load()},
			{"dep_searches", m.DepSearches.Load()},
		}},
		{"histograms", orderedObj{
			{"bucket_unit", "log2_us"},
			{"greedy", histogramJSON(h.Greedy)},
			{"backchase_sync", histogramJSON(h.BackchaseSync)},
			{"backchase_upgraded", histogramJSON(h.BackchaseUpgraded)},
			{"query_plan", histogramJSON(h.QueryPlan)},
			{"query_exec", histogramJSON(h.QueryExec)},
		}},
		{"instances", instances},
	})
}

// parseDocument parses a cnb source body through the server's design
// cache and resolves the target shared by /optimize and /query: the
// design named by ?design (see parser.Document.Target). On failure it
// writes the HTTP error itself and returns ok=false.
func (s *server) parseDocument(w http.ResponseWriter, r *http.Request, src []byte) (*parser.Document, *parser.Target, bool) {
	doc, err := s.parse(string(src))
	if err != nil {
		httpError(w, http.StatusBadRequest, "parse: %v", err)
		return nil, nil, false
	}
	target, err := doc.Target(r.URL.Query().Get("design"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}
	if len(doc.QueryOrder) == 0 {
		httpError(w, http.StatusBadRequest, "document declares no queries")
		return nil, nil, false
	}
	return doc, target, true
}

// errStatus maps a service error onto its HTTP status: an unknown
// instance is the client's 404, a deadline/cancellation is 408, and
// anything else — optimizer refusals, non-executable plans, failing
// lookups on the instance data — is a 422.
func errStatus(r *http.Request, err error) int {
	switch {
	case errors.Is(err, service.ErrUnknownInstance):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
		return http.StatusRequestTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// readBody reads a bounded request body (1 MiB: documents are source
// text, not data). Only an actual limit overrun is a 413; any other read
// failure (client disconnect, malformed chunking) is the client's 400.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "read body: %v", err)
		return nil, false
	}
	return body, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("write response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg := fmt.Sprintf(format, args...)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": msg}); err != nil {
		log.Printf("write error response: %v", err)
	}
}
