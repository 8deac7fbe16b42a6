package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"cnb/internal/backchase"
	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/instance"
	"cnb/internal/parser"
	"cnb/internal/service"
)

// assemble turns a parsed document into the service request cnbd builds
// for it: the single design's dependencies plus every schema's, with the
// design's physical names as the plan restriction.
func assemble(doc *parser.Document) (service.Request, error) {
	if len(doc.QueryOrder) != 1 || len(doc.Designs) != 1 {
		return service.Request{}, fmt.Errorf("want one query and one design, got %d and %d", len(doc.QueryOrder), len(doc.Designs))
	}
	var req service.Request
	for _, d := range doc.Designs {
		req.Deps = append(req.Deps, d.Deps...)
		req.PhysicalNames = d.Physical.NameSet()
	}
	for _, sc := range doc.Schemas {
		req.Deps = append(req.Deps, sc.Dependencies()...)
	}
	req.Query = doc.Queries[doc.QueryOrder[0]]
	return req, nil
}

// span is one traced interval. Spans of one request share Request;
// Parent indexes the enclosing span (-1 for a request's root).
type span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Microseconds() }

func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, StartUS: t.at(start), EndUS: t.at(end), Parent: parent, Request: req})
	return len(t.spans) - 1
}

// write stores the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfPerOp returns each span name's self time (its duration minus its
// children's) summed over the run, divided by requests, in ms.
func (t *tracer) selfPerOp(requests int) map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndUS - s.StartUS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndUS - s.StartUS
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(self[i]) / 1000 / float64(requests)
	}
	return out
}

// traceLayers names the traced layer spans in nesting order, with the
// metric that reports each one's self time. The request root's own self
// time is the replay's glue between them, near zero.
var traceLayers = []struct{ span, metric string }{
	{"parser.parse", "trace.parse_self_ms"},
	{"service.query", "trace.query_self_ms"},
	{"service.plan", "trace.plan_self_ms"},
	{"service.exec", "trace.exec_self_ms"},
	{"cnbd.encode", "cnbd.encode_ms"},
}

// tracedRun replays the workload's request schedule in-process against a
// service.New with cnbd's options, untraced through the warm-up and then
// traced for d. It returns the tracer, the number of traced requests and
// the service, whose plan cache the layer replay reuses.
func tracedRun(ctx context.Context, spec workloadSpec, seed int64, in *instance.Instance, d time.Duration) (*tracer, int, *service.Service, error) {
	svc := service.New(service.Options{Parallelism: 1})
	if _, err := svc.InstallInstance(spec.name, in); err != nil {
		return nil, 0, nil, err
	}
	stream := newRequestStream(spec, seed)
	var discard tracer
	for i := 0; i < spec.warmup; i++ {
		body, _ := stream.Next()
		if err := serveTraced(ctx, &discard, svc, spec.name, i, body); err != nil {
			return nil, 0, nil, err
		}
	}
	tr := &tracer{t0: time.Now()}
	deadline := time.Now().Add(d)
	n := 0
	for ; n < 3 || time.Now().Before(deadline); n++ {
		body, _ := stream.Next()
		if err := serveTraced(ctx, tr, svc, spec.name, n, body); err != nil {
			return nil, 0, nil, err
		}
	}
	return tr, n, svc, nil
}

// serveTraced serves one request the way cnbd's /query handler does —
// parse, Service.Query, ValueJSON and an indented JSON encode — with a
// span around each step. Service.Query's plan and exec children come from
// its own PlanDur and ExecDur.
func serveTraced(ctx context.Context, tr *tracer, svc *service.Service, instName string, reqID int, body string) error {
	start := time.Now()
	doc, err := parser.Parse(body)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	req, err := assemble(doc)
	if err != nil {
		return err
	}
	parsed := time.Now()
	qres, err := svc.Query(ctx, service.QueryRequest{Request: req, Instance: instName})
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	queried := time.Now()
	rows := make([]any, 0, len(qres.Rows))
	for _, v := range qres.Rows {
		rows = append(rows, service.ValueJSON(v))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"plan": qres.Plan, "rows": rows, "result_rows": qres.ResultRows}); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	end := time.Now()

	root := tr.add("request", start, end, -1, reqID)
	tr.add("parser.parse", start, parsed, root, reqID)
	q := tr.add("service.query", parsed, queried, root, reqID)
	tr.add("service.plan", parsed, parsed.Add(qres.PlanDur), q, reqID)
	tr.add("service.exec", queried.Add(-qres.ExecDur), queried, q, reqID)
	tr.add("cnbd.encode", queried, end, root, reqID)
	return nil
}

// cost of one call measured by measure: mean wall time and mean heap
// allocations.
type callCost struct {
	dur    time.Duration
	allocs float64
}

// measure calls fn reps times and returns the per-call mean.
func measure(reps int, fn func() error) (callCost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return callCost{}, err
		}
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return callCost{dur: d / time.Duration(reps), allocs: float64(after.Mallocs-before.Mallocs) / float64(reps)}, nil
}

// layerReplay times each layer's public entry point, with allocations,
// on the workload's distinct inputs (the output-check shapes). svc is
// the traced run's service: its answers supply the ranked candidate pool
// and the delivered plan, so no optimizer glue is re-implemented here.
func layerReplay(ctx context.Context, spec workloadSpec, seed int64, in *instance.Instance, svc *service.Service) (map[string]float64, error) {
	var parse, canon, chaseC, enum, rank, compile, run, elems []callCost
	var states, plans, candidates, rowsPerS []float64
	stream := newCheckStream(spec, seed)
	for i := 0; i < spec.checkDistinct; i++ {
		body, _ := stream.Next()
		var doc *parser.Document
		c, err := measure(20, func() (err error) { doc, err = parser.Parse(body); return err })
		if err != nil {
			return nil, err
		}
		parse = append(parse, c)
		req, err := assemble(doc)
		if err != nil {
			return nil, err
		}

		c, _ = measure(50, func() error { _ = req.Query.CanonicalSignature(); return nil })
		canon = append(canon, c)

		idx := chase.NewDepIndex(req.Deps)
		var chased *chase.Result
		c, err = measure(5, func() (err error) { chased, err = chase.ChaseIndexed(ctx, req.Query, idx, chase.Options{}); return err })
		if err != nil {
			return nil, fmt.Errorf("chase: %w", err)
		}
		chaseC = append(chaseC, c)

		var en *backchase.Result
		c, err = measure(1, func() (err error) {
			en, err = backchase.EnumerateContext(ctx, chased.Query, req.Deps, backchase.Options{Parallelism: 1, Index: idx})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("backchase: %w", err)
		}
		enum = append(enum, c)
		states = append(states, float64(en.States))
		plans = append(plans, float64(len(en.Plans)))

		qres, err := svc.Query(ctx, service.QueryRequest{Request: req, Instance: spec.name})
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		pool := make([]*core.Query, 0, len(qres.Optimize.Result.Candidates))
		for _, cand := range qres.Optimize.Result.Candidates {
			pool = append(pool, cand.Query)
		}
		candidates = append(candidates, float64(len(pool)))
		st := cost.NewStats()
		c, _ = measure(10, func() error { _ = st.Rank(pool); return nil })
		rank = append(rank, c)

		delivered := qres.Optimize.Result.Candidates[qres.Skipped].Query
		c, err = measure(10, func() error {
			_, err := engine.CompileStream(delivered, in, engine.StreamOptions{Buffer: 2})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		compile = append(compile, c)
		for r := 0; r < 3; r++ {
			p, err := engine.CompileStream(delivered, in, engine.StreamOptions{Buffer: 2})
			if err != nil {
				return nil, fmt.Errorf("compile: %w", err)
			}
			var out *instance.Set
			c, err := measure(1, func() (err error) { out, err = p.Run(ctx); return err })
			if err != nil {
				return nil, fmt.Errorf("run: %w", err)
			}
			run = append(run, c)
			rowsPerS = append(rowsPerS, float64(p.Measure().Rows)/c.dur.Seconds())
			c, _ = measure(1, func() error { _ = out.Elems(); return nil })
			elems = append(elems, c)
		}
	}
	ms := func(cs []callCost) float64 {
		var v []float64
		for _, c := range cs {
			v = append(v, float64(c.dur.Nanoseconds())/1e6)
		}
		return mean(v)
	}
	allocs := func(cs []callCost) float64 {
		var v []float64
		for _, c := range cs {
			v = append(v, c.allocs)
		}
		return mean(v)
	}
	return map[string]float64{
		"parser.parse_ms":           ms(parse),
		"parser.allocs":             allocs(parse),
		"core.canon_sig_us":         ms(canon) * 1000,
		"core.canon_sig_allocs":     allocs(canon),
		"chase.chase_ms":            ms(chaseC),
		"backchase.enum_ms":         ms(enum),
		"backchase.states":          mean(states),
		"backchase.plans_per_state": mean(plans) / mean(states),
		"cost.rank_ms":              ms(rank),
		"cost.rank_candidates":      mean(candidates),
		"engine.compile_us":         ms(compile) * 1000,
		"engine.run_ms":             ms(run),
		"engine.rows_per_s":         mean(rowsPerS),
		"instance.elems_ms":         ms(elems),
	}, nil
}

// writeSpans stores the traced spans under dir as JSON lines.
func writeSpans(dir, name string, tr *tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := dir + "/" + name + ".jsonl"
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := tr.write(w); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
