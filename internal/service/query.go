package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/instance"
)

// DefaultMaxResultRows is the result row cap applied when
// QueryRequest.MaxRows is zero. Execution always runs to completion —
// Measure counters and the truncation decision need the full
// deduplicated result — only the encoded row slice is capped.
const DefaultMaxResultRows = 1000

// ErrUnknownInstance is returned (wrapped) by Query when the named
// instance is not registered; HTTP frontends map it to 404.
var ErrUnknownInstance = errors.New("unknown instance")

// ErrNoExecutablePlan is returned (wrapped) by Query when every ranked
// candidate fails with a failing lookup on the target instance — the
// plan pool exists but none of it can run against this data. HTTP
// frontends map it to 422.
var ErrNoExecutablePlan = errors.New("no executable plan")

// QueryRequest asks for one query to be optimized and executed against a
// registered instance.
type QueryRequest struct {
	// Request is the optimization request (query, deps, physical names);
	// it goes through the plan table exactly like Optimize.
	Request
	// Instance names the registered instance to execute against.
	Instance string
	// MaxRows caps the rows returned in QueryResponse.Rows
	// (0 = DefaultMaxResultRows, < 0 = unlimited). Truncated reports
	// whether the cap bit.
	MaxRows int
	// Explain skips execution: the response carries the streaming
	// operator tree (StreamPlan.Explain) and the estimated cost of the
	// delivered plan instead of rows.
	Explain bool
}

// QueryResponse is the outcome of one executed (or explained) query.
type QueryResponse struct {
	// Optimize is the planning outcome (plan table hit, coalescing,
	// optimizer result).
	Optimize *Response
	// Plan is the delivered plan — the cheapest candidate that executed
	// (or, in explain mode, the cheapest compilable candidate).
	Plan string
	// EstCost is the cost model's estimate for the delivered plan.
	EstCost float64
	// Skipped counts ranked candidates passed over because they failed
	// with a failing lookup on this instance (E18's delivery rule).
	Skipped int
	// Rows is the deduplicated result, sorted by canonical key and
	// capped at MaxRows. Nil in explain mode.
	Rows []instance.Value
	// ResultRows is the full result cardinality before the cap.
	ResultRows int
	// Truncated reports that Rows was capped.
	Truncated bool
	// Explain is the streaming operator tree (explain mode only).
	Explain string
	// Measure is the executed plan's work profile (zero in explain mode).
	Measure engine.Measure
	// PlanDur and ExecDur split the request wall time into the Optimize
	// call and the execution (compile + run + encode) phases.
	PlanDur time.Duration
	ExecDur time.Duration
}

// Query optimizes the request through the plan table and executes the
// delivered plan against the named instance on the streaming batch
// engine. The ranked candidate pool is walked cheapest
// first, skipping candidates whose unguarded failing lookups error on
// this instance's data — the same delivery rule E18 gates. ctx bounds
// the whole request: cancellation aborts both the optimizer wait and the
// execution between batches, with every operator (including background
// prefetch goroutines) closed before Query returns.
//
// Counter contract: every call that finds its instance is counted once,
// when it returns — a success adds to Queries and the plan's Measure
// counters, an optimizer failure (deadline and cancellation included)
// to PlanErrors, and any execution failure — lookup-failed pool
// exhaustion, cancellation, runtime error — to ExecErrors.
func (s *Service) Query(ctx context.Context, req QueryRequest) (qr *QueryResponse, err error) {
	snap, ok := s.lookupInstance(req.Instance)
	if !ok {
		return nil, fmt.Errorf("service: %w: %q", ErrUnknownInstance, req.Instance)
	}
	entry := s.lookupEntry(req.Instance)
	planned := false
	defer func() {
		switch {
		case err == nil:
			entry.queries.Add(1)
			entry.rows.Add(qr.Measure.Rows)
			entry.evals.Add(qr.Measure.Evals)
			s.hists.queryPlan.Record(qr.PlanDur)
			s.hists.queryExec.Record(qr.ExecDur)
		case !planned:
			entry.planErrors.Add(1)
		default:
			entry.execErrors.Add(1)
		}
	}()

	planStart := time.Now()
	opt, err := s.Optimize(ctx, req.Request)
	if err != nil {
		return nil, err
	}
	planned = true
	qr = &QueryResponse{Optimize: opt, PlanDur: time.Since(planStart)}
	res := opt.Result
	if res.Best == nil || len(res.Candidates) == 0 {
		return nil, fmt.Errorf("service: %w: optimizer delivered no candidates", ErrNoExecutablePlan)
	}

	stats := s.stats.Load().stats
	execStart := time.Now()

	if req.Explain {
		// Explain compiles the cheapest candidate without running it:
		// failing lookups only surface at run time, so no skipping here.
		best := res.Candidates[0]
		p, err := engine.CompileStream(best.Query, snap.in, engine.StreamOptions{Stats: stats})
		if err != nil {
			return nil, fmt.Errorf("service: compile: %w", err)
		}
		qr.Plan = best.Query.String()
		qr.EstCost = best.Cost
		qr.Explain = p.Explain()
		qr.ExecDur = time.Since(execStart)
		return qr, nil
	}

	var lastErr error
	for _, cand := range res.Candidates {
		p, err := engine.CompileStream(cand.Query, snap.in, engine.StreamOptions{Stats: stats, Buffer: 2})
		if err != nil {
			return nil, fmt.Errorf("service: compile: %w", err)
		}
		out, err := p.RunRows(ctx)
		if err != nil {
			var lf *eval.ErrLookupFailed
			if errors.As(err, &lf) && ctx.Err() == nil {
				qr.Skipped++
				lastErr = err
				continue
			}
			return nil, fmt.Errorf("service: execute: %w", err)
		}
		qr.Plan = cand.Query.String()
		qr.EstCost = cand.Cost
		qr.Measure = p.Measure()
		qr.ResultRows = out.Len()
		qr.Rows = capRows(out, req.MaxRows)
		qr.Truncated = len(qr.Rows) < qr.ResultRows
		qr.ExecDur = time.Since(execStart)
		return qr, nil
	}
	return nil, fmt.Errorf("service: %w: all %d candidates failed lookups (%v)",
		ErrNoExecutablePlan, len(res.Candidates), lastErr)
}

// capRows renders the result slice under the row cap: 0 means
// DefaultMaxResultRows, negative means unlimited. The rows are the first
// maxRows in canonical key order, so the retained prefix is
// deterministic; RowSet.FirstN selects them without sorting the whole
// result and builds records for those rows only.
func capRows(out *instance.RowSet, maxRows int) []instance.Value {
	if maxRows == 0 {
		maxRows = DefaultMaxResultRows
	}
	return out.FirstN(maxRows)
}

// ValueJSON renders a runtime value as a JSON-encodable Go value for the
// HTTP result-set encoding: ints and floats as numbers, strings and
// bools natively, oids as "Type#serial" strings, structs as objects
// (field order is lost to JSON — use the field names), sets as arrays in
// deterministic key order, and dictionaries as arrays of {"key", "value"}
// objects sorted by key.
func ValueJSON(v instance.Value) any {
	switch t := v.(type) {
	case instance.Int:
		return int64(t)
	case instance.Float:
		return float64(t)
	case instance.Str:
		return string(t)
	case instance.Bool:
		return bool(t)
	case instance.OID:
		return t.String()
	case *instance.Struct:
		m := make(map[string]any, t.NumFields())
		for i := range t.NumFields() {
			// A repeated name keeps its first field's value, as Field does.
			n, f := t.FieldAt(i)
			if _, seen := m[n]; !seen {
				m[n] = ValueJSON(f)
			}
		}
		return m
	case *instance.Set:
		out := make([]any, 0, t.Len())
		for _, e := range t.Elems() {
			out = append(out, ValueJSON(e))
		}
		return out
	case *instance.Dict:
		out := make([]any, 0, t.Len())
		for _, e := range t.Entries() {
			out = append(out, map[string]any{"key": ValueJSON(e[0]), "value": ValueJSON(e[1])})
		}
		return out
	default:
		return v.String()
	}
}
