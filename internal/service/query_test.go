package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/workload"
)

// projDeptQuerySetup installs a generated ProjDept instance under the
// given name and returns the service, the request, and the instance.
func projDeptQuerySetup(t *testing.T, name string, gen workload.GenOptions) (*Service, Request, *instance.Instance) {
	t.Helper()
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(gen)
	svc := New(Options{})
	if _, err := svc.InstallInstance(name, in); err != nil {
		t.Fatal(err)
	}
	return svc, Request{
		Query:         pd.Q,
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
	}, in
}

// rowsAsSet rebuilds a result set from a QueryResponse's row slice.
func rowsAsSet(rows []instance.Value) *instance.Set {
	s := instance.NewSet()
	for _, v := range rows {
		s.Add(v)
	}
	return s
}

// TestQueryMatchesEval is the differential check behind the /query
// contract: the served result — optimizer-delivered plan, streaming
// execution — must equal the reference evaluator's result for the
// original logical query on the same instance, for both the relational
// running example and a star workload.
func TestQueryMatchesEval(t *testing.T) {
	t.Run("projdept", func(t *testing.T) {
		svc, req, in := projDeptQuerySetup(t, "pd",
			workload.GenOptions{NumDepts: 30, ProjsPerDept: 8, CitiBankShare: 0.2, Seed: 7})
		resp, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd", MaxRows: -1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.QueryEager(req.Query, in)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsAsSet(resp.Rows); !got.Equal(want) {
			t.Fatalf("served %d rows != eval %d rows", got.Len(), want.Len())
		}
		if resp.ResultRows != want.Len() {
			t.Fatalf("ResultRows = %d, want %d", resp.ResultRows, want.Len())
		}
		if resp.Measure.Evals == 0 || resp.Measure.OutRows == 0 {
			t.Fatalf("executed plan reported empty measure: %+v", resp.Measure)
		}
	})
	t.Run("star", func(t *testing.T) {
		s, err := workload.NewStar(workload.StarConfig{
			Dims: 1, FactIndexes: 1, DimIndex: true,
			Select: true, SelectA: 2, FKConstraints: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := s.Generate(workload.StarGenOptions{NumFact: 2000, NumDim: 40, DomA: 8, Seed: 42})
		svc := New(Options{Stats: s.SyntheticStats(workload.StarGenOptions{NumFact: 2000, NumDim: 40, DomA: 8, Seed: 42})})
		if _, err := svc.InstallInstance("star", in); err != nil {
			t.Fatal(err)
		}
		req := Request{Query: s.Q, Deps: s.Deps, PhysicalNames: s.Physical.NameSet()}
		resp, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "star", MaxRows: -1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.QueryEager(s.Q, in)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsAsSet(resp.Rows); !got.Equal(want) {
			t.Fatalf("served %d rows != eval %d rows", got.Len(), want.Len())
		}
	})
}

// TestQueryRowCapTruncation: MaxRows caps the encoded rows and sets the
// truncation flag while ResultRows keeps the full cardinality; negative
// MaxRows disables the cap; the retained prefix is deterministic.
func TestQueryRowCapTruncation(t *testing.T) {
	svc, req, in := projDeptQuerySetup(t, "pd",
		workload.GenOptions{NumDepts: 40, ProjsPerDept: 10, CitiBankShare: 0.5, Seed: 3})
	want, err := eval.QueryEager(req.Query, in)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < 5 {
		t.Fatalf("workload too small for a truncation test: %d rows", want.Len())
	}

	capped, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd", MaxRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Rows) != 3 || !capped.Truncated {
		t.Fatalf("MaxRows=3: got %d rows, truncated=%v", len(capped.Rows), capped.Truncated)
	}
	if capped.ResultRows != want.Len() {
		t.Fatalf("ResultRows = %d, want full cardinality %d", capped.ResultRows, want.Len())
	}

	full, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd", MaxRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || len(full.Rows) != want.Len() {
		t.Fatalf("MaxRows=-1: got %d rows, truncated=%v, want %d", len(full.Rows), full.Truncated, want.Len())
	}
	// The cap keeps the sorted-key prefix, so capped rows are a prefix of
	// the full encoding.
	for i, v := range capped.Rows {
		if full.Rows[i].Key() != v.Key() {
			t.Fatalf("capped row %d is not the deterministic prefix", i)
		}
	}
}

// TestQueryMaxRowsIsPrefix: for every cap k, the capped rows are exactly
// the first k rows of the uncapped response, and those are the reference
// result in key order — with and without installed statistics.
func TestQueryMaxRowsIsPrefix(t *testing.T) {
	svc, req, in := projDeptQuerySetup(t, "pd",
		workload.GenOptions{NumDepts: 30, ProjsPerDept: 6, CitiBankShare: 0.6, Seed: 11})
	want, err := eval.QueryEager(req.Query, in)
	if err != nil {
		t.Fatal(err)
	}
	n := want.Len()
	for _, withStats := range []bool{false, true} {
		if withStats {
			svc.SetStats(cost.FromInstance(in))
		}
		full, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd", MaxRows: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Rows) != n {
			t.Fatalf("stats=%v: %d rows, want %d", withStats, len(full.Rows), n)
		}
		for i, v := range want.Elems() {
			if full.Rows[i].Key() != v.Key() {
				t.Fatalf("stats=%v: row %d = %s, want %s", withStats, i, full.Rows[i], v)
			}
		}
		for _, k := range []int{1, 2, 7, n - 1, n, n + 3} {
			capped, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd", MaxRows: k})
			if err != nil {
				t.Fatal(err)
			}
			if len(capped.Rows) != min(k, n) || capped.Truncated != (k < n) {
				t.Fatalf("stats=%v k=%d: %d rows, truncated=%v", withStats, k, len(capped.Rows), capped.Truncated)
			}
			for i, v := range capped.Rows {
				if full.Rows[i].Key() != v.Key() {
					t.Fatalf("stats=%v k=%d: row %d is not the uncapped row", withStats, k, i)
				}
			}
		}
	}
}

// TestQueryExplain: explain mode must plan (hitting the cache like any
// request) but not execute — operator tree and estimated cost instead of
// rows, no Measure counters, and the instance's cumulative Rows/Evals
// unchanged.
func TestQueryExplain(t *testing.T) {
	svc, req, _ := projDeptQuerySetup(t, "pd", workload.GenOptions{Seed: 1})
	resp, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Explain == "" || resp.Rows != nil || resp.Measure.Evals != 0 {
		t.Fatalf("explain mode: explain=%q rows=%v measure=%+v", resp.Explain, resp.Rows, resp.Measure)
	}
	if resp.EstCost != resp.Optimize.Result.Best.Cost {
		t.Fatalf("EstCost = %g, want best cost %g", resp.EstCost, resp.Optimize.Result.Best.Cost)
	}
	qc, ok := svc.InstanceCountersFor("pd")
	if !ok || qc.Queries != 1 || qc.Evals != 0 || qc.ExecErrors != 0 {
		t.Fatalf("explain counters: %+v ok=%v", qc, ok)
	}

	// A second, executing request over the same shape must be a cache hit.
	resp2, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Optimize.CacheHit {
		t.Fatal("second request over the same shape was not a cache hit")
	}
}

// TestQueryUnknownInstance: the typed error HTTP frontends map to 404.
func TestQueryUnknownInstance(t *testing.T) {
	svc, req, _ := projDeptQuerySetup(t, "pd", workload.GenOptions{Seed: 1})
	_, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "nope"})
	if !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v, want ErrUnknownInstance", err)
	}
}

// failingLookupSetup returns a service with an instance where the only
// candidate plan dereferences a dictionary key the data never populated.
func failingLookupSetup(t *testing.T) (*Service, Request) {
	t.Helper()
	q := &core.Query{
		Out:      core.Lk(core.Name("M"), core.Prj(core.V("x"), "A")),
		Bindings: []core.Binding{{Var: "x", Range: core.Name("R")}},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	in := instance.NewInstance().
		Bind("R", instance.NewSet(instance.StructOf("A", instance.Int(1)))).
		Bind("M", instance.NewDict().Put(instance.Int(2), instance.Int(20)))
	svc := New(Options{})
	if _, err := svc.InstallInstance("db", in); err != nil {
		t.Fatal(err)
	}
	return svc, Request{Query: q}
}

// TestQueryExecErrorSurfacing: when every ranked candidate fails with a
// failing lookup, Query returns ErrNoExecutablePlan (the HTTP 4xx), the
// instance's ExecErrors counter moves while Queries does not, and a
// hot-swap that repairs the data makes the same cached plan execute.
func TestQueryExecErrorSurfacing(t *testing.T) {
	svc, req := failingLookupSetup(t)
	_, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "db"})
	if !errors.Is(err, ErrNoExecutablePlan) {
		t.Fatalf("err = %v, want ErrNoExecutablePlan", err)
	}
	qc, _ := svc.InstanceCountersFor("db")
	if qc.Queries != 0 || qc.ExecErrors != 1 {
		t.Fatalf("after exec error: %+v, want Queries=0 ExecErrors=1", qc)
	}

	// Repair the data under the same name: the plan cache still holds the
	// shape, so the retry is a warm hit that now executes.
	repaired := instance.NewInstance().
		Bind("R", instance.NewSet(instance.StructOf("A", instance.Int(1)))).
		Bind("M", instance.NewDict().Put(instance.Int(1), instance.Int(10)))
	if _, err := svc.InstallInstance("db", repaired); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "db"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Optimize.CacheHit {
		t.Fatal("retry after hot-swap was not a plan-cache hit")
	}
	if resp.ResultRows != 1 || resp.Rows[0].Key() != instance.Int(10).Key() {
		t.Fatalf("repaired result = %v", resp.Rows)
	}
	qc, _ = svc.InstanceCountersFor("db")
	if qc.Queries != 1 || qc.ExecErrors != 1 {
		t.Fatalf("after repair: %+v, want Queries=1 ExecErrors=1", qc)
	}
}

// TestQueryInstanceHotSwapRace hammers Query concurrently with
// InstallInstance hot-swaps between two differently-sized instances.
// Every response must be internally consistent — a result cardinality
// belonging entirely to one snapshot, never a mix — and error-free;
// the -race run (make serve-load) checks the registry's synchronization.
func TestQueryInstanceHotSwapRace(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	genA := workload.GenOptions{NumDepts: 10, ProjsPerDept: 4, CitiBankShare: 0.5, Seed: 11}
	genB := workload.GenOptions{NumDepts: 25, ProjsPerDept: 6, CitiBankShare: 0.5, Seed: 12}
	inA, inB := pd.Generate(genA), pd.Generate(genB)
	req := Request{Query: pd.Q, Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}

	wantA, err := eval.QueryEager(pd.Q, inA)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := eval.QueryEager(pd.Q, inB)
	if err != nil {
		t.Fatal(err)
	}
	if wantA.Len() == wantB.Len() {
		t.Fatalf("instances must differ in cardinality to detect snapshot mixing (both %d)", wantA.Len())
	}

	svc := New(Options{})
	if _, err := svc.InstallInstance("pd", inA); err != nil {
		t.Fatal(err)
	}
	// Warm the plan cache so the race focuses on the execution path.
	if _, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd"}); err != nil {
		t.Fatal(err)
	}

	const (
		readers          = 4
		queriesPerReader = 20
		swaps            = 40
	)
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < swaps; i++ {
			in := inA
			if i%2 == 0 {
				in = inB
			}
			if _, err := svc.InstallInstance("pd", in); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPerReader || !stop.Load(); i++ {
				resp, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd", MaxRows: -1})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if resp.ResultRows != wantA.Len() && resp.ResultRows != wantB.Len() {
					t.Errorf("result cardinality %d matches neither snapshot (%d / %d)",
						resp.ResultRows, wantA.Len(), wantB.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryCancellationNoGoroutineLeak cancels queries mid-stream — the
// delivered plan is an unoptimized full-scan join, so execution runs
// long enough for a few-millisecond deadline to land inside Run — and
// then requires the goroutine count to settle back to the baseline: the
// buffered pipeline stage's background prefetch goroutine must be
// joined on every exit path.
func TestQueryCancellationNoGoroutineLeak(t *testing.T) {
	s, err := workload.NewStar(workload.StarConfig{Dims: 1, Select: true, SelectA: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := s.Generate(workload.StarGenOptions{NumFact: 20_000, NumDim: 200, DomA: 4, Seed: 9})
	svc := New(Options{})
	if _, err := svc.InstallInstance("star", in); err != nil {
		t.Fatal(err)
	}
	// No deps: the only candidate is the query as written (nested scans).
	req := Request{Query: s.Q}

	// Warm the plan cache so cancelled requests spend their budget in
	// execution, not planning.
	warmCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Query(warmCtx, QueryRequest{Request: req, Instance: "star"}); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	cancelled := 0
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		_, err := svc.Query(ctx, QueryRequest{Request: req, Instance: "star"})
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("unexpected error class: %v", err)
			}
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Log("no request was cancelled mid-stream (fast machine); leak check still applies")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after cancelled queries", before, now)
	}
	qc, _ := svc.InstanceCountersFor("star")
	if got := qc.Queries + qc.PlanErrors + qc.ExecErrors; got != int64(1+5) {
		t.Fatalf("counter consistency: Queries+PlanErrors+ExecErrors = %d, want 6 (%+v)", got, qc)
	}
}

// TestQueryPlanErrorCounted: a request whose deadline expires while the
// optimizer is still planning — here a context cancelled before the call,
// on a shape the service has never seen — is counted once, as a plan
// error, not dropped from the instance accounting.
func TestQueryPlanErrorCounted(t *testing.T) {
	svc, req, _ := projDeptQuerySetup(t, "pd", workload.GenOptions{NumDepts: 10, ProjsPerDept: 4, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Query(ctx, QueryRequest{Request: req, Instance: "pd"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query returned %v, want context.Canceled", err)
	}
	qc, _ := svc.InstanceCountersFor("pd")
	if qc.PlanErrors != 1 || qc.Queries != 0 || qc.ExecErrors != 0 {
		t.Fatalf("counters = %+v, want exactly one plan error", qc)
	}
}

// TestInstallInstanceSummary: the registry's rows/cardinality summaries
// and its input validation.
func TestInstallInstanceSummary(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 10, ProjsPerDept: 4, Seed: 5})
	svc := New(Options{})
	sum, err := svc.InstallInstance("pd", in)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Name != "pd" || sum.Collections != len(in.Names()) {
		t.Fatalf("summary = %+v, want name pd with %d collections", sum, len(in.Names()))
	}
	projSet, _ := in.Lookup("Proj")
	if got := sum.Cards["Proj"]; got != int64(projSet.(*instance.Set).Len()) {
		t.Fatalf("Proj cardinality = %d, want %d", got, projSet.(*instance.Set).Len())
	}
	if sum.Rows <= 0 {
		t.Fatalf("total rows = %d", sum.Rows)
	}
	if got := svc.Instances(); len(got) != 1 || got[0].Name != "pd" {
		t.Fatalf("Instances() = %+v", got)
	}
	if _, err := svc.InstallInstance("", in); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := svc.InstallInstance("x", nil); err == nil {
		t.Fatal("nil instance accepted")
	}
}

// TestQueryResultBytesPerRow is a ceiling on the memory a query spends
// per result row: the warm non-selective Proj ⋈ depts join over 10^4
// Proj rows, whose delivered plan is one scan of Proj, returns 10^4
// distinct records of which the default cap keeps 1000. Deduplicating
// the rows as flat values and building records only for the returned
// ones allocates about 155 bytes per result row (166 under -race);
// building a record for every row into a growing Set took about 253
// (284 under -race). The plan-cache hit is part of the figure.
func TestQueryResultBytesPerRow(t *testing.T) {
	const bound = 200
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{})
	in := pd.Generate(workload.GenOptions{NumDepts: 2000, ProjsPerDept: 5, NumCustomers: 5, CitiBankShare: 0.3, Seed: 1})
	if _, err := svc.InstallInstance("pd", in); err != nil {
		t.Fatal(err)
	}
	v, prj := core.V, core.Prj
	req := QueryRequest{
		Request: Request{
			Query: &core.Query{
				Out: core.Struct(
					core.SF("PN", prj(v("p"), "PName")),
					core.SF("PB", prj(v("p"), "Budg")),
					core.SF("DN", prj(v("d"), "DName")),
				),
				Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}, {Var: "d", Range: core.Name("depts")}},
				Conds:    []core.Cond{{L: prj(v("p"), "PDept"), R: prj(v("d"), "DName")}},
			},
			Deps:          pd.AllDeps(),
			PhysicalNames: pd.Physical.NameSet(),
		},
		Instance: "pd",
	}
	ctx := context.Background()
	if _, err := svc.Query(ctx, req); err != nil { // plans, and caches Proj's key order
		t.Fatal(err)
	}
	const runs = 4
	var m0, m1 runtime.MemStats
	rows := 0
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for range runs {
		qr, err := svc.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !qr.Optimize.CacheHit || qr.ResultRows != 10000 || len(qr.Rows) != DefaultMaxResultRows {
			t.Fatalf("cache hit %v, %d rows (%d returned)", qr.Optimize.CacheHit, qr.ResultRows, len(qr.Rows))
		}
		rows += qr.ResultRows
	}
	runtime.ReadMemStats(&m1)
	perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rows)
	t.Logf("%.1f bytes allocated per result row", perRow)
	if perRow > bound {
		t.Errorf("%.1f bytes allocated per result row, want <= %d", perRow, bound)
	}
}
