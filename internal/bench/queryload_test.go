package bench

import (
	"context"
	"testing"

	"cnb/internal/service"
)

// TestQueryLoadHarness is the CI query-serving gate: 16 closed-loop
// workers drive the full /query path — plan through the shared cache,
// execute on the streaming engine — against one registered star
// instance, and every response must succeed with consistent execution
// accounting. Run under -race (make serve-load) this doubles as the
// concurrency gate for the instance registry and the per-instance
// counters.
func TestQueryLoadHarness(t *testing.T) {
	sc, err := e19Setup()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sc.service()
	if err != nil {
		t.Fatal(err)
	}
	requests := 120
	if testing.Short() {
		requests = 48
	}
	res, err := RunQueryLoad(context.Background(), svc, sc.Mix, LoadConfig{
		Workers: 16, Requests: requests, AlphaRate: 0.5, Seed: 23,
	}, "star")
	if err != nil {
		t.Fatalf("query load returned an error response: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d error responses out of %d requests", res.Errors, res.Requests)
	}
	if res.Evals == 0 || res.Rows == 0 || res.ResultRows == 0 {
		t.Fatalf("empty execution accounting: %+v", res)
	}
	if res.Skipped != 0 {
		t.Errorf("delivery skipped %d candidates on a fully-populated instance", res.Skipped)
	}
	// Every request executed: the per-instance cumulative counters must
	// agree with the harness's own aggregation.
	qc, ok := svc.InstanceCountersFor("star")
	if !ok || qc.Queries != int64(requests) || qc.ExecErrors != 0 {
		t.Fatalf("instance counters: %+v ok=%v, want %d queries", qc, ok, requests)
	}
	if qc.Evals != res.Evals || qc.Rows != res.Rows {
		t.Errorf("instance counters (evals %d, rows %d) disagree with harness (%d, %d)",
			qc.Evals, qc.Rows, res.Evals, res.Rows)
	}
	if got, want := res.Service.BackchaseRuns, int64(len(sc.Mix)); got != want {
		t.Errorf("backchase runs = %d, want exactly %d (one per shape)", got, want)
	}
}

// TestRunQueryLoadDeterministicAtOneWorker: two single-worker replays
// over fresh services and instances produce identical planning AND
// execution counters — the property that lets benchcheck gate E19's
// query_evals/query_rows exactly.
func TestRunQueryLoadDeterministicAtOneWorker(t *testing.T) {
	sc, err := e19Setup()
	if err != nil {
		t.Fatal(err)
	}
	cfg := LoadConfig{Workers: 1, Requests: 40, AlphaRate: 0.5, Seed: 29}
	run := func() *QueryLoadResult {
		t.Helper()
		svc, err := sc.service()
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunQueryLoad(context.Background(), svc, sc.Mix, cfg, "star")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Evals != b.Evals || a.Rows != b.Rows || a.OutRows != b.OutRows || a.ResultRows != b.ResultRows {
		t.Errorf("single-worker execution diverged: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.Evals, a.Rows, a.OutRows, a.ResultRows, b.Evals, b.Rows, b.OutRows, b.ResultRows)
	}
	if a.Cache.Hits != b.Cache.Hits || a.Service.BackchaseRuns != b.Service.BackchaseRuns {
		t.Errorf("single-worker planning diverged: %+v vs %+v", a.Cache, b.Cache)
	}
}

// TestRunQueryLoadUnknownInstance: a replay against an unregistered name
// fails every request cleanly instead of hanging or panicking.
func TestRunQueryLoadUnknownInstance(t *testing.T) {
	sc, err := e19Setup()
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Options{})
	res, err := RunQueryLoad(context.Background(), svc, sc.Mix, LoadConfig{
		Workers: 4, Requests: 16, Seed: 1,
	}, "nope")
	if err == nil {
		t.Fatal("expected an error for an unregistered instance")
	}
	if res.Errors != res.Requests {
		t.Errorf("errors = %d, want all %d requests", res.Errors, res.Requests)
	}
}

// TestE19QueryLoad pins the end-to-end serving claims: zero error
// responses at every worker count, backchase runs equal to the
// distinct-shape count (execution does not disturb the serving-layer
// invariants), a warm hit rate matching E16's, no skipped candidates on
// the seeded instance, and executed-work totals identical across worker
// counts — per-request work is a pure function of (request, instance),
// so concurrency must not change what gets executed.
func TestE19QueryLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("E19 executes hundreds of requests against a 20k-row instance")
	}
	tb, err := E19()
	if err != nil {
		t.Fatal(err)
	}
	evalsCol := len(tb.Columns) - 3
	var evals string
	for _, row := range tb.Rows {
		if row[2] != "0" {
			t.Errorf("workers=%s: %s error responses", row[0], row[2])
		}
		if row[8] != "2" {
			t.Errorf("workers=%s: backchase runs = %s, want 2 (one per shape)", row[0], row[8])
		}
		if evals == "" {
			evals = row[evalsCol]
		} else if row[evalsCol] != evals {
			t.Errorf("workers=%s: evals %s differ from workers=1's %s — executed plans depend on concurrency",
				row[0], row[evalsCol], evals)
		}
	}
	if tb.Metrics["hit_rate"] < 0.95 {
		t.Errorf("workers=1 hit rate %.3f below 0.95", tb.Metrics["hit_rate"])
	}
	if tb.Metrics["query_exec_skipped"] != 0 {
		t.Errorf("workers=1 skipped %v candidates, want 0", tb.Metrics["query_exec_skipped"])
	}
	if tb.Metrics["query_evals"] <= 0 || tb.Metrics["query_rows"] <= 0 || tb.Metrics["result_rows"] <= 0 {
		t.Errorf("execution totals empty: evals=%v rows=%v result=%v",
			tb.Metrics["query_evals"], tb.Metrics["query_rows"], tb.Metrics["result_rows"])
	}
}
