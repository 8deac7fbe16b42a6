package service

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"cnb/internal/core"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

const panicValue = "optimizer exploded"

// panicking returns an optimizer that blocks until release is closed
// and then panics.
func panicking(release <-chan struct{}) func(context.Context, *core.Query, optimizer.Options) (*optimizer.Result, error) {
	return func(context.Context, *core.Query, optimizer.Options) (*optimizer.Result, error) {
		<-release
		panic(panicValue)
	}
}

// checkPanicErr asserts err is the recovered panic of panicking: its
// value and the stack it was raised on.
func checkPanicErr(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("flight panicked but the caller got no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, panicValue) || !strings.Contains(msg, "goroutine") {
		t.Fatalf("error %q lacks the panic value or its stack", msg)
	}
}

// liveFlight returns the table's flight for key, or nil.
func liveFlight(tab *planTable, key string) *flight {
	s := tab.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[key].f
}

// waitEmpty blocks until the table holds no record at all: no flight and
// no entry.
func waitEmpty(t *testing.T, tab *planTable) {
	t.Helper()
	waitUntil(t, "an empty plan table", func() bool {
		n := 0
		for _, s := range tab.shards {
			s.mu.Lock()
			n += len(s.m)
			s.mu.Unlock()
		}
		return n == 0
	})
}

// TestFlightPanic: under each of the three wait budgets — none, the
// latency budget, and zero — a flight whose optimizer panics lands the
// panic as its error, delivers it to every caller still waiting, strands
// no caller, leaves the table empty and counts no upgrade. Zero-budget
// callers were served the greedy tier before the panic.
func TestFlightPanic(t *testing.T) {
	req := scanRequest("R")
	key := flightKey(req)
	slow := NewLatencyPredictor(0)
	slow.observe(key, time.Hour)
	for _, tc := range []struct {
		name   string
		opts   Options
		reason TierReason
	}{
		{"none", Options{}, ReasonSynchronous},
		{"budgeted", Options{MaxPlanLatency: time.Minute}, ReasonBudgeted},
		{"zero", Options{MaxPlanLatency: time.Minute, Predictor: slow}, ReasonPredictedSlow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(tc.opts)
			release := make(chan struct{})
			svc.optimize = panicking(release)
			const callers = 3
			resps := make([]*Response, callers)
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for i := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resps[i], errs[i] = svc.Optimize(context.Background(), req)
				}()
			}
			waitUntil(t, "every caller to join the flight", func() bool {
				c := svc.Counters()
				return c.Flights == 1 && c.Coalesced == callers-1
			})
			f := liveFlight(svc.table, key)
			if f == nil {
				t.Fatal("no live flight for the shape")
			}
			close(release)
			wg.Wait()
			<-f.done
			checkPanicErr(t, f.err)
			for i := range callers {
				if tc.reason == ReasonPredictedSlow {
					if errs[i] != nil || resps[i].Tier != TierGreedy {
						t.Fatalf("caller %d: err=%v, want an immediate greedy response", i, errs[i])
					}
					continue
				}
				checkPanicErr(t, errs[i])
			}
			waitEmpty(t, svc.table)
			if c := svc.Counters(); c.Upgraded != 0 || c.BackchaseRuns != 0 {
				t.Fatalf("a panicked flight counted %d upgrades, %d backchase runs", c.Upgraded, c.BackchaseRuns)
			}
		})
	}
}

// TestQueryCountsOptimizerPanic: a panicking optimizer fails the /query
// request with the panic as its error and counts it as a plan error; the
// service keeps serving afterwards.
func TestQueryCountsOptimizerPanic(t *testing.T) {
	svc, req, _ := projDeptQuerySetup(t, "pd", workload.GenOptions{NumDepts: 10, ProjsPerDept: 4, Seed: 1})
	svc.optimize = func(context.Context, *core.Query, optimizer.Options) (*optimizer.Result, error) {
		panic(panicValue)
	}
	_, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd"})
	checkPanicErr(t, err)
	qc, _ := svc.InstanceCountersFor("pd")
	if qc.PlanErrors != 1 || qc.Queries != 0 || qc.ExecErrors != 0 {
		t.Fatalf("counters = %+v, want exactly one plan error", qc)
	}
	waitEmpty(t, svc.table)

	svc.optimize = optimizer.OptimizeContext
	if _, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd"}); err != nil {
		t.Fatalf("query after the panic: %v", err)
	}
}
