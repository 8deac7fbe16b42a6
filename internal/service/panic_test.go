package service

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cnb/internal/core"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

const panicValue = "optimizer exploded"

// panicking returns a flight function that blocks until release is
// closed and then panics.
func panicking(release <-chan struct{}) func(context.Context) (landing, error) {
	return func(context.Context) (landing, error) {
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

// waitRefs blocks until the flight for key has want interested callers.
func waitRefs(t *testing.T, g *flightGroup, key string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		f := g.flights[key]
		n := 0
		if f != nil {
			n = f.refs
		}
		g.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight %q has %d callers, want %d", key, n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitEmpty blocks until the group holds no flight.
func waitEmpty(t *testing.T, g *flightGroup) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		n := len(g.flights)
		g.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d flights left in the group after the panic", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightPanicDo: a flight whose function panics lands the panic as
// every waiter's error, and leaves the group empty.
func TestFlightPanicDo(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	const waiters = 4
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = g.do(context.Background(), "k", panicking(release))
		}(i)
	}
	waitRefs(t, &g, "k", waiters)
	close(release)
	wg.Wait()
	for _, err := range errs {
		checkPanicErr(t, err)
	}
	waitEmpty(t, &g)
}

// TestFlightPanicDoDetached: budgeted waiters still inside their budget
// get the panic as their error; a waiter whose budget expired was served
// greedy and the panicking flight is not counted as an upgrade.
func TestFlightPanicDoDetached(t *testing.T) {
	var g flightGroup
	var upgrades atomic.Int64
	g.onUpgrade = func(*planEntry) { upgrades.Add(1) }
	release := make(chan struct{})
	const waiters = 3
	errs := make([]error, waiters)
	landedAll := make([]bool, waiters)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, landedAll[i], errs[i] = g.doDetached(context.Background(), "k", time.Minute, panicking(release))
		}(i)
	}
	waitRefs(t, &g, "k", waiters)

	// One more caller whose budget expires before the panic.
	_, _, landed, err := g.doDetached(context.Background(), "k", time.Millisecond, panicking(release))
	if landed || err != nil {
		t.Fatalf("expired budget: landed=%v err=%v, want greedy service", landed, err)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !landedAll[i] {
			t.Fatalf("waiter %d: flight did not land within a minute", i)
		}
		checkPanicErr(t, err)
	}
	waitEmpty(t, &g)
	if n := upgrades.Load(); n != 0 {
		t.Fatalf("a panicked flight counted %d upgrades", n)
	}
}

// TestFlightPanicDoImmediate: a detached flight nobody waits for panics
// without taking the process down, and is removed from the group; a
// waiter that joined it through do still receives the panic.
func TestFlightPanicDoImmediate(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	_, _, landed, err := g.doImmediate(context.Background(), "k", panicking(release))
	if landed || err != nil {
		t.Fatalf("doImmediate: landed=%v err=%v, want an immediate greedy return", landed, err)
	}
	var wg sync.WaitGroup
	var waitErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, waitErr = g.do(context.Background(), "k", panicking(release))
	}()
	waitRefs(t, &g, "k", 1)
	close(release)
	wg.Wait()
	checkPanicErr(t, waitErr)
	waitEmpty(t, &g)
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
	waitEmpty(t, &svc.group)

	svc.optimize = optimizer.OptimizeContext
	if _, err := svc.Query(context.Background(), QueryRequest{Request: req, Instance: "pd"}); err != nil {
		t.Fatalf("query after the panic: %v", err)
	}
}
