package service

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// landing is what a flight delivers to every caller sharing it: the plan
// table entry it produced, and hit when the flight found the entry
// already stored (a flight for the key landed between the caller's
// lookup and this flight's start) instead of running the optimizer.
type landing struct {
	e   *planEntry
	hit bool
}

// flight is one in-progress optimization shared by every concurrent
// request for the same flight key.
type flight struct {
	// done is closed by the runner goroutine (under flightGroup.mu) after
	// res/err are set.
	done chan struct{}
	res  landing
	err  error
	// refs counts the callers currently interested in the outcome
	// (guarded by flightGroup.mu). When the last one abandons the wait,
	// a non-detached flight is cancelled — nobody would consume the
	// result.
	refs   int
	cancel context.CancelFunc
	// detached marks a flight that must run to completion regardless of
	// callers (the tiered serving path): waiter timeouts and
	// cancellations never cancel it, and its landing stores the plan
	// table entry for future requests. Guarded by flightGroup.mu.
	detached bool
	// greedyServed records that at least one caller's latency budget
	// expired and it was served the greedy tier instead of this flight's
	// outcome. The runner reads it (under mu, in the same critical
	// section that closes done) to decide whether its completion is an
	// upgrade — the mutex makes "timed out before landing" and "landed
	// first" mutually exclusive, so upgrade counters cannot double- or
	// under-count.
	greedyServed bool
}

// flightGroup coalesces concurrent optimizations of alpha-equivalent
// queries: K concurrent requests for the same flight key trigger exactly
// one optimizer run, with K-1 callers waiting on the owner's outcome.
//
// Cancellation semantics: each caller waits under its own context. A
// waiter whose context is cancelled detaches immediately — the flight
// keeps running for the remaining callers, so one impatient client can
// neither cancel the owner nor poison the shared outcome. The flight's
// own context is detached from every caller's (context.WithoutCancel of
// the first caller's, so request-scoped values still flow) and is
// cancelled only when the last interested caller has left — unless the
// flight is detached (doDetached), in which case it always runs to
// completion so its entry lands in the plan table.
//
// Outcomes are not memoized here: a flight is removed from the group the
// moment it completes. Cross-request memoization is the plan table's job
// — keyed and invalidated there — so a failed or cancelled flight never
// leaves a poisoned entry behind.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	// onUpgrade, when set, is called (outside mu) with the landed entry
	// after a detached flight that served at least one greedy-tier
	// response completes without error — the moment the shape stops
	// being served the greedy plan and starts being served the
	// backchase-cheapest one.
	onUpgrade func(e *planEntry)
}

// do runs fn once per key among concurrent callers. It returns fn's
// outcome and whether this caller was coalesced onto another caller's
// flight (false for the flight owner). All coalesced callers share the
// owner's landing — read-only by package convention.
func (g *flightGroup) do(ctx context.Context, key string, fn func(context.Context) (landing, error)) (landing, bool, error) {
	f, coalesced := g.join(ctx, key, false, fn)
	res, err := g.wait(ctx, key, f)
	return res, coalesced, err
}

// doDetached is do under a latency budget: it waits at most budget for
// the flight to land. On landing in time it behaves exactly like do
// (landed=true). When the budget expires first it returns landed=false
// with no result — the caller serves the greedy tier — while the flight
// continues detached, surviving every caller's departure, and reports
// its eventual landing through onUpgrade. Joining an existing flight
// promotes it to detached: once any caller has been served the greedy
// tier, the flight owes the plan table an upgrade.
func (g *flightGroup) doDetached(ctx context.Context, key string, budget time.Duration, fn func(context.Context) (landing, error)) (res landing, coalesced, landed bool, err error) {
	f, coalesced := g.join(ctx, key, true, fn)
	res, landed, err = g.waitBudget(ctx, f, budget)
	return res, coalesced, landed, err
}

// doImmediate is doDetached with a zero budget: the caller never arms a
// timer and never waits. If the flight for key has already been started
// and is still in the air, or is started here, the caller is marked
// greedy-served and leaves immediately (landed=false) while the flight
// continues detached and stores its entry when it lands. Used for
// shapes the latency predictor expects to miss the budget — for them the
// budgeted wait is pure added latency with no chance of paying off.
// (If the flight happens to land between join and the check below, its
// real outcome is served, exactly like waitBudget's timer branch.)
func (g *flightGroup) doImmediate(ctx context.Context, key string, fn func(context.Context) (landing, error)) (res landing, coalesced, landed bool, err error) {
	f, coalesced := g.join(ctx, key, true, fn)
	g.mu.Lock()
	select {
	case <-f.done:
		g.mu.Unlock()
		return f.res, coalesced, true, f.err
	default:
	}
	f.greedyServed = true
	f.refs--
	g.mu.Unlock()
	return landing{}, coalesced, false, nil
}

// join returns the live flight for key, starting one (and its runner
// goroutine) if none exists. The second result reports whether the
// caller joined an existing flight.
func (g *flightGroup) join(ctx context.Context, key string, detached bool, fn func(context.Context) (landing, error)) (*flight, bool) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = map[string]*flight{}
	}
	if f, ok := g.flights[key]; ok {
		f.refs++
		if detached {
			f.detached = true
		}
		g.mu.Unlock()
		return f, true
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{done: make(chan struct{}), refs: 1, cancel: cancel, detached: detached}
	g.flights[key] = f
	g.mu.Unlock()
	go g.run(key, f, fctx, fn)
	return f, false
}

// run executes the flight and publishes its outcome. Setting res/err,
// removing the flight from the map, closing done and reading
// greedyServed happen in one critical section, so a budgeted waiter
// (waitBudget's timer branch, also under mu) either observes the landing
// and serves it, or marks greedyServed before the landing is visible —
// never both, never neither. A panic in fn is recovered and lands as the
// flight's error, so it neither kills the process nor strands waiters.
func (g *flightGroup) run(key string, f *flight, fctx context.Context, fn func(context.Context) (landing, error)) {
	res, err := callFlight(fctx, fn)
	g.mu.Lock()
	f.res, f.err = res, err
	// Remove only our own flight: if every caller left and a fresh
	// flight for the same key has already started, it must survive.
	if g.flights[key] == f {
		delete(g.flights, key)
	}
	upgraded := f.detached && f.greedyServed && err == nil
	close(f.done)
	g.mu.Unlock()
	f.cancel()
	if upgraded && g.onUpgrade != nil {
		g.onUpgrade(res.e)
	}
}

// callFlight runs fn, turning a panic into an error that carries the
// panic value and the stack it was raised on.
func callFlight(ctx context.Context, fn func(context.Context) (landing, error)) (res landing, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = landing{}, fmt.Errorf("service: optimizer panic: %v\n%s", p, debug.Stack())
		}
	}()
	return fn(ctx)
}

// wait blocks until the flight completes or the caller's own context is
// cancelled, whichever comes first.
func (g *flightGroup) wait(ctx context.Context, key string, f *flight) (landing, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.refs--
		if f.refs == 0 && !f.detached {
			select {
			case <-f.done:
				// Completed while we were acquiring the lock; the runner
				// has already cleaned up.
			default:
				f.cancel()
				if g.flights[key] == f {
					delete(g.flights, key)
				}
			}
		}
		g.mu.Unlock()
		return landing{}, ctx.Err()
	}
}

// waitBudget blocks until the flight lands, the budget expires, or the
// caller's context is cancelled. landed reports that the flight's own
// outcome is being returned; on a budget expiry it returns an empty
// landing and (false, nil) after marking the flight greedy-served, and
// on caller cancellation (false, ctx.Err()). The flight itself is never
// cancelled from here — it is detached.
func (g *flightGroup) waitBudget(ctx context.Context, f *flight, budget time.Duration) (landing, bool, error) {
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case <-f.done:
		return f.res, true, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.refs--
		g.mu.Unlock()
		return landing{}, false, ctx.Err()
	case <-timer.C:
		g.mu.Lock()
		select {
		case <-f.done:
			// Landed while the timer fired; serve the real outcome.
			g.mu.Unlock()
			return f.res, true, f.err
		default:
		}
		f.greedyServed = true
		f.refs--
		g.mu.Unlock()
		return landing{}, false, nil
	}
}
