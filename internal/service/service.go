// Package service is the concurrent serving layer over the chase &
// backchase optimizer: one long-lived Service handles Optimize requests
// from many goroutines at once, the shape the paper's universal-plan
// optimizer takes when it runs as persistent infrastructure between
// logical queries and physical access paths rather than as a one-shot
// library call.
//
// Two mechanisms make it serve rather than serialize:
//
//   - the plan table (plantable.go) holds one record per query shape,
//     keyed by the flight key — the canonical, renaming-invariant query
//     signature, the dependency set and the physical restriction: the
//     shape's finished, ranked optimization in a sharded true-LRU, or
//     the live flight computing it. A request makes one locked
//     lookup-or-join, so a repeated (even alpha-renamed) query shape
//     runs no chase, no backchase and no ranking; K concurrent requests
//     for a shape that is not stored trigger exactly one optimizer run
//     and K-1 waiters, each cancellable without cancelling the flight or
//     poisoning the table; and concurrent shapes do not contend on one
//     lock;
//   - atomic statistics hot-swap: SetStats installs a new cost.Stats
//     snapshot with one pointer store. The backchase does not depend on
//     statistics, so every entry stays and re-ranks its stored executable
//     pool on its first hit under the new snapshot: serving continues
//     uninterrupted through a stats refresh.
//
// With Options.MaxPlanLatency set, serving is additionally two-tiered:
// a request the plan table cannot answer waits at most the budget for
// its backchase flight, and otherwise is answered immediately from the
// instant tier (internal/greedy — a statistics-free, always-correct join
// order built in microseconds), while the flight continues detached and
// stores its entry when it lands, so the shape's later requests serve
// the backchase-cheapest plan. A hit is a hit: it arms no timer.
// Response.Tier says which tier answered, and per-tier latency
// histograms (Histograms) expose the resulting distributions. Under a
// budget every flight may run detached, so each first takes a slot of a
// service-wide semaphore of max(1, GOMAXPROCS−1) slots (a flight's
// backchase is serial, one CPU): detached flights never hold every CPU,
// and a request's greedy answer is not queued behind them.
//
// Beyond planning, the Service also answers queries: InstallInstance
// registers named data instances (hot-swappable exactly like SetStats),
// and Query runs Optimize and then executes the delivered plan against
// the named instance through the streaming batch engine, with
// per-request cancellation, a result row cap, and Measure-based work
// accounting (query.go, instance.go).
package service

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/greedy"
	"cnb/internal/optimizer"
)

// Options configures a Service. The zero value is usable: uniform cost
// defaults and a DefaultCacheSize plan table.
type Options struct {
	// Parallelism is kept so that existing callers still compile.
	//
	// Deprecated: ignored; the backchase is serial.
	Parallelism int
	// CacheSize bounds the plan table (0 = DefaultCacheSize,
	// < 0 = unbounded).
	CacheSize int
	// Stats is the initial statistics snapshot (nil = uniform defaults).
	// Replace it at runtime with SetStats.
	Stats *cost.Stats
	// MinimalOnly restricts the candidate pool to backchase normal forms
	// (optimizer.Options.MinimalOnly): the explored intermediate lattice
	// states are neither simplified nor ranked, so each flight ranks —
	// and each plan table entry holds — fewer candidates, at the price
	// of missing plans like §4's view+index navigation that are not
	// minimal.
	MinimalOnly bool
	// Chase tunes the chase budgets of every flight. Chase.Metrics, when
	// nil, is replaced by the service's own Metrics instance so /metrics
	// style consumers always see the chase counters.
	Chase chase.Options
	// MaxPlanLatency, when positive, is the plan-latency SLO that turns
	// on two-tier serving: Optimize waits at most this long for the
	// backchase flight to land and otherwise answers immediately with the
	// greedy tier (internal/greedy — a statistics-free join order, built
	// in microseconds, always correct). The flight continues detached —
	// surviving every caller's cancellation — and stores its plan table
	// entry when it lands, so subsequent requests for the shape serve the
	// backchase-cheapest plan. Zero (the default) keeps serving fully
	// synchronous: every miss waits for its flight. Warm shapes are
	// unaffected: a table hit starts no flight and arms no timer, so
	// under a budget only a shape the table does not hold — never
	// planned, or evicted — pays the budgeted wait.
	MaxPlanLatency time.Duration
}

// Tier identifies which optimizer tier produced a Response's plan.
type Tier string

// The two serving tiers: the full chase & backchase path, and the
// instant statistics-free greedy planner served when the backchase
// flight exceeds Options.MaxPlanLatency.
const (
	TierBackchase Tier = "backchase"
	TierGreedy    Tier = "greedy"
)

// Request is one optimization request. Deps and PhysicalNames play the
// roles of optimizer.Options.Deps / PhysicalNames; they are part of the
// flight key, so requests only coalesce or share a plan table entry when
// they agree on the dependency set and the physical restriction, not
// merely on the query.
type Request struct {
	Query         *core.Query
	Deps          []*core.Dependency
	PhysicalNames map[string]bool
}

// Response is the outcome of one request.
type Response struct {
	// Result is the optimizer result without Explored (the plan table
	// keeps the ranked pool, not the lattice walk). Responses served from
	// one entry or one flight share it — treat it as read-only (the
	// package-wide convention for plans anyway).
	Result *optimizer.Result
	// Coalesced reports that this request joined another request's
	// live flight and was served its outcome.
	Coalesced bool
	// CacheHit reports that the finished plan was served from the plan
	// table: nothing re-ran — no chase, no backchase, no ranking (unless
	// a statistics swap made the entry re-rank its pool once).
	CacheHit bool
	// Tier reports which planner answered: TierBackchase for the full
	// path (synchronous or landed within MaxPlanLatency), TierGreedy when
	// the latency budget expired and the instant tier served instead.
	// Empty only on errors.
	Tier Tier
	// Upgraded reports that this shape's plan table entry was stored by a
	// detached flight landing after its first callers were served the
	// greedy tier — i.e. the response carries a plan that earlier
	// requests saw only in greedy form. Always false on TierGreedy
	// responses.
	Upgraded bool
}

// Counters is a point-in-time snapshot of the service's request
// accounting. All fields are maintained with atomics.
type Counters struct {
	// Requests counts Optimize calls accepted (valid query).
	Requests int64
	// Errors counts Optimize calls that returned an error, including
	// waiter cancellations.
	Errors int64
	// Coalesced counts requests that joined another request's live
	// flight.
	Coalesced int64
	// Flights counts optimizer executions started (requests minus plan
	// table hits, minus coalesced waiters) — the plan table's misses.
	Flights int64
	// BackchaseRuns counts flights whose optimizer run completed — the
	// number E16 proves sublinear in the request count.
	BackchaseRuns int64
	// StatsSwaps counts SetStats calls.
	StatsSwaps int64
	// GreedyServed counts responses answered by the greedy tier because
	// the backchase flight exceeded Options.MaxPlanLatency.
	GreedyServed int64
	// Upgraded counts detached flights that landed after serving at
	// least one greedy-tier response — each replaces the shape's greedy
	// plan with the backchase-cheapest one.
	Upgraded int64
	// SlotWaits counts flights that waited for a slot of the
	// detached-flight semaphore before optimizing: every slot was held
	// by another flight.
	SlotWaits int64
}

// statsSnapshot pairs a statistics pointer with its precomputed
// fingerprint so a hot path never re-renders it.
type statsSnapshot struct {
	stats *cost.Stats
	fp    string
}

// Service is the concurrent optimizer server. Safe for use by any number
// of goroutines; construct with New.
type Service struct {
	opts    Options
	table   *planTable
	metrics *chase.Metrics
	stats   atomic.Pointer[statsSnapshot]

	// instanceRegistry holds the named data instances Query executes
	// against (instance.go).
	instanceRegistry

	// hists are the per-tier latency distributions /metrics exports
	// (histogram.go).
	hists tierHistograms

	// optimize is the optimizer entry point every flight calls
	// (optimizer.OptimizeContext; tests substitute a failing one).
	optimize func(context.Context, *core.Query, optimizer.Options) (*optimizer.Result, error)

	// slots is the detached-flight semaphore: under MaxPlanLatency every
	// flight holds one of its max(1, GOMAXPROCS−1) slots while it
	// optimizes. The flights that may run detached therefore
	// leave a CPU to the request path, however many shapes are cold at
	// once.
	slots chan struct{}

	requests      atomic.Int64
	errors        atomic.Int64
	coalesced     atomic.Int64
	backchaseRuns atomic.Int64
	statsSwaps    atomic.Int64
	greedyServed  atomic.Int64
	upgraded      atomic.Int64
	slotWaits     atomic.Int64
}

// New builds a Service.
func New(opts Options) *Service {
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	m := opts.Chase.Metrics
	if m == nil {
		m = &chase.Metrics{}
	}
	opts.Chase.Metrics = m
	s := &Service{
		opts:     opts,
		table:    newPlanTable(size),
		metrics:  m,
		optimize: optimizer.OptimizeContext,
		slots:    make(chan struct{}, max(1, runtime.GOMAXPROCS(0)-1)),
	}
	s.stats.Store(newSnapshot(opts.Stats))
	return s
}

func newSnapshot(st *cost.Stats) *statsSnapshot {
	snap := &statsSnapshot{stats: st}
	if st != nil {
		snap.fp = st.Fingerprint()
	}
	return snap
}

// Optimize runs Algorithm 1 on the request. A shape whose finished plan
// is in the plan table is answered from it with no flight; otherwise the
// request coalesces with concurrent alpha-equivalent requests onto one
// optimizer flight, whose outcome the table then stores. ctx cancels
// only this caller's wait: if other requests share the flight it keeps
// running for them. With Options.MaxPlanLatency set, a flight that
// misses the budget yields an immediate greedy-tier response
// (Response.Tier == TierGreedy) and continues detached until it lands
// and stores its entry.
func (s *Service) Optimize(ctx context.Context, req Request) (*Response, error) {
	if req.Query == nil {
		s.errors.Add(1)
		return nil, fmt.Errorf("service: nil query")
	}
	if err := req.Query.Validate(); err != nil {
		s.errors.Add(1)
		return nil, fmt.Errorf("service: %w", err)
	}
	s.requests.Add(1)
	start := time.Now()
	snap := s.stats.Load()
	key := flightKey(req)
	e, f, owner := s.table.lookup(ctx, key)
	if e != nil {
		return s.respond(e, snap, start, true, false), nil
	}
	if owner {
		go s.fly(f, req, snap)
	} else {
		s.coalesced.Add(1)
	}
	// Under a budget the greedy answer is built before the wait starts,
	// so the timer only chooses between two finished answers and a
	// budget-expired request returns at once.
	budget := noBudget
	var greedyRes *optimizer.Result
	if s.opts.MaxPlanLatency > 0 {
		budget = s.opts.MaxPlanLatency
		greedyRes = s.greedyResult(req, snap.stats)
	}
	e, landed, err := s.table.wait(ctx, f, budget)
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	if !landed {
		s.greedyServed.Add(1)
		s.hists.greedy.Record(time.Since(start))
		return &Response{
			Result:    greedyRes,
			Coalesced: !owner,
			Tier:      TierGreedy,
		}, nil
	}
	return s.respond(e, snap, start, false, !owner), nil
}

// fly runs f's optimization and publishes its outcome, counting an
// upgrade when a caller was served the greedy tier meanwhile. Under
// MaxPlanLatency the flight may run detached, so it optimizes inside a
// slot of the detached-flight semaphore.
func (s *Service) fly(f *flight, req Request, snap *statsSnapshot) {
	var e *planEntry
	var err error
	if s.opts.MaxPlanLatency > 0 {
		e, err = s.planInSlot(f, req, snap)
	} else {
		e, err = s.plan(f, req, snap)
	}
	if s.table.publish(f, e, err) {
		s.upgraded.Add(1)
	}
}

// planInSlot is plan inside a slot of the detached-flight semaphore,
// counting a wait when no slot is free. It fails without planning only
// when f's context ends first.
func (s *Service) planInSlot(f *flight, req Request, snap *statsSnapshot) (*planEntry, error) {
	select {
	case s.slots <- struct{}{}:
	default:
		s.slotWaits.Add(1)
		select {
		case s.slots <- struct{}{}:
		case <-f.ctx.Done():
			return nil, f.ctx.Err()
		}
	}
	defer func() { <-s.slots }()
	return s.plan(f, req, snap)
}

// plan runs Algorithm 1 for f and wraps the result as the shape's plan
// table entry. A panic is recovered and returned as the error, with the
// panic value and the stack it was raised on, so it neither kills the
// process nor strands f's waiters.
func (s *Service) plan(f *flight, req Request, snap *statsSnapshot) (e *planEntry, err error) {
	defer func() {
		if p := recover(); p != nil {
			e, err = nil, fmt.Errorf("service: optimizer panic: %v\n%s", p, debug.Stack())
		}
	}()
	r, err := s.optimize(f.ctx, req.Query, optimizer.Options{
		Deps:          req.Deps,
		PhysicalNames: req.PhysicalNames,
		Stats:         snap.stats,
		MinimalOnly:   s.opts.MinimalOnly,
		Chase:         s.opts.Chase,
	})
	if err != nil {
		return nil, err
	}
	s.backchaseRuns.Add(1)
	return newPlanEntry(f.key, r, snap.fp), nil
}

// respond builds the backchase-tier response for a plan table entry —
// ranked under snap, see planEntry.result — and records its latency in
// the tier histogram the entry's upgrade mark selects.
func (s *Service) respond(e *planEntry, snap *statsSnapshot, start time.Time, hit, coalesced bool) *Response {
	res := e.result(snap)
	upgraded := e.upgraded.Load()
	if upgraded {
		s.hists.backchaseUpgraded.Record(time.Since(start))
	} else {
		s.hists.backchaseSync.Record(time.Since(start))
	}
	return &Response{
		Result:    res,
		Coalesced: coalesced,
		CacheHit:  hit,
		Tier:      TierBackchase,
		Upgraded:  upgraded,
	}
}

// greedyResult builds the instant-tier response body: the greedy plan as
// the sole candidate, costed under the current statistics snapshot (or
// uniform defaults) so EstCost-style consumers still see a number. No
// chase ran, so Universal is the request query itself; States stays
// zero — greedy planning explores nothing.
func (s *Service) greedyResult(req Request, st *cost.Stats) *optimizer.Result {
	plan := greedy.Plan(req.Query)
	if st == nil {
		st = cost.NewStats()
	}
	c, card := st.Estimate(plan)
	r := &optimizer.Result{
		Universal:  req.Query,
		Minimal:    []*core.Query{plan},
		Candidates: []cost.RankedPlan{{Query: plan, Cost: c, Card: card}},
	}
	r.Best = &r.Candidates[0]
	return r
}

// SetStats atomically installs a new statistics snapshot (nil reverts to
// uniform defaults). In-flight requests finish under the snapshot they
// started with; requests arriving after the store see the new one. Plan
// table entries survive every swap — the enumeration does not depend on
// statistics — and an entry's first hit under the new snapshot re-ranks
// its stored executable pool.
func (s *Service) SetStats(st *cost.Stats) {
	s.stats.Store(newSnapshot(st))
	s.statsSwaps.Add(1)
}

// Stats returns the current statistics snapshot (nil when serving with
// uniform defaults).
func (s *Service) Stats() *cost.Stats {
	return s.stats.Load().stats
}

// Counters returns a snapshot of the request accounting.
func (s *Service) Counters() Counters {
	return Counters{
		Requests:      s.requests.Load(),
		Errors:        s.errors.Load(),
		Coalesced:     s.coalesced.Load(),
		Flights:       s.table.misses.Load(),
		BackchaseRuns: s.backchaseRuns.Load(),
		StatsSwaps:    s.statsSwaps.Load(),
		GreedyServed:  s.greedyServed.Load(),
		Upgraded:      s.upgraded.Load(),
		SlotWaits:     s.slotWaits.Load(),
	}
}

// CacheCounters returns the plan table's lifetime counters.
func (s *Service) CacheCounters() CacheCounters {
	return s.table.counters()
}

// CacheLen returns the number of plan table entries.
func (s *Service) CacheLen() int {
	return s.table.size()
}

// ChaseMetrics returns the chase work counters shared by every flight.
func (s *Service) ChaseMetrics() *chase.Metrics {
	return s.metrics
}

// flightKey renders everything that decides a response's plans — the
// canonical query signature, the dependency set and the physical
// restriction — so two requests share a flight, and a plan table entry,
// exactly when one result can serve both. Statistics only rank the
// pool, and a hit under other statistics re-ranks it (planEntry.result).
//
// The signature comes from CanonicalSignature, which is invariant under
// arbitrary variable renaming, binding reorder and condition
// reorder/flip: it is the minimum positional signature over all
// dependency-valid binding orders, computed by an ordered search with
// color-refinement and automorphism pruning (core/canon.go). Any two
// alpha-equivalent requests — including adversarial tie-reordering
// renames of same-range self-joins — therefore coalesce onto one flight
// and share one plan table entry.
func flightKey(req Request) string {
	var b strings.Builder
	b.WriteString(req.Query.CanonicalSignature())
	b.WriteString("\x00deps\x00")
	for _, d := range req.Deps {
		b.WriteString(d.String())
		b.WriteByte('\x00')
	}
	b.WriteString("\x00phys\x00")
	if req.PhysicalNames != nil {
		names := make([]string, 0, len(req.PhysicalNames))
		for n, ok := range req.PhysicalNames {
			if ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			b.WriteString(n)
			b.WriteByte(';')
		}
	} else {
		b.WriteString("<nil>")
	}
	return b.String()
}
