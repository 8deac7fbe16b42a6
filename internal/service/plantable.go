// The plan table: the service's one table of query shapes.
//
// Algorithm 1 — chase, backchase, cost-based ranking — is a pure function
// of the query, the dependency set, the physical restriction and the
// statistics, so a shape, named by its flight key, has one lifecycle:
// absent, in flight, stored, then evicted. The table holds
// one record per shape that is not absent: the live flight computing it,
// or its finished, ranked outcome. A request makes one locked
// lookup-or-join. A stored entry is a hit — a canonical signature and a
// lookup, with no chase, no backchase and no ranking — a live flight is
// joined, and otherwise the request starts the flight. So K concurrent
// requests for one shape trigger exactly one optimizer run, and no
// flight can start while the shape's entry is stored. The flight
// publishes under the same lock, in one step: the entry replaces the
// flight in the shape's record and every waiter is released.
//
// The table is split into mutex-striped shards keyed by a hash of the
// key, each keeping true LRU recency over its stored entries, so
// concurrent requests for different shapes do not contend on one lock
// and a churn of never-repeating shapes evicts the coldest entry.
// Flights never count against the capacity and are never evicted.

package service

import (
	"container/list"
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/optimizer"
)

// DefaultCacheSize bounds the plan table when Options.CacheSize is zero:
// a serving process seeing a stream of never-repeating query shapes must
// not accumulate entries without limit.
const DefaultCacheSize = 1024

// DefaultCacheShards is the plan table's stripe count. Sixteen shards
// keep lock hold times short under the 16-worker load profiles the
// serving layer is gated on, while every shard still holds enough
// entries (64 at the default size) for per-shard LRU to approximate
// global LRU closely.
const DefaultCacheShards = 16

// minShardCapacity is the smallest per-shard entry budget striping may
// produce: splitting a small table into many one-entry shards would let
// two hot keys that hash together evict each other while other shards
// sit empty, so small tables collapse toward fewer (ultimately one)
// shard, where eviction order is globally exact.
const minShardCapacity = 8

// noBudget is the wait budget of a caller that waits for its flight
// however long it takes.
const noBudget time.Duration = -1

// CacheCounters is a snapshot of the plan table's lifetime counters,
// each maintained with an atomic so it is counted exactly once under
// concurrent access; the snapshot is point-in-time consistent per
// counter.
type CacheCounters struct {
	// Hits counts requests answered from a stored entry.
	Hits int64
	// Misses counts flights that found no entry and ran the optimizer.
	Misses int64
	// Evictions counts entries dropped because a shard reached its
	// capacity (LRU victims).
	Evictions int64
}

// planEntry is one finished optimization. Its result is shared by every
// request it serves — read-only, like every plan in the package.
type planEntry struct {
	key string
	// ranked holds the result with its candidates ranked under one
	// statistics snapshot; a hit under another snapshot re-ranks the
	// executable pool once and replaces it (see result).
	ranked atomic.Pointer[ranking]
	// upgraded marks an entry published by a flight after at least one
	// of its callers was served the greedy tier.
	upgraded atomic.Bool
}

// ranking pairs a result with the fingerprint of the statistics its
// Candidates were ranked under ("" = uniform defaults).
type ranking struct {
	res *optimizer.Result
	fp  string
}

// newPlanEntry wraps a finished optimizer result. Explored is dropped:
// the stored outcome is the ranked pool, not the lattice walk, and the
// executable pool itself is folded into the ranked candidates
// (optimizer.Result.CompactPool). The stored plans are hash-consed
// through one table per entry, so a subterm that recurs across the
// universal plan, the minimal plans and the candidates is one node
// holding one memoized key. New queries are built; res itself is not
// modified.
func newPlanEntry(key string, res *optimizer.Result, rankFP string) *planEntry {
	stored := *res
	stored.Explored = nil
	hc := core.NewHashCons()
	stored.Universal = hc.Query(res.Universal)
	stored.Minimal = hc.Queries(res.Minimal)
	stored.Candidates = nil
	stored.Best = nil
	if res.Candidates != nil {
		stored.Candidates = make([]cost.RankedPlan, len(res.Candidates))
		for i, c := range res.Candidates {
			c.Query = hc.Query(c.Query)
			stored.Candidates[i] = c
		}
		if res.Best != nil {
			stored.Best = &stored.Candidates[0]
		}
	}
	// The pool is kept as the candidates' binding orders when it can be;
	// Rerank rebuilds it.
	stored.CompactPool()
	stored.Executable = hc.Queries(stored.Executable)
	e := &planEntry{key: key}
	e.ranked.Store(&ranking{res: &stored, fp: rankFP})
	return e
}

// result returns the entry's result ranked under snap. An entry reached
// under statistics other than its ranking's re-ranks the stored
// executable pool and keeps the new ranking for later hits.
func (e *planEntry) result(snap *statsSnapshot) *optimizer.Result {
	r := e.ranked.Load()
	if r.fp == snap.fp {
		return r.res
	}
	next := &ranking{res: r.res.Rerank(snap.stats), fp: snap.fp}
	e.ranked.CompareAndSwap(r, next)
	return next.res
}

// flight is one in-progress optimization, shared by every request for
// its shape that arrives before it publishes.
type flight struct {
	key string
	// ctx is the optimizer run's context: detached from every caller's
	// cancellation (context.WithoutCancel of the first caller's, so
	// request-scoped values still flow), and cancelled when the flight
	// publishes or is abandoned (see planTable.wait).
	ctx    context.Context
	cancel context.CancelFunc
	// done is closed at publish, after e and err are set.
	done chan struct{}
	e    *planEntry
	err  error

	// The fields below are guarded by the shard's mutex.

	// refs counts the callers still waiting on the outcome.
	refs int
	// detached marks a flight a budgeted caller left before it landed:
	// it runs to completion whatever its other callers do, since the
	// shape's later requests are owed its entry.
	detached bool
	// greedyServed records that a caller's budget expired and it was
	// served the greedy tier; publishing such a flight without error is
	// an upgrade.
	greedyServed bool
}

// record is the table's state for one shape: exactly one of el (the
// stored entry, an element of the shard's LRU list holding a
// *planEntry) and f (the live flight) is set.
type record struct {
	el *list.Element
	f  *flight
}

// tableShard is one mutex-striped slice of the table: the shapes' records
// plus a recency list of the stored entries (front = most recently
// used).
type tableShard struct {
	mu         sync.Mutex
	m          map[string]record
	ll         *list.List
	maxEntries int // <= 0 means unbounded
}

// planTable is the sharded table of query shapes. Safe for concurrent
// use.
type planTable struct {
	shards []*tableShard
	seed   maphash.Seed

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// newPlanTable returns an empty table bounded to n stored entries
// (n <= 0 means unbounded) across DefaultCacheShards shards. With a
// bounded size the shard count is clamped so every shard holds at least
// minShardCapacity entries, and n is distributed so the shard capacities
// sum to exactly n. A single shard makes recency and eviction order
// globally exact.
func newPlanTable(n int) *planTable {
	shards := DefaultCacheShards
	if n > 0 {
		shards = min(shards, max(n/minShardCapacity, 1))
	}
	t := &planTable{shards: make([]*tableShard, shards), seed: maphash.MakeSeed()}
	for i := range t.shards {
		capacity := 0
		if n > 0 {
			capacity = n / shards
			if i < n%shards {
				capacity++
			}
		}
		t.shards[i] = &tableShard{m: map[string]record{}, ll: list.New(), maxEntries: capacity}
	}
	return t
}

// shard picks the stripe for a key.
func (t *planTable) shard(key string) *tableShard {
	if len(t.shards) == 1 {
		return t.shards[0]
	}
	return t.shards[maphash.String(t.seed, key)%uint64(len(t.shards))]
}

// lookup is a request's one locked step into the table. A stored entry
// is a hit: its recency is refreshed and it is returned. Otherwise the
// request joins the shape's live flight (owner false: it is coalesced)
// or, when there is none, registers a new flight — the miss — that the
// caller must run and publish (owner true); ctx seeds its context.
func (t *planTable) lookup(ctx context.Context, key string) (e *planEntry, f *flight, owner bool) {
	s := t.shard(key)
	s.mu.Lock()
	rec := s.m[key]
	switch {
	case rec.el != nil:
		s.ll.MoveToFront(rec.el)
		s.mu.Unlock()
		t.hits.Add(1)
		return rec.el.Value.(*planEntry), nil, false
	case rec.f != nil:
		rec.f.refs++
		s.mu.Unlock()
		return nil, rec.f, false
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f = &flight{key: key, ctx: fctx, cancel: cancel, done: make(chan struct{}), refs: 1}
	s.m[key] = record{f: f}
	s.mu.Unlock()
	t.misses.Add(1)
	return nil, f, true
}

// wait blocks until f publishes, the caller's budget expires or ctx is
// cancelled, and reports whether the flight's own outcome (e, err) is
// returned. A budget of noBudget never expires.
//
// A caller that leaves early gets (nil, false, ctx.Err()) on
// cancellation, and (nil, false, nil) on budget expiry after marking the
// flight greedy-served: it serves the greedy tier. A budgeted caller
// that leaves detaches the flight, which then runs to completion and
// stores its entry. When the last caller leaves a flight that is not
// detached, the flight is cancelled and its record dropped: nobody would
// consume the outcome. Leaving and publishing both hold the shard's
// lock, so a caller either sees the flight published and serves its
// outcome, or marks it before publish reads the marks — never both,
// never neither.
func (t *planTable) wait(ctx context.Context, f *flight, budget time.Duration) (*planEntry, bool, error) {
	var expired <-chan time.Time
	if budget != noBudget {
		timer := time.NewTimer(budget)
		defer timer.Stop()
		expired = timer.C
	}
	var err error
	select {
	case <-f.done:
		return f.e, true, f.err
	case <-ctx.Done():
		err = ctx.Err()
	case <-expired:
	}
	s := t.shard(f.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-f.done:
		// Published while this caller was leaving: serve the outcome.
		return f.e, true, f.err
	default:
	}
	f.refs--
	if budget != noBudget {
		f.detached = true
	}
	if err == nil {
		f.greedyServed = true
	}
	if f.refs == 0 && !f.detached {
		// Unpublished, so the shape's record is still this flight's.
		f.cancel()
		delete(s.m, f.key)
	}
	return nil, false, err
}

// publish ends f in one step under its shard's lock. It stores e as the
// shape's entry — unless the run errored or a cap truncated it — and
// otherwise drops the shape's record; marks e upgraded when a caller was
// served the greedy tier; and releases every waiter. It reports whether
// the landing is an upgrade. An abandoned flight (its record already
// dropped) stores nothing.
func (t *planTable) publish(f *flight, e *planEntry, err error) bool {
	s := t.shard(f.key)
	s.mu.Lock()
	f.e, f.err = e, err
	upgraded := f.greedyServed && err == nil
	if upgraded {
		e.upgraded.Store(true)
	}
	if s.m[f.key].f == f {
		if err == nil && !e.ranked.Load().res.Truncated {
			if s.maxEntries > 0 && s.ll.Len() >= s.maxEntries {
				back := s.ll.Back()
				s.ll.Remove(back)
				delete(s.m, back.Value.(*planEntry).key)
				t.evictions.Add(1)
			}
			s.m[f.key] = record{el: s.ll.PushFront(e)}
		} else {
			delete(s.m, f.key)
		}
	}
	close(f.done)
	s.mu.Unlock()
	f.cancel()
	return upgraded
}

// size returns the number of stored entries.
func (t *planTable) size() int {
	n := 0
	for _, s := range t.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// counters returns a snapshot of the lifetime counters.
func (t *planTable) counters() CacheCounters {
	return CacheCounters{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Evictions: t.evictions.Load(),
	}
}
