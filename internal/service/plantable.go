// The plan table: the service's one cache of finished optimizations.
//
// Algorithm 1 — chase, backchase, cost-based ranking — is a pure function
// of the query, the dependency set, the physical restriction and the
// statistics, so the table stores its finished, ranked outcome under the
// request's flight key and consults it before any flight starts: a warm
// request is a canonical signature and a lookup, with no chase, no
// backchase and no ranking. The table is split into mutex-striped shards
// keyed by a hash of the key, each keeping true LRU recency, so
// concurrent requests for different shapes do not contend on one lock
// and a churn of never-repeating shapes evicts the coldest entry.

package service

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/optimizer"
)

// DefaultCacheSize bounds the plan table when Options.CacheSize is zero:
// a serving process seeing a stream of never-repeating query shapes must
// not accumulate entries without limit.
const DefaultCacheSize = 1024

// DefaultCacheShards is the stripe count when Options.CacheShards is
// zero. Sixteen shards keep lock hold times short under the 16-worker
// load profiles the serving layer is gated on, while every shard still
// holds enough entries (64 at the default size) for per-shard LRU to
// approximate global LRU closely.
const DefaultCacheShards = 16

// minShardCapacity is the smallest per-shard entry budget striping may
// produce: splitting a small table into many one-entry shards would let
// two hot keys that hash together evict each other while other shards
// sit empty, so small tables collapse toward fewer (ultimately one)
// shard, where eviction order is globally exact.
const minShardCapacity = 8

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
	// capacity (LRU victims). Invalidated entries are not evictions.
	Evictions int64
	// Invalidated counts entries dropped by SetStats because their
	// enumeration was cost-bounded under a statistics snapshot that is
	// no longer current.
	Invalidated int64
}

// planEntry is one finished optimization. Its result is shared by every
// request it serves — read-only, like every plan in the package.
type planEntry struct {
	key string
	// statsFP is the fingerprint of the statistics the enumeration
	// itself depended on: set only for cost-bounded entries (whose key
	// carries it too), "" for exhaustive ones, which SetStats never
	// drops.
	statsFP string
	// ranked holds the result with its candidates ranked under one
	// statistics snapshot; a hit under another snapshot re-ranks the
	// executable pool once and replaces it (see result).
	ranked atomic.Pointer[ranking]
	// upgraded marks an entry landed by a detached flight after at least
	// one of its callers was served the greedy tier.
	upgraded atomic.Bool
}

// ranking pairs a result with the fingerprint of the statistics its
// Candidates were ranked under ("" = uniform defaults).
type ranking struct {
	res *optimizer.Result
	fp  string
}

// newPlanEntry wraps a finished optimizer result. Explored is dropped:
// the stored outcome is the ranked pool, not the lattice walk. The
// stored plans are hash-consed through one table per entry, so a subterm
// that recurs across the universal plan, the minimal plans, the pool and
// its ranked copies is one node holding one memoized key. New queries are
// built; res itself is not modified.
func newPlanEntry(key, statsFP string, res *optimizer.Result, rankFP string) *planEntry {
	stored := *res
	stored.Explored = nil
	hc := core.NewHashCons()
	stored.Universal = hc.Query(res.Universal)
	stored.Minimal = hc.Queries(res.Minimal)
	stored.Executable = hc.Queries(res.Executable)
	stored.Candidates = nil
	stored.Best = nil
	if res.Candidates != nil {
		stored.Candidates = make([]cost.RankedPlan, len(res.Candidates))
		for i, c := range res.Candidates {
			stored.Candidates[i] = cost.RankedPlan{Query: hc.Query(c.Query), Cost: c.Cost, Card: c.Card}
		}
		if res.Best != nil {
			stored.Best = &stored.Candidates[0]
		}
	}
	e := &planEntry{key: key, statsFP: statsFP}
	e.ranked.Store(&ranking{res: &stored, fp: rankFP})
	return e
}

// result returns the entry's result ranked under snap. An exhaustive
// entry reached under statistics other than its ranking's re-ranks the
// stored executable pool and keeps the new ranking for later hits;
// cost-bounded entries always match, since their key carries the
// fingerprint.
func (e *planEntry) result(snap *statsSnapshot) *optimizer.Result {
	r := e.ranked.Load()
	if r.fp == snap.fp {
		return r.res
	}
	next := &ranking{res: r.res.Rerank(snap.stats), fp: snap.fp}
	e.ranked.CompareAndSwap(r, next)
	return next.res
}

// tableShard is one mutex-striped slice of the table: a map for lookup
// plus a recency list (front = most recently used).
type tableShard struct {
	mu         sync.Mutex
	m          map[string]*list.Element // value: *planEntry
	ll         *list.List
	maxEntries int // <= 0 means unbounded
}

// planTable is the sharded LRU of finished optimizations. Safe for
// concurrent use.
type planTable struct {
	shards []*tableShard
	seed   maphash.Seed

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	invalidated atomic.Int64
}

// newPlanTable returns an empty table bounded to n entries (n <= 0 means
// unbounded) split across the given number of shards (values < 1 mean
// 1). With a bounded size the shard count is clamped so every shard
// holds at least minShardCapacity entries, and n is distributed so the
// shard capacities sum to exactly n. A single shard makes recency and
// eviction order globally exact.
func newPlanTable(n, shards int) *planTable {
	if shards < 1 {
		shards = 1
	}
	if n > 0 && shards > n/minShardCapacity {
		shards = max(n/minShardCapacity, 1)
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
		t.shards[i] = &tableShard{m: map[string]*list.Element{}, ll: list.New(), maxEntries: capacity}
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

// get returns the entry for key, refreshing its recency and counting a
// hit, or nil. A miss is not counted here: the flight that then runs the
// optimizer counts it, so a request that coalesces onto another's flight
// is neither.
func (t *planTable) get(key string) *planEntry {
	s := t.shard(key)
	s.mu.Lock()
	el, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	s.ll.MoveToFront(el)
	s.mu.Unlock()
	t.hits.Add(1)
	return el.Value.(*planEntry)
}

// put stores e and returns the entry now held for its key. First writer
// wins: a racing flight for the same key computed an equivalent result,
// so overwriting would only churn. A full shard evicts its
// least-recently-used entry first.
func (t *planTable) put(e *planEntry) *planEntry {
	s := t.shard(e.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[e.key]; ok {
		return el.Value.(*planEntry)
	}
	if s.maxEntries > 0 && s.ll.Len() >= s.maxEntries {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.m, back.Value.(*planEntry).key)
		t.evictions.Add(1)
	}
	s.m[e.key] = s.ll.PushFront(e)
	return e
}

// invalidate drops every cost-bounded entry enumerated under statistics
// whose fingerprint differs from fp and returns the number dropped.
// Exhaustive entries stay: their enumeration does not depend on
// statistics, and their next hit re-ranks.
func (t *planTable) invalidate(fp string) int {
	total := 0
	for _, s := range t.shards {
		s.mu.Lock()
		var next *list.Element
		for el := s.ll.Front(); el != nil; el = next {
			next = el.Next()
			e := el.Value.(*planEntry)
			if e.statsFP == "" || e.statsFP == fp {
				continue
			}
			s.ll.Remove(el)
			delete(s.m, e.key)
			total++
		}
		s.mu.Unlock()
	}
	t.invalidated.Add(int64(total))
	return total
}

// size returns the number of stored entries.
func (t *planTable) size() int {
	n := 0
	for _, s := range t.shards {
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// counters returns a snapshot of the lifetime counters.
func (t *planTable) counters() CacheCounters {
	return CacheCounters{
		Hits:        t.hits.Load(),
		Misses:      t.misses.Load(),
		Evictions:   t.evictions.Load(),
		Invalidated: t.invalidated.Load(),
	}
}
