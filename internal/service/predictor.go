package service

import (
	"hash/fnv"
	"sync"
	"time"
)

// DefaultPredictorCapacity bounds the latency predictor's side table when
// Options.Predictor is nil and no explicit capacity was given: 16k shape
// families is far beyond any observed working set (the plan cache itself
// defaults to fewer entries), yet small enough that an adversarial stream
// of unique shapes cannot grow service memory without bound.
const DefaultPredictorCapacity = 1 << 14

// predictorShards stripes the side table so concurrent observations of
// unrelated shapes do not contend on one lock. Must be a power of two.
const predictorShards = 16

// predictorAlpha is the EWMA smoothing weight applied to a fresh
// enumeration latency: new observations count as much as all history
// combined, so a shape family converges to a changed regime within a few
// flights while one outlier cannot erase the history on its own.
const predictorAlpha = 0.5

// predEntry is one shape family's learned flight-latency profile.
type predEntry struct {
	// ewma is the exponentially weighted moving average of observed
	// flight latencies — the number predictions are made from.
	ewma time.Duration
	// max is the largest latency ever observed for the family, kept for
	// observability (an operator reading the side table can see the worst
	// case a prediction is papering over).
	max time.Duration
	// samples counts observations folded into the entry.
	samples int64
}

// LatencyPredictor is a bounded, sharded side table mapping shape
// families — flight keys: canonical query signature + dependency set +
// physical restriction — to their observed flight latency (EWMA + max).
// The Service updates it whenever
// a flight lands, including detached flights every caller abandoned, and
// consults it under two-tier serving to decide per shape whether to wait
// synchronously, serve the greedy tier immediately, or fall back to the
// budgeted wait (see Options.MaxPlanLatency).
//
// The key carries no statistics fingerprint, so predictions survive a
// stats hot-swap, like the plan table entries they describe. Stale
// families age out through the capacity bound (FIFO per shard).
//
// A LatencyPredictor may be shared between Services via
// Options.Predictor — it is keyed by content, not by plan table state,
// so the learned budgets survive plan table loss (a restart).
// Safe for concurrent use by any number of goroutines.
type LatencyPredictor struct {
	shards [predictorShards]predShard
	// perShard is the per-shard entry bound (total capacity distributed
	// evenly, rounded up, minimum 1).
	perShard int
}

// predShard is one mutex-striped slice of the side table. order is a
// FIFO insertion queue: when the shard is full the oldest family is
// evicted — a deliberately simple policy, since an evicted family merely
// reverts to the budgeted-wait fallback until re-learned.
type predShard struct {
	mu      sync.Mutex
	entries map[string]*predEntry
	order   []string
}

// NewLatencyPredictor builds a predictor bounded to capacity entries
// (capacity <= 0 selects DefaultPredictorCapacity).
func NewLatencyPredictor(capacity int) *LatencyPredictor {
	if capacity <= 0 {
		capacity = DefaultPredictorCapacity
	}
	per := (capacity + predictorShards - 1) / predictorShards
	if per < 1 {
		per = 1
	}
	return &LatencyPredictor{perShard: per}
}

// Len reports the number of shape families currently tracked.
func (p *LatencyPredictor) Len() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// shard picks the stripe for a key.
func (p *LatencyPredictor) shard(key string) *predShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return &p.shards[h.Sum32()&(predictorShards-1)]
}

// observe folds one landed flight's latency into the key's entry.
func (p *LatencyPredictor) observe(key string, d time.Duration) {
	s := p.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		if len(s.entries) >= p.perShard {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.entries, oldest)
		}
		if s.entries == nil {
			s.entries = map[string]*predEntry{}
		}
		e = &predEntry{ewma: d}
		s.entries[key] = e
		s.order = append(s.order, key)
	} else {
		e.ewma = time.Duration(predictorAlpha*float64(d) + (1-predictorAlpha)*float64(e.ewma))
	}
	if d > e.max {
		e.max = d
	}
	e.samples++
}

// predict returns the key's learned flight-latency EWMA; ok is false for
// an unknown (never landed, or evicted) shape family.
func (p *LatencyPredictor) predict(key string) (ewma time.Duration, ok bool) {
	s := p.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return 0, false
	}
	return e.ewma, true
}
