package service

import (
	"sync/atomic"
	"time"
)

// histogramBuckets is the fixed bucket count of a LatencyHistogram.
// Bucket 0 holds sub-microsecond samples; bucket i (1 <= i < 31) holds
// latencies in [2^(i-1), 2^i) microseconds; the last bucket absorbs
// everything from ~2^30 µs (~18 minutes) up, so no sample is ever
// dropped and bucket sums always equal the number of recorded requests.
const histogramBuckets = 32

// LatencyHistogram is a lock-free latency histogram with fixed
// logarithmic (powers-of-two microseconds) buckets. Recording is a
// single atomic increment on the owning bucket — cheap enough to sit on
// every served request — and Snapshot derives the total as the sum of
// the bucket counts, so "bucket counts sum to recorded requests" holds
// by construction rather than by a second counter that could drift.
type LatencyHistogram struct {
	buckets [histogramBuckets]atomic.Int64
}

// histogramBucketFor maps a latency to its bucket index.
func histogramBucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us <= 0 {
		return 0
	}
	// bits.Len-style: bucket i covers [2^(i-1), 2^i) µs.
	i := 0
	for us > 0 {
		us >>= 1
		i++
	}
	if i >= histogramBuckets {
		i = histogramBuckets - 1
	}
	return i
}

// Record folds one latency sample into the histogram.
func (h *LatencyHistogram) Record(d time.Duration) {
	h.buckets[histogramBucketFor(d)].Add(1)
}

// Reset zeroes every bucket. Concurrent Record calls are not lost — they
// land either before or after the sweep — but a Snapshot raced with a
// Reset may observe a partially cleared histogram, which is the accepted
// contract for a scrape-side reset.
func (h *LatencyHistogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot returns the current bucket counts and their sum.
func (h *LatencyHistogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Counts: make([]int64, histogramBuckets)}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Total += c
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a LatencyHistogram.
// Counts[0] is the sub-microsecond bucket; Counts[i] for i >= 1 counts
// samples in [2^(i-1), 2^i) microseconds, with the last bucket clamping
// all larger latencies. Total is the sum of Counts.
type HistogramSnapshot struct {
	// Counts holds one entry per bucket, least-latency first.
	Counts []int64
	// Total is the sum of Counts — exactly the number of recorded samples.
	Total int64
}

// tierHistograms groups the Service's per-tier latency distributions.
type tierHistograms struct {
	greedy            LatencyHistogram
	backchaseSync     LatencyHistogram
	backchaseUpgraded LatencyHistogram
	queryPlan         LatencyHistogram
	queryExec         LatencyHistogram
}

// ServiceHistograms is a point-in-time copy of every per-tier latency
// distribution the Service maintains. Greedy, BackchaseSync and
// BackchaseUpgraded partition successful Optimize calls by served tier:
// greedy-tier responses, backchase responses from a not-upgraded shape
// (synchronous or budgeted wait that landed), and backchase responses
// served after a detached upgrade. QueryPlan and QueryExec split
// successful Query calls into planning and execution time.
type ServiceHistograms struct {
	// Greedy holds end-to-end latencies of Optimize calls answered by the
	// greedy instant tier.
	Greedy HistogramSnapshot
	// BackchaseSync holds latencies of backchase-tier Optimize responses
	// whose shape had not been upgraded from a detached flight.
	BackchaseSync HistogramSnapshot
	// BackchaseUpgraded holds latencies of backchase-tier Optimize
	// responses served from a plan-cache entry a detached flight upgraded.
	BackchaseUpgraded HistogramSnapshot
	// QueryPlan holds the planning component of successful Query calls.
	QueryPlan HistogramSnapshot
	// QueryExec holds the execution component of successful Query calls.
	QueryExec HistogramSnapshot
}

// Histograms snapshots the per-tier latency distributions.
func (s *Service) Histograms() ServiceHistograms {
	return ServiceHistograms{
		Greedy:            s.hists.greedy.Snapshot(),
		BackchaseSync:     s.hists.backchaseSync.Snapshot(),
		BackchaseUpgraded: s.hists.backchaseUpgraded.Snapshot(),
		QueryPlan:         s.hists.queryPlan.Snapshot(),
		QueryExec:         s.hists.queryExec.Snapshot(),
	}
}

// ResetHistograms zeroes every per-tier latency distribution (counters
// are untouched). Exposed to cnbd's
// -hist-reset-on-scrape mode so each scrape reports the interval since
// the previous one.
func (s *Service) ResetHistograms() {
	s.hists.greedy.Reset()
	s.hists.backchaseSync.Reset()
	s.hists.backchaseUpgraded.Reset()
	s.hists.queryPlan.Reset()
	s.hists.queryExec.Reset()
}
