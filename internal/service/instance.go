package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cnb/internal/instance"
)

// InstanceSummary describes one registered instance for /metrics-style
// consumers: which names it binds and how many rows each holds.
type InstanceSummary struct {
	// Name is the registry key the instance was installed under.
	Name string
	// Collections is the number of schema names the instance binds.
	Collections int
	// Rows is the total cardinality across all bound names (set elements
	// plus dictionary entries; scalar bindings count 1).
	Rows int64
	// Cards maps each bound name to its cardinality.
	Cards map[string]int64
}

// InstanceCounters is the cumulative executed-query accounting of one
// registry entry. Counters survive hot-swaps of the instance data: they
// describe the name, not one particular snapshot.
//
// Every Query call that finds its instance lands in exactly one of
// Queries, PlanErrors and ExecErrors.
type InstanceCounters struct {
	// Queries counts Query calls that succeeded.
	Queries int64
	// Rows accumulates StreamPlan.Measure().Rows — operator rows emitted
	// while executing — across successful queries.
	Rows int64
	// Evals accumulates StreamPlan.Measure().Evals across successful
	// queries.
	Evals int64
	// PlanErrors counts Query calls whose optimization failed, including
	// deadlines and cancellations that expired while planning.
	PlanErrors int64
	// ExecErrors counts Query calls that failed during execution,
	// including per-request context cancellations and plans with no
	// executable candidate.
	ExecErrors int64
}

// instanceEntry is one registry slot: the swappable data snapshot plus
// the cumulative counters that outlive swaps.
type instanceEntry struct {
	data atomic.Pointer[instanceSnapshot]

	queries    atomic.Int64
	rows       atomic.Int64
	evals      atomic.Int64
	planErrors atomic.Int64
	execErrors atomic.Int64
}

// instanceSnapshot pairs an instance with its precomputed summary so the
// hot path and /metrics never re-walk the data.
type instanceSnapshot struct {
	in      *instance.Instance
	summary InstanceSummary
}

func (e *instanceEntry) counters() InstanceCounters {
	return InstanceCounters{
		Queries:    e.queries.Load(),
		Rows:       e.rows.Load(),
		Evals:      e.evals.Load(),
		PlanErrors: e.planErrors.Load(),
		ExecErrors: e.execErrors.Load(),
	}
}

// summarize walks the instance once and renders its summary.
func summarize(name string, in *instance.Instance) InstanceSummary {
	s := InstanceSummary{Name: name, Cards: map[string]int64{}}
	for _, n := range in.Names() {
		v, _ := in.Lookup(n)
		var card int64 = 1
		switch t := v.(type) {
		case *instance.Set:
			card = int64(t.Len())
		case *instance.Dict:
			card = int64(t.Len())
		}
		s.Cards[n] = card
		s.Rows += card
		s.Collections++
	}
	return s
}

// InstallInstance registers (or atomically replaces) the named instance
// and returns its summary. Queries already executing against a previous
// snapshot finish against it; queries arriving after the store see the
// new one — the same hot-swap contract as SetStats. The cumulative
// executed-query counters for the name are preserved across swaps.
func (s *Service) InstallInstance(name string, in *instance.Instance) (InstanceSummary, error) {
	if name == "" {
		return InstanceSummary{}, fmt.Errorf("service: instance name must be non-empty")
	}
	if in == nil {
		return InstanceSummary{}, fmt.Errorf("service: nil instance")
	}
	snap := &instanceSnapshot{in: in, summary: summarize(name, in)}
	s.instMu.Lock()
	e := s.instances[name]
	if e == nil {
		e = &instanceEntry{}
		if s.instances == nil {
			s.instances = map[string]*instanceEntry{}
		}
		s.instances[name] = e
	}
	s.instMu.Unlock()
	e.data.Store(snap)
	return snap.summary, nil
}

// lookupInstance returns the current snapshot of the named instance.
func (s *Service) lookupInstance(name string) (*instanceSnapshot, bool) {
	s.instMu.RLock()
	e := s.instances[name]
	s.instMu.RUnlock()
	if e == nil {
		return nil, false
	}
	snap := e.data.Load()
	if snap == nil {
		return nil, false
	}
	return snap, true
}

// lookupEntry returns the registry entry (for counter updates).
func (s *Service) lookupEntry(name string) *instanceEntry {
	s.instMu.RLock()
	defer s.instMu.RUnlock()
	return s.instances[name]
}

// Instances returns the summaries of every registered instance, sorted
// by name.
func (s *Service) Instances() []InstanceSummary {
	s.instMu.RLock()
	out := make([]InstanceSummary, 0, len(s.instances))
	for _, e := range s.instances {
		if snap := e.data.Load(); snap != nil {
			out = append(out, snap.summary)
		}
	}
	s.instMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// InstanceCountersFor returns the cumulative executed-query counters of
// the named instance; ok is false when the name is not registered.
func (s *Service) InstanceCountersFor(name string) (InstanceCounters, bool) {
	e := s.lookupEntry(name)
	if e == nil {
		return InstanceCounters{}, false
	}
	return e.counters(), true
}

// instanceRegistry is the Service-side state; embedded here rather than
// in service.go to keep the registry self-contained.
type instanceRegistry struct {
	instMu    sync.RWMutex
	instances map[string]*instanceEntry
}
