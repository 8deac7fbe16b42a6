// Package optimizer implements Algorithm 1 of Deutsch, Popa, Tannen
// (VLDB 1999) end to end:
//
//  1. chase the query with D ∪ D′ into the universal plan U,
//  2. backchase U, enumerating the minimal plans,
//  3. apply conventional cost-based optimization (binding reorder,
//     non-failing-lookup simplification) to each plan,
//  4. return the cheapest plan.
//
// The optimizer can be restricted to emit only plans over the physical
// schema ("the obvious strategy is to attempt to remove whatever is in
// the logical schema but not in the physical schema", §3).
package optimizer

import (
	"context"
	"fmt"

	"cnb/internal/backchase"
	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/planrewrite"
)

// Options configures an optimization run.
type Options struct {
	// Deps is D ∪ D′: logical constraints plus the implementation mapping.
	Deps []*core.Dependency
	// PhysicalNames restricts final plans to the given schema names when
	// non-nil; plans mentioning other names are discarded (unless no plan
	// qualifies, in which case all plans are kept and Result.Fallback is
	// set — soundness never depends on the restriction).
	PhysicalNames map[string]bool
	// Stats ranks the candidate plans; when nil, uniform defaults are
	// used. It never changes which plans the backchase finds.
	Stats *cost.Stats
	// Chase tunes the chase phase and every chase the backchase runs.
	Chase chase.Options
	// MinimalOnly restricts the candidate plans to backchase normal forms.
	// By default every explored backchase state (each of which is an
	// equivalent plan — "we can stop this rewriting anytime") is also
	// costed: the paper's §4 view+index plan keeps the derivable view V
	// for its small size even though V is removable, so it is an
	// intermediate state rather than a minimal plan.
	MinimalOnly bool
}

// Result reports everything Algorithm 1 produced.
type Result struct {
	// Universal is the universal plan chase(Q).
	Universal *core.Query
	// ChaseSteps traces the constraints applied during the chase phase.
	ChaseSteps []chase.Step
	// Minimal are the raw minimal plans from the backchase (normalized).
	Minimal []*core.Query
	// Explored are all distinct backchase states (each an equivalent
	// plan); included in the candidate pool unless MinimalOnly is set.
	Explored []*core.Query
	// Executable is the candidate pool after lookup simplification and
	// deduplication, in pool order and before binding reorder: the input
	// Candidates ranks, kept so Rerank can rank it again under other
	// statistics. It is nil on a result whose pool CompactPool folded
	// into Candidates; Pool rebuilds it.
	Executable []*core.Query
	// poolOrder is a compacted pool: for each candidate in turn, the pool
	// position of each of its bindings.
	poolOrder []uint8
	// Candidates are the cost-ranked executable plans after lookup
	// simplification and binding reorder, cheapest first.
	Candidates []cost.RankedPlan
	// Best is the cheapest candidate. It is nil only when the candidate
	// pool is empty, which cannot happen for well-formed inputs.
	Best *cost.RankedPlan
	// States is the number of subqueries the backchase explored.
	States int
	// Truncated reports that the backchase state cap
	// (backchase.Options.MaxStates, at its default) stopped the
	// enumeration early, so Minimal and the candidate pool may be
	// incomplete.
	Truncated bool
	// Fallback reports that the physical-only restriction was lifted
	// because no minimal plan satisfied it.
	Fallback bool
	// Inconsistent reports that the chase proved the query empty under
	// the constraints (an EGD equated distinct constants).
	Inconsistent bool
}

// Optimize runs Algorithm 1 on the query.
func Optimize(q *core.Query, opts Options) (*Result, error) {
	return OptimizeContext(context.Background(), q, opts)
}

// OptimizeContext is Optimize with cancellation, propagated through both
// the chase and the backchase phase.
func OptimizeContext(ctx context.Context, q *core.Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	// Phase 1: chase. The premise index is a pure function of the
	// dependency set, so one index serves the chase phase and every
	// equivalence chase of the backchase lattice.
	depIndex := chase.NewDepIndex(opts.Deps)
	chased, err := chase.ChaseIndexed(ctx, q, depIndex, opts.Chase)
	if err != nil {
		return nil, fmt.Errorf("optimizer: chase: %w", err)
	}
	res := &Result{Universal: chased.Query, ChaseSteps: chased.Steps}
	if chased.Inconsistent {
		res.Inconsistent = true
		res.Minimal = []*core.Query{q.Clone()}
		res.Executable = res.Minimal
		res.rank(opts.Stats)
		return res, nil
	}

	// Phase 2: backchase.
	bopts := backchase.Options{
		Chase: opts.Chase,
		Index: depIndex,
		Goal:  q,
	}
	enum, err := backchase.EnumerateContext(ctx, chased.Query, opts.Deps, bopts)
	if err != nil {
		return nil, fmt.Errorf("optimizer: backchase: %w", err)
	}
	res.States = enum.States
	res.Truncated = enum.Truncated
	res.Minimal = enum.Plans
	res.Explored = enum.Explored

	// Candidate pool: the minimal plans plus (by default) every explored
	// backchase state — all are equivalent to Q, and a non-minimal state
	// can be the cheapest executable plan (§4's view+index navigation).
	pool := append([]*core.Query(nil), enum.Plans...)
	if !opts.MinimalOnly {
		pool = append(pool, enum.Explored...)
	}

	// Physical-only restriction.
	isPhysical := func(p *core.Query) bool {
		if opts.PhysicalNames == nil {
			return true
		}
		for n := range p.Names() {
			if !opts.PhysicalNames[n] {
				return false
			}
		}
		return true
	}
	var plans []*core.Query
	for _, p := range pool {
		if isPhysical(p) {
			plans = append(plans, p)
		}
	}
	if len(plans) == 0 {
		plans = pool
		res.Fallback = opts.PhysicalNames != nil
	}

	// Phase 3: conventional optimization per plan (ExecutablePool), then
	// the cost-based binding reorder and ranking.
	res.Executable = ExecutablePool(plans)
	res.rank(opts.Stats)
	return res, nil
}

// ExecutablePool is the per-plan half of phase 3: it simplifies the
// lookups of each plan (planrewrite.SimplifyLookups) and keeps, in pool
// order, the first of each set of simplified plans that share a
// CanonicalSignature. Plans are bucketed by their ShapeKey, which
// isomorphic plans share; only a plan that lands in a bucket already
// holding a plan is canonicalized, together with the bucket's earlier
// members, so equal canonical signatures still decide every duplicate.
// It returns nil for an empty pool.
func ExecutablePool(plans []*core.Query) []*core.Query {
	if len(plans) == 0 {
		return nil
	}
	out := make([]*core.Query, 0, len(plans))
	// last maps a shape key to 1 + the position in out of its bucket's
	// latest member; prev[i] links out[i] to the bucket member before it
	// the same way (0 ends the chain).
	last := make(map[uint64]int, len(plans))
	prev := make([]int, 0, len(plans))
	// sigs holds the canonical signatures computed so far, parallel to
	// out ("" = not computed).
	sigs := make([]string, 0, len(plans))
	for _, p := range plans {
		s := planrewrite.SimplifyLookups(p)
		k := s.ShapeKey()
		head := last[k]
		sig := ""
		if head != 0 {
			sig = s.CanonicalSignature()
			dup := false
			for m := head; m != 0 && !dup; m = prev[m-1] {
				if sigs[m-1] == "" {
					sigs[m-1] = out[m-1].CanonicalSignature()
				}
				dup = sigs[m-1] == sig
			}
			if dup {
				continue
			}
		}
		prev = append(prev, head)
		last[k] = len(out) + 1
		out = append(out, s)
		sigs = append(sigs, sig)
	}
	return out
}

// Rerank returns a copy of r whose Candidates and Best rank r.Executable
// under st (nil = uniform defaults) — exactly what OptimizeContext would
// have ranked under st, since the chase and an exhaustive backchase do
// not depend on statistics. r itself is not modified.
func (r *Result) Rerank(st *cost.Stats) *Result {
	cp := *r
	cp.Executable = r.Pool()
	cp.rank(st)
	if r.Executable == nil {
		cp.CompactPool()
	}
	return &cp
}

// CompactPool drops Executable, keeping each of its plans as the binding
// order of the candidate that ranks it: a candidate is its pool plan
// with the bindings permuted (cost.Stats.Reorder), and Candidates must
// rank Executable, as Optimize and Rerank leave them. Pool and Rerank
// rebuild the plans. A result without a pool, or with a plan of more
// than 256 bindings, is left as it is.
func (r *Result) CompactPool() {
	if r.Executable == nil || len(r.Candidates) != len(r.Executable) {
		return
	}
	n := 0
	for _, c := range r.Candidates {
		n += len(c.Query.Bindings)
	}
	order := make([]uint8, 0, n)
	for _, c := range r.Candidates {
		p := r.Executable[c.Pool]
		if len(p.Bindings) > 256 {
			return
		}
		for _, b := range c.Query.Bindings {
			order = append(order, uint8(p.BindingOf(b.Var)))
		}
	}
	r.Executable, r.poolOrder = nil, order
}

// Pool returns the executable pool: Executable, or the plans a
// compacted result rebuilds from its candidates, in pool order.
func (r *Result) Pool() []*core.Query {
	if r.Executable != nil || r.poolOrder == nil {
		return r.Executable
	}
	pool := make([]*core.Query, len(r.Candidates))
	at := 0
	for _, c := range r.Candidates {
		bs := make([]core.Binding, len(c.Query.Bindings))
		for _, b := range c.Query.Bindings {
			bs[r.poolOrder[at]] = b
			at++
		}
		pool[c.Pool] = &core.Query{Out: c.Query.Out, Bindings: bs, Conds: c.Query.Conds}
	}
	return pool
}

// rank fills Candidates and Best from Executable.
func (r *Result) rank(st *cost.Stats) {
	if st == nil {
		st = cost.NewStats()
	}
	r.Candidates = st.Rank(r.Executable)
	r.Best = nil
	if len(r.Candidates) > 0 {
		r.Best = &r.Candidates[0]
	}
}
