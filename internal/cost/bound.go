// Admissible lower bounds for the cost-bounded backchase.
//
// The backchase prunes a lattice state when a lower bound on the cost of
// every plan reachable from it exceeds the cost of a complete plan
// already in hand. Two bounds live here:
//
//   - ScanFloor is the PR-2 bound: the cheapest bare-scan binding of the
//     state, with every lookup or dependent range floored at 0. It prunes
//     only the scan-only region of the lattice (~20-30% of states on the
//     star family), because any state retaining a lookup binding floors
//     at 0.
//   - LowerBound is the dictionary-aware bound: it floors lookup chains
//     by their mandatory probe work and, crucially, restricts the
//     "cheapest first binding" argument to bindings that can actually be
//     *grounded* — rewritten into a closed range using only equalities the
//     state's conditions imply. A state that has lost its cheap index
//     anchors floors at the cardinality of its cheapest groundable scan,
//     not at 0, which is what lets the search prune the expensive lattice
//     regions wholesale.
//
// Both bounds are admissible with respect to the engine's plan metric
// (EstimateQuick over planrewrite.SimplifyLookups); the argument for
// LowerBound is spelled out on the function.
package cost

import (
	"math"

	"cnb/internal/congruence"
	"cnb/internal/core"
)

// ScanFloor is the PR-2 admissible bound, kept for A/B comparison (E14,
// BenchmarkBackchasePrunedTight) and reachable only through
// backchase.EnumerateScanFloor: the minimum over the state's bindings
// of the bare-scan floor, where a binding whose range is a KName (or
// dom(KName)) floors at its cardinality and every other range floors
// at 0. See LowerBound for the strictly tighter replacement.
func (s *Stats) ScanFloor(q *core.Query) float64 {
	lb := math.Inf(1)
	for _, b := range q.Bindings {
		f := 0.0
		switch {
		case b.Range.Kind == core.KName:
			f = s.card(b.Range.Name)
		case b.Range.Kind == core.KDom && b.Range.Base.Kind == core.KName:
			f = s.card(b.Range.Base.Name)
		}
		if f < lb {
			lb = f
		}
	}
	if math.IsInf(lb, 1) {
		return 0
	}
	return lb
}

// LowerBound returns an admissible lower bound on the estimated cost of
// every executable plan reachable from the given backchase state —
// including after congruent range rewriting in Subquery, substitution and
// dom-loop elimination in planrewrite.SimplifyLookups, condition pruning
// in Normalize, and any binding reorder.
//
// The argument extends PR 2's first-binding floor. Every term of Estimate
// is non-negative and the first binding of any plan is charged at
// multiplicity 1, so
//
//	Estimate(plan, any order) >= rangeCost(plan's first binding).
//
// A plan's first binding must have a *closed* range (one mentioning no
// variables — binding order is topological), and every binding of a
// reachable plan maps back to a binding of this state whose range was
// rewritten using only equalities implied by the state's conditions
// (rewrites re-route access paths; they never invent equalities). Hence:
//
//  1. Only groundable bindings — those whose range can be rewritten into
//     a closed term under the state's congruence closure — can supply the
//     first binding of any reachable plan. The rest are excluded from the
//     minimum, which is what raises the floor of states that lost their
//     constant-keyed index anchors.
//  2. A groundable binding floors at the cheapest cost the estimator can
//     charge any congruent form of its range: its cardinality for bare
//     scans (ground ranges are returned verbatim by every rewrite), a
//     probe floor of LookupCost + EntryFanoutMin[M] for lookups into M
//     (every congruent lookup form keeps its dictionary root, pays one
//     probe, and iterates a bucket no smaller than the smallest one in
//     the instance — min fanouts survive every rewrite because rewrites
//     only re-route access paths, never shrink the answer), and
//     FieldFanoutMin for dependent field ranges. Because a variable-free
//     range can also be replaced wholesale by any congruent class member
//     (or re-expressed as a field of a congruent struct), the floor takes
//     the minimum over those shapes too.
//  3. A lookup into a dictionary with no statistics at all floors at
//     LookupFloor (>= one probe), not 0 — the estimator charges unknown
//     dictionaries LookupCost plus a default fanout of 1, so any
//     LookupFloor <= LookupCost+1 is admissible (enforced by clamping).
//
// Therefore min over groundable bindings of that floor under-estimates
// every reachable plan, and pruning a state whose LowerBound exceeds the
// cost of an already-known complete plan never discards a cheaper plan.
// LowerBound >= ScanFloor always: bare-scan bindings are groundable with
// the same floor, and no other binding can drag the minimum to 0 anymore.
func (s *Stats) LowerBound(q *core.Query) float64 {
	if len(q.Bindings) == 0 {
		return 0
	}
	g := newGrounder(q)
	lb := math.Inf(1)
	for _, b := range q.Bindings {
		if !g.groundable(b.Range) {
			continue
		}
		f := s.rangeFloor(b.Range)
		if !b.Range.IsGround() {
			// Variable-bearing ranges can be replaced by any congruent
			// class member or re-expressed as a field of a congruent
			// struct constructor; ground ranges survive verbatim.
			for _, m := range g.cc.ClassMembers(b.Range) {
				if fm := s.rangeFloor(m); fm < f {
					f = fm
				}
			}
			for _, field := range g.congruentStructFields(b.Range) {
				if fm := s.fieldFanoutMin(field); fm < f {
					f = fm
				}
			}
		}
		if f < lb {
			lb = f
		}
	}
	if math.IsInf(lb, 1) {
		// No groundable binding (ill-scoped state); claim nothing.
		return 0
	}
	return lb
}

// rangeFloor is the cheapest cost the estimator can charge a range of
// this shape, independent of where the binding lands in the plan.
func (s *Stats) rangeFloor(t *core.Term) float64 {
	switch t.Kind {
	case core.KName:
		return s.card(t.Name)
	case core.KDom:
		if t.Base.Kind == core.KName {
			return s.card(t.Base.Name)
		}
		return 0
	case core.KLookup:
		if root := t.Base.Root(); root.Kind == core.KName {
			return s.probeFloor(root.Name)
		}
		// The dictionary itself is variable-rooted: it could rewrite into
		// any known dictionary, so take the cheapest probe floor.
		return s.anyProbeFloor()
	case core.KProj:
		return s.fieldFanoutMin(t.Name)
	}
	return 0
}

// probeFloor is the minimum the estimator charges for one lookup into the
// named dictionary: the probe itself plus the smallest bucket it can
// return. A dictionary with no statistics at all floors at the documented
// conservative LookupFloor constant (>= one probe), clamped to
// LookupCost+1 so it can never exceed the estimator's own charge for an
// unknown dictionary.
func (s *Stats) probeFloor(name string) float64 {
	if min, ok := s.EntryFanoutMin[name]; ok {
		return s.LookupCost + min
	}
	if _, ok := s.EntryFanout[name]; ok {
		// Average known, minimum not learned: the probe alone is still
		// mandatory.
		return s.LookupCost
	}
	if _, ok := s.Card[name]; ok {
		return s.LookupCost
	}
	return math.Min(math.Max(s.LookupCost, s.LookupFloor), s.LookupCost+1)
}

// anyProbeFloor is the cheapest probeFloor over every known dictionary —
// the floor of a lookup whose dictionary could rewrite into any of them.
func (s *Stats) anyProbeFloor() float64 {
	f := math.Min(math.Max(s.LookupCost, s.LookupFloor), s.LookupCost+1)
	for name := range s.EntryFanoutMin {
		if p := s.probeFloor(name); p < f {
			f = p
		}
	}
	return f
}

// fieldFanoutMin is the floor of a dependent range over a set-valued
// field: the smallest observed cardinality, or 0 when the field was never
// observed (a dependent range over an unknown field claims nothing).
func (s *Stats) fieldFanoutMin(field string) float64 {
	if f, ok := s.FieldFanoutMin[field]; ok {
		return f
	}
	return 0
}

// grounder decides which bindings of a state can be rewritten into a
// closed (variable-free) range using only the equalities the state's
// conditions imply. It mirrors the congruence closure Subquery rewrites
// with — same term universe (AllTerms), same merges (Conds) — and marks a
// congruence class ground when any member is groundable: ground directly
// (no variables), through its class, or structurally (every child
// groundable), iterated to a fixpoint so lifted equalities like
// k ≡ c  ⇒  M[k] ≡ M[c] are honored.
//
// Over-approximation is the safe direction here: deeming a binding
// groundable when no rewrite actually grounds it only lowers the bound.
type grounder struct {
	cc     *congruence.Closure
	ground map[int]bool // class representative -> contains a ground form
}

func newGrounder(q *core.Query) *grounder {
	cc := planClosure(q, -1)
	g := &grounder{cc: cc, ground: map[int]bool{}}
	terms := cc.Terms()
	for changed := true; changed; {
		changed = false
		for _, t := range terms {
			rep := cc.Rep(t)
			if !g.ground[rep] && g.groundable(t) {
				g.ground[rep] = true
				changed = true
			}
		}
	}
	return g
}

// groundable reports whether the term can be rewritten into a closed
// form: it is ground already, its congruence class holds a ground form,
// or every variable-bearing child is itself groundable.
func (g *grounder) groundable(t *core.Term) bool {
	if t.IsGround() {
		return true
	}
	if _, ok := g.cc.ID(t); ok && g.ground[g.cc.Rep(t)] {
		return true
	}
	switch t.Kind {
	case core.KProj, core.KDom:
		return g.groundable(t.Base)
	case core.KLookup:
		return g.groundable(t.Base) && g.groundable(t.Key)
	case core.KStruct:
		for _, f := range t.Fields {
			if !g.groundable(f.Term) {
				return false
			}
		}
		return true
	}
	return false
}

// congruentStructFields returns the field names under which t appears in
// a congruent struct constructor: if struct(..., F: u, ...) with u ≡ t is
// interned, rewriting can re-express t as X.F for any X congruent to the
// constructor (the closure's inverse-beta rule), so the bound must also
// consider the dependent-field floor of F.
func (g *grounder) congruentStructFields(t *core.Term) []string {
	if !g.cc.Contains(t) {
		return nil
	}
	rep := g.cc.Rep(t)
	var fields []string
	for _, u := range g.cc.Terms() {
		if u.Kind != core.KStruct {
			continue
		}
		for _, f := range u.Fields {
			if g.cc.Contains(f.Term) && g.cc.Rep(f.Term) == rep {
				fields = append(fields, f.Name)
			}
		}
	}
	return fields
}
