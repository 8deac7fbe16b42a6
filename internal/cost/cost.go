// Package cost implements the cost model used by step 3 of the paper's
// Algorithm 1: after the chase and backchase produce the minimal plans,
// conventional cost-based optimization picks the cheapest.
//
// The model is a textbook left-deep nested-loop estimator over the
// binding order of a PC plan: scans cost the cardinality of the scanned
// collection, dictionary lookups cost O(1) plus the entry size, dependent
// ranges multiply by their fanout, and equality conditions reduce
// downstream multiplicity by a selectivity factor. It deliberately
// reflects only the physical distinctions the paper relies on — a lookup
// is unit-cost, a scan is linear — and is calibrated against the engine
// package's measured executions in the E8 experiment.
package cost

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cnb/internal/congruence"
	"cnb/internal/core"
	"cnb/internal/instance"
)

// Stats holds the statistics consulted by the estimator.
//
// Concurrency: a Stats value is treated as immutable once constructed
// (by NewStats/FromInstance or by filling the maps before first use) —
// every method only reads it, so one snapshot may be shared by any
// number of goroutines. To change statistics at runtime, build a new
// snapshot and swap the pointer (see service.Service.SetStats); never
// mutate a published one.
type Stats struct {
	// Card maps a schema name to its cardinality: number of elements for
	// sets, number of keys for dictionaries.
	Card map[string]float64
	// EntryFanout maps a dictionary name to the average size of its
	// set-valued entries (1 for primary indexes and class dictionaries).
	EntryFanout map[string]float64
	// FieldFanout maps "field name" to the average cardinality of
	// set-valued record fields reached by projection (e.g. DProjs -> 5).
	FieldFanout map[string]float64
	// Distinct maps "name.field" to the number of distinct values of that
	// field, used for equality selectivities.
	Distinct map[string]float64
	// DefaultSelectivity applies when no Distinct entry matches.
	DefaultSelectivity float64
	// LookupCost is the unit cost of one dictionary lookup.
	LookupCost float64
	// HashBuildNames lists transient structures (hash tables) whose
	// construction must be charged once per plan that uses them: cost
	// Card[name] * EntryFanout[name].
	HashBuildNames map[string]bool
}

// NewStats returns empty statistics with sensible defaults.
func NewStats() *Stats {
	return &Stats{
		Card:               map[string]float64{},
		EntryFanout:        map[string]float64{},
		FieldFanout:        map[string]float64{},
		Distinct:           map[string]float64{},
		DefaultSelectivity: 0.1,
		LookupCost:         1,
		HashBuildNames:     map[string]bool{},
	}
}

// Validate reports the first statistic the estimator cannot use, naming
// its field: a cardinality, fanout, distinct count or LookupCost that is
// negative, NaN or infinite, or a DefaultSelectivity outside [0, 1].
// Non-negative statistics are also what lets the exhaustive reorder
// prune.
func (s *Stats) Validate() error {
	for _, m := range []struct {
		name string
		vals map[string]float64
	}{
		{"Card", s.Card},
		{"EntryFanout", s.EntryFanout},
		{"FieldFanout", s.FieldFanout},
		{"Distinct", s.Distinct},
	} {
		keys := make([]string, 0, len(m.vals))
		for k := range m.vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := checkNonNegative(fmt.Sprintf("%s[%q]", m.name, k), m.vals[k]); err != nil {
				return err
			}
		}
	}
	if err := checkNonNegative("DefaultSelectivity", s.DefaultSelectivity); err != nil {
		return err
	}
	if s.DefaultSelectivity > 1 {
		return fmt.Errorf("cost: DefaultSelectivity = %g is above 1", s.DefaultSelectivity)
	}
	return checkNonNegative("LookupCost", s.LookupCost)
}

// checkNonNegative rejects a statistic that is negative, NaN or infinite.
func checkNonNegative(field string, v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("cost: %s = %g is not a finite non-negative number", field, v)
	}
	return nil
}

// FromInstance derives statistics from actual data: cardinalities of all
// bound sets and dictionaries, average entry fanouts, per-field distinct
// counts of relations, and average set-valued field fanouts.
func FromInstance(in *instance.Instance) *Stats {
	s := NewStats()
	fieldTotals := map[string]float64{}
	fieldCounts := map[string]float64{}
	noteField := func(f string, n float64) {
		fieldTotals[f] += n
		fieldCounts[f]++
	}
	for _, name := range in.Names() {
		v, _ := in.Lookup(name)
		switch t := v.(type) {
		case *instance.Set:
			s.Card[name] = float64(t.Len())
			distinct := map[string]map[string]bool{}
			for _, e := range t.Elems() {
				st, ok := e.(*instance.Struct)
				if !ok {
					continue
				}
				for _, f := range st.Names() {
					fv, _ := st.Field(f)
					if set, isSet := fv.(*instance.Set); isSet {
						noteField(f, float64(set.Len()))
						continue
					}
					if distinct[f] == nil {
						distinct[f] = map[string]bool{}
					}
					distinct[f][fv.Key()] = true
				}
			}
			for f, vals := range distinct {
				s.Distinct[name+"."+f] = float64(len(vals))
			}
		case *instance.Dict:
			s.Card[name] = float64(t.Len())
			total, cnt := 0.0, 0.0
			for _, e := range t.Entries() {
				if set, ok := e[1].(*instance.Set); ok {
					total += float64(set.Len())
					cnt++
					continue
				}
				// Record entries: fanout 1; also collect set fields.
				if st, ok := e[1].(*instance.Struct); ok {
					for _, f := range st.Names() {
						fv, _ := st.Field(f)
						if set, isSet := fv.(*instance.Set); isSet {
							noteField(f, float64(set.Len()))
						}
					}
				}
				total++
				cnt++
			}
			if cnt > 0 {
				s.EntryFanout[name] = total / cnt
			}
		}
	}
	for f, total := range fieldTotals {
		if fieldCounts[f] > 0 {
			s.FieldFanout[f] = total / fieldCounts[f]
		}
	}
	return s
}

func (s *Stats) card(name string) float64 {
	if c, ok := s.Card[name]; ok {
		return c
	}
	return 1000 // default assumption for unknown collections
}

func (s *Stats) entryFanout(name string) float64 {
	if f, ok := s.EntryFanout[name]; ok {
		return f
	}
	return 1
}

func (s *Stats) fieldFanout(field string) float64 {
	if f, ok := s.FieldFanout[field]; ok {
		return f
	}
	return 2
}

// Estimate computes the estimated cost and output cardinality of a plan,
// evaluating its bindings in the order given (the plan's join order).
func (s *Stats) Estimate(q *core.Query) (costTotal, outCard float64) {
	return s.estimate(q, s.condSelectivities(q))
}

// estimate is Estimate with precomputed per-condition selectivities:
// selectivities are independent of binding order, so reorder searches
// compute them once per plan instead of once per permutation.
func (s *Stats) estimate(q *core.Query, sels []float64) (costTotal, outCard float64) {
	mult := 1.0 // running multiplicity of the loop nest
	total := s.hashBuildCost(q)

	// Condition bookkeeping: a condition filters at the first binding
	// index where all its variables are bound.
	pos := map[string]int{}
	for i, b := range q.Bindings {
		pos[b.Var] = i
	}
	readyAt := make([]int, len(q.Conds))
	for ci, c := range q.Conds {
		last := -1
		for v := range c.L.Vars() {
			if p, ok := pos[v]; ok && p > last {
				last = p
			}
		}
		for v := range c.R.Vars() {
			if p, ok := pos[v]; ok && p > last {
				last = p
			}
		}
		readyAt[ci] = last
	}

	for i, b := range q.Bindings {
		scanCost, count := s.rangeCost(b.Range)
		total += mult * scanCost
		mult *= count
		for ci, c := range q.Conds {
			if readyAt[ci] == i {
				total += mult * s.condEvalCost(c)
				mult *= sels[ci]
			}
		}
		if mult < 1e-9 {
			mult = 1e-9
		}
	}
	total += mult * s.outputFactor(q)
	return total, mult
}

// hashBuildCost charges the hash-table builds of the plan, once per
// structure used.
func (s *Stats) hashBuildCost(q *core.Query) float64 {
	total := 0.0
	for n := range q.Names() {
		if s.HashBuildNames[n] {
			total += s.card(n) * s.entryFanout(n)
		}
	}
	return total
}

// outputFactor is the cost of producing one output row: one unit plus
// its lookups.
func (s *Stats) outputFactor(q *core.Query) float64 {
	return 1 + s.lookupCount(q.Out)*s.LookupCost
}

// rangeCost returns (cost of producing the range once, expected number of
// elements iterated).
func (s *Stats) rangeCost(r *core.Term) (costOnce, count float64) {
	switch r.Kind {
	case core.KName:
		c := s.card(r.Name)
		return c, c
	case core.KDom:
		if r.Base.Kind == core.KName {
			c := s.card(r.Base.Name)
			return c, c
		}
		return 100, 100
	case core.KLookup:
		// Iterating a (set-valued) dictionary entry: one lookup plus the
		// bucket scan.
		name := r.Base.Root()
		fan := 1.0
		if name.Kind == core.KName {
			fan = s.entryFanout(name.Name)
		}
		inner := s.lookupCount(r.Key) * s.LookupCost
		return s.LookupCost + inner + fan, fan
	case core.KProj:
		// Dependent range over a set-valued field (e.g. d.DProjs).
		fan := s.fieldFanout(r.Name)
		inner := s.lookupCount(r.Base) * s.LookupCost
		return inner + fan, fan
	default:
		return 1, 1
	}
}

// condEvalCost charges the dictionary lookups embedded in a condition.
func (s *Stats) condEvalCost(c core.Cond) float64 {
	return 0.1 + (s.lookupCount(c.L)+s.lookupCount(c.R))*s.LookupCost
}

// lookupCount counts lookup operations in a term.
func (s *Stats) lookupCount(t *core.Term) float64 {
	if t == nil {
		return 0
	}
	switch t.Kind {
	case core.KLookup:
		return 1 + s.lookupCount(t.Base) + s.lookupCount(t.Key)
	case core.KProj, core.KDom:
		return s.lookupCount(t.Base)
	case core.KStruct:
		n := 0.0
		for _, f := range t.Fields {
			n += s.lookupCount(f.Term)
		}
		return n
	}
	return 0
}

// condSelectivities computes the selectivity of every condition of the
// plan, in condition order. Selectivities depend only on the condition
// and the binding ranges — never on the binding order — so one pass
// serves Estimate and every reorder trial. Row equalities the plan's own
// congruence closure proves non-filtering get selectivity 1 (see
// unitRowEquality); everything else falls back to the distinct-count
// heuristics of selectivity.
func (s *Stats) condSelectivities(q *core.Query) []float64 {
	sels := make([]float64, len(q.Conds))
	// The full plan closure (every condition merged) over-approximates
	// every per-condition exclusion closure: exclusion only removes
	// congruences, shrinking the candidate classes unitRowEquality
	// consults. So the full closure, built lazily once and shared across
	// the plan's conditions, is a sound pre-filter — a condition it
	// rejects can never pass under its own exclusion closure — and the
	// per-condition closure is only built for conditions that pass it.
	var full *congruence.Closure
	fullCC := func() *congruence.Closure {
		if full == nil {
			full = planClosure(q, -1)
		}
		return full
	}
	// Exclusion closures are memoized per distinct condition (orientation-
	// insensitive): duplicate copies of one equality exclude the same set
	// of conditions and hence share one closure.
	var excls map[string]*congruence.Closure
	for i, c := range q.Conds {
		if s.unitRowEquality(q, c, fullCC) {
			key := condKey(c)
			exclCC := func() *congruence.Closure {
				if excls == nil {
					excls = map[string]*congruence.Closure{}
				}
				if excls[key] == nil {
					excls[key] = planClosure(q, i)
				}
				return excls[key]
			}
			if s.unitRowEquality(q, c, exclCC) {
				sels[i] = 1
				continue
			}
		}
		sels[i] = s.selectivity(q, c)
	}
	return sels
}

// condKey is an orientation-insensitive cache key for a condition.
func condKey(c core.Cond) string {
	l, r := c.L.HashKey(), c.R.HashKey()
	if r < l {
		l, r = r, l
	}
	return l + "=" + r
}

// planClosure builds the congruence closure over the plan's terms and
// conditions. With skip >= 0 it leaves out every condition syntactically
// equal, in either orientation, to q.Conds[skip] — not just the one
// index: excluding only the index would let a duplicate or flipped copy
// of the priced equality smuggle it back into its own proof. skip -1
// merges all conditions.
func planClosure(q *core.Query, skip int) *congruence.Closure {
	cc := congruence.New()
	for _, t := range q.AllTerms() {
		cc.Add(t)
	}
	for _, cd := range q.Conds {
		if skip >= 0 && sameCond(cd, q.Conds[skip]) {
			continue
		}
		cc.Merge(cd.L, cd.R)
	}
	return cc
}

// sameCond reports orientation-insensitive syntactic equality of two
// conditions.
func sameCond(a, b core.Cond) bool {
	return (a.L.Equal(b.L) && a.R.Equal(b.R)) || (a.L.Equal(b.R) && a.R.Equal(b.L))
}

// unitRowEquality reports whether the var=var condition x = y is a
// selectivity-1 index-membership guard: y is bound to a range that the
// plan's congruence closure proves congruent to a lookup M{κ} (or M[κ])
// whose key κ is congruent to a term over x alone, and M's buckets hold
// at most one entry (EntryFanout <= 1, the estimator's default for
// unknown dictionaries). Then the bucket y iterates is keyed by x's own
// attribute and, being a unit bucket of an index the chase proved to
// contain x's row, consists of exactly the row equated with x — the
// equality is chase residue that filters nothing, so DefaultSelectivity
// would understate the multiplicity tenfold and misrank near-ties (the
// PR 3 calibration finding, e.g. d0 = t_1 with t_1 in DK0{d0.K}).
//
// The decisive closure must merge every plan condition EXCEPT copies of
// the one being priced: the equality must not participate in its own
// proof. Merging x = y makes every term over x congruent to its y
// counterpart, so a bucket actually keyed by an unrelated variable would
// pass the keyed-by-x test and a genuinely filtering equality would be
// priced at selectivity 1. condSelectivities supplies the closure
// (planClosure with the priced condition skipped), first pre-filtering
// with the shared full closure, whose acceptances are a superset.
func (s *Stats) unitRowEquality(q *core.Query, c core.Cond, closure func() *congruence.Closure) bool {
	if c.L.Kind != core.KVar || c.R.Kind != core.KVar || c.L.Name == c.R.Name {
		return false
	}
	rangeOf := func(v string) *core.Term {
		for _, b := range q.Bindings {
			if b.Var == v {
				return b.Range
			}
		}
		return nil
	}
	keyedByX := func(key *core.Term, x string) bool {
		cands := []*core.Term{key}
		if cc := closure(); cc.Contains(key) {
			cands = cc.ClassMembers(key)
		}
		for _, k := range cands {
			vars := k.Vars()
			if len(vars) == 1 && vars[x] {
				return true
			}
		}
		return false
	}
	check := func(x, y string) bool {
		rng := rangeOf(y)
		if rng == nil {
			return false
		}
		cands := []*core.Term{rng}
		if cc := closure(); cc.Contains(rng) {
			cands = cc.ClassMembers(rng)
		}
		for _, m := range cands {
			if m.Kind != core.KLookup {
				continue
			}
			root := m.Base.Root()
			if root.Kind != core.KName || s.entryFanout(root.Name) > 1 {
				continue
			}
			if keyedByX(m.Key, x) {
				return true
			}
		}
		return false
	}
	return check(c.L.Name, c.R.Name) || check(c.R.Name, c.L.Name)
}

// selectivity estimates the filtering power of an equality condition.
func (s *Stats) selectivity(q *core.Query, c core.Cond) float64 {
	sel := func(t *core.Term) (float64, bool) {
		// name.field distinct count when t is r.F with r bound to a scan
		// of a named relation.
		if t.Kind == core.KProj && t.Base.Kind == core.KVar {
			for _, b := range q.Bindings {
				if b.Var == t.Base.Name && b.Range.Kind == core.KName {
					if d, ok := s.Distinct[b.Range.Name+"."+t.Name]; ok && d > 0 {
						return 1 / d, true
					}
				}
			}
		}
		return 0, false
	}
	if c.L.Kind == core.KConst || c.R.Kind == core.KConst {
		other := c.L
		if c.L.Kind == core.KConst {
			other = c.R
		}
		if f, ok := sel(other); ok {
			return f
		}
		return s.DefaultSelectivity
	}
	// Join condition: 1/max(distinct sides) when known.
	fl, okL := sel(c.L)
	fr, okR := sel(c.R)
	switch {
	case okL && okR:
		return math.Min(fl, fr)
	case okL:
		return fl
	case okR:
		return fr
	}
	return s.DefaultSelectivity
}

// Reorder returns a copy of the plan with its bindings reordered to
// minimize estimated cost — the paper's "conventional optimization"
// join-reordering step applied to plans. Plans with at most
// exhaustiveReorderLimit bindings get the cheapest of all valid
// permutations, found by branch-and-bound (backchase output plans are
// small); larger plans, and plans with no valid order, fall back to a
// greedy heuristic.
func (s *Stats) Reorder(q *core.Query) *core.Query { return s.reorder(q, nil) }

// reorder is Reorder over the plan's condition selectivities, computed
// here when sels is nil. A reorder permutes only bindings, so the
// selectivities serve the reordered plan too.
func (s *Stats) reorder(q *core.Query, sels []float64) *core.Query {
	n := len(q.Bindings)
	if n <= 1 {
		return q.Clone()
	}
	if sels == nil {
		sels = s.condSelectivities(q)
	}
	if n <= exhaustiveReorderLimit {
		if best := s.reorderExhaustive(q, sels); best != nil {
			return best
		}
	}
	return s.reorderGreedySels(q, sels)
}

const exhaustiveReorderLimit = 6

// reorderExhaustive finds the cheapest scope-valid binding permutation
// by depth-first branch-and-bound over the orders, in the order an
// exhaustive enumeration would visit them. Returns nil if no valid order
// exists (cyclic scoping, or a range over a variable no binding
// introduces), and nil when no order costs less than +Inf. Binding
// variables must be distinct (core.Query.Validate).
//
// Everything estimate derives from a binding or a condition alone is
// computed once per plan; the search carries each prefix's running
// (total, mult) and extends it with the same float operations, in the
// same order, that estimate applies to a full order, so a leaf's cost is
// bit-identical to estimate of that order. When every increment is
// non-negative, a prefix's total only grows toward its leaves, so the
// search abandons a prefix once its total reaches the best cost so far;
// leaves compare strictly, so ties keep the first order visited, as
// exhaustive enumeration does.
func (s *Stats) reorderExhaustive(q *core.Query, sels []float64) *core.Query {
	o, ok := s.newOrderSearch(q, sels)
	if !ok {
		return nil
	}
	o.search(0, 0, s.hashBuildCost(q), 1)
	if o.best == nil {
		return nil
	}
	cand := q.Clone()
	cand.Bindings = make([]core.Binding, len(o.best))
	for i, bi := range o.best {
		cand.Bindings[i] = q.Bindings[bi]
	}
	return cand
}

// orderSearch is the per-plan state of reorderExhaustive. Bindings are
// numbered by their position in the plan; a uint bitmask holds a set of
// them.
type orderSearch struct {
	need        []uint    // per binding: the bindings its range mentions
	scan, count []float64 // per binding: rangeCost
	conds       []orderCond
	out         float64 // outputFactor
	prune       bool    // every increment is non-negative

	order    []int // the current prefix
	best     []int // the cheapest full order so far; nil while none
	bestCost float64
}

// orderCond is a condition over at least one binding variable. A
// condition over none is never charged by estimate and is left out.
type orderCond struct {
	vars      uint // the bindings whose variables it mentions
	eval, sel float64
}

// newOrderSearch precomputes the per-binding and per-condition terms of
// estimate. It reports false when some range mentions a variable no
// binding introduces: no order can place that binding.
func (s *Stats) newOrderSearch(q *core.Query, sels []float64) (*orderSearch, bool) {
	n := len(q.Bindings)
	pos := make(map[string]int, n)
	for i, b := range q.Bindings {
		pos[b.Var] = i
	}
	o := &orderSearch{
		need:     make([]uint, n),
		scan:     make([]float64, n),
		count:    make([]float64, n),
		out:      s.outputFactor(q),
		order:    make([]int, n),
		bestCost: math.Inf(1),
	}
	nonNeg := o.out >= 0
	for i, b := range q.Bindings {
		for v := range b.Range.Vars() {
			p, ok := pos[v]
			if !ok {
				return nil, false
			}
			o.need[i] |= 1 << p
		}
		o.scan[i], o.count[i] = s.rangeCost(b.Range)
		nonNeg = nonNeg && o.scan[i] >= 0 && o.count[i] >= 0
	}
	for ci, c := range q.Conds {
		var vars uint
		for _, t := range [2]*core.Term{c.L, c.R} {
			for v := range t.Vars() {
				if p, ok := pos[v]; ok {
					vars |= 1 << p
				}
			}
		}
		if vars == 0 {
			continue
		}
		oc := orderCond{vars: vars, eval: s.condEvalCost(c), sel: sels[ci]}
		nonNeg = nonNeg && oc.eval >= 0 && oc.sel >= 0
		o.conds = append(o.conds, oc)
	}
	o.prune = nonNeg
	return o, true
}

// search extends the prefix order[:depth], whose bindings are bound and
// whose running cost and multiplicity are total and mult, by every
// placeable binding in plan order.
func (o *orderSearch) search(depth int, bound uint, total, mult float64) {
	if depth == len(o.order) {
		total += mult * o.out
		if total < o.bestCost {
			o.bestCost = total
			o.best = append(o.best[:0], o.order...)
		}
		return
	}
	if o.prune && total >= o.bestCost {
		return
	}
	for i := range o.order {
		bit := uint(1) << i
		if bound&bit != 0 || o.need[i]&^bound != 0 {
			continue
		}
		t := total + mult*o.scan[i]
		m := mult * o.count[i]
		nb := bound | bit
		// A condition filters at the binding that completes its
		// variables, in condition order.
		for _, c := range o.conds {
			if c.vars&bit != 0 && c.vars&^nb == 0 {
				t += m * c.eval
				m *= c.sel
			}
		}
		if m < 1e-9 {
			m = 1e-9
		}
		o.order[depth] = i
		o.search(depth+1, nb, t, m)
	}
}

// reorderGreedySels picks, at each step, the valid next binding with
// the smallest filtered iteration count under the plan's selectivities.
func (s *Stats) reorderGreedySels(q *core.Query, sels []float64) *core.Query {
	n := len(q.Bindings)
	used := make([]bool, n)
	bound := map[string]bool{}
	var order []core.Binding
	for len(order) < n {
		best := -1
		bestCost := math.Inf(1)
		for i, b := range q.Bindings {
			if used[i] {
				continue
			}
			ready := true
			for v := range b.Range.Vars() {
				if !bound[v] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			// Score: iterate count discounted by conditions that become
			// checkable once this binding is added.
			_, count := s.rangeCost(b.Range)
			score := count
			trialBound := map[string]bool{b.Var: true}
			for v := range bound {
				trialBound[v] = true
			}
			for ci, c := range q.Conds {
				if condReady(c, trialBound) && !condReady(c, bound) {
					score *= sels[ci]
				}
			}
			if score < bestCost {
				bestCost = score
				best = i
			}
		}
		if best == -1 {
			return q.Clone() // scoping problem; bail out unchanged
		}
		used[best] = true
		bound[q.Bindings[best].Var] = true
		order = append(order, q.Bindings[best])
	}
	out := q.Clone()
	out.Bindings = order
	return out
}

func condReady(c core.Cond, bound map[string]bool) bool {
	for v := range c.L.Vars() {
		if !bound[v] {
			return false
		}
	}
	for v := range c.R.Vars() {
		if !bound[v] {
			return false
		}
	}
	return true
}

// EstimateQuick estimates the plan's cost under the greedy binding order
// only, skipping the exhaustive small-plan permutation search of Reorder.
// It suits scoring a whole pool of backchase states: the greedy order is
// an achievable execution order, so the value is a true (achievable)
// plan cost — just not always the cheapest order the final
// conventional-optimization phase will find.
func (s *Stats) EstimateQuick(q *core.Query) float64 {
	sels := s.condSelectivities(q)
	if len(q.Bindings) <= 1 {
		c, _ := s.estimate(q, sels)
		return c
	}
	c, _ := s.estimate(s.reorderGreedySels(q, sels), sels)
	return c
}

// Fingerprint renders the statistics deterministically (sorted keys), so
// they can participate in cache keys: two Stats with equal fingerprints
// produce identical estimates.
func (s *Stats) Fingerprint() string {
	var b strings.Builder
	writeMap := func(label string, m map[string]float64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(label)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%g;", k, m[k])
		}
		b.WriteByte('\n')
	}
	writeMap("card:", s.Card)
	writeMap("entry:", s.EntryFanout)
	writeMap("field:", s.FieldFanout)
	writeMap("distinct:", s.Distinct)
	hb := make([]string, 0, len(s.HashBuildNames))
	for k := range s.HashBuildNames {
		hb = append(hb, k)
	}
	sort.Strings(hb)
	fmt.Fprintf(&b, "hash:%s\nsel=%g lookup=%g\n", strings.Join(hb, ";"), s.DefaultSelectivity, s.LookupCost)
	return b.String()
}

// RankedPlan is one entry of a cost-ranked candidate pool: a plan with
// its bindings already reordered by Reorder, together with its
// estimated cost and output cardinality, and the index in the ranked
// pool of the plan it reorders.
type RankedPlan struct {
	Query *core.Query
	Cost  float64
	Card  float64
	Pool  int
}

// Rank reorders and costs every plan, returning them sorted by cost —
// Reorder then Estimate per plan, over one computation of the plan's
// condition selectivities.
func (s *Stats) Rank(plans []*core.Query) []RankedPlan {
	out := make([]RankedPlan, 0, len(plans))
	for i, p := range plans {
		sels := s.condSelectivities(p)
		r := s.reorder(p, sels)
		c, card := s.estimate(r, sels)
		out = append(out, RankedPlan{Query: r, Cost: c, Card: card, Pool: i})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}
