// Package chase implements the chase of path-conjunctive queries with
// embedded path-conjunctive dependencies (EPCDs), the first phase of the
// chase & backchase optimization method of Deutsch, Popa, Tannen
// (VLDB 1999).
//
// The chase views a query through its canonical database: the terms of the
// query grouped into congruence classes by the where-clause equalities,
// plus one membership fact per from-clause binding. A dependency applies
// when its premise maps homomorphically into the canonical database but
// the conclusion does not extend the map; applying it adds the conclusion
// (bindings and conditions) under the homomorphism. The fixpoint is the
// universal plan.
package chase

import (
	"sort"
	"sync/atomic"

	"cnb/internal/congruence"
	"cnb/internal/core"
)

// Metrics accumulates work counters across chase runs and homomorphism
// searches. All fields are atomic so one Metrics may be shared by
// concurrent chases (a service's flights share the one in its
// Options.Chase); attach it via
// Options.Metrics (chase runs) or Canon.Metrics (direct hom searches).
type Metrics struct {
	// HomTests counts candidate membership tests during homomorphism
	// search: each comparison of a target binding against a transported
	// source range (the inner loop of every search). This is the backtracking
	// work the delta discipline exists to avoid.
	HomTests atomic.Int64
	// DepSearches counts premise searches: one per dependency actually
	// searched per fixpoint iteration (skipped clean dependencies are the
	// difference between the naive and incremental engines).
	DepSearches atomic.Int64
	// ChaseSteps counts applied chase steps. Identical for the naive and
	// incremental engines on the same input — the differential suite
	// asserts it.
	ChaseSteps atomic.Int64
	// Runs counts chase fixpoints started.
	Runs atomic.Int64
}

// Canon is the canonical database of a query: its congruence closure plus
// the membership facts contributed by the from clause.
//
// A Canon is not safe for concurrent use: even a read-only search
// path-compresses the closure, rebuilds the target index and reuses the
// canon's search objects, and a chase's premise searches intern
// transported terms.
type Canon struct {
	Q  *core.Query
	CC *congruence.Closure
	// Metrics, when non-nil, accumulates homomorphism-search counters.
	// Safe to share because all fields are atomic.
	Metrics *Metrics
	// linearScan disables the class-keyed target index: every
	// homomorphism search level scans all target bindings, re-resolving
	// classes per candidate (the textbook behavior). Set only on the
	// canons of a NewNaiveIndex so that naive-vs-incremental measurements
	// compare the full backtracking cost against the seeded search;
	// results are identical either way.
	linearScan bool
	// rangeNode and varNode hold, per binding of Q, the closure node ids
	// of its range and of its variable. Node ids never change; their
	// classes do.
	rangeNode, varNode []int
	// tix caches the class of every target binding's range; rebuilt
	// lazily whenever the closure version or the binding list moves on.
	tix *targetIndex
	// premise and query are the search objects premise searches and
	// query searches reuse (see spareSearch).
	premise, query *search
}

// targetIndex holds the class of every target binding's range, valid
// for one (closure version, binding count) snapshot.
type targetIndex struct {
	version uint64
	n       int
	reps    []int // binding index -> class of its range
}

// clone returns a private mutable copy of the canonical database; the
// query is shared (Canon never mutates it). Read-only searches that meet
// an ambiguous lookup rerun on one.
func (cn *Canon) clone() *Canon {
	return &Canon{
		Q: cn.Q, CC: cn.CC.Clone(), Metrics: cn.Metrics, linearScan: cn.linearScan,
		rangeNode: cn.rangeNode, varNode: cn.varNode,
	}
}

// targetReps returns the class of every target binding's range as of
// the current closure version: the target bindings a level may match are
// those whose class equals the transported range's, in ascending binding
// order. The index is rebuilt lazily, in place; the rebuild cost is
// returned so the search charges it to Metrics.HomTests like any other
// membership work. Callers must stop trusting the slice once the closure
// version changes (a merge can add candidates) — the search falls back
// to the linear scan then.
func (cn *Canon) targetReps() ([]int, int64) {
	if cn.tix != nil && cn.tix.version == cn.CC.Version() && cn.tix.n == len(cn.Q.Bindings) {
		return cn.tix.reps, 0
	}
	if cn.tix == nil {
		cn.tix = &targetIndex{}
	}
	reps := cn.tix.reps[:0]
	for _, id := range cn.rangeNode {
		reps = append(reps, cn.CC.Find(id))
	}
	*cn.tix = targetIndex{version: cn.CC.Version(), n: len(cn.Q.Bindings), reps: reps}
	return reps, int64(len(cn.Q.Bindings))
}

// NewCanon builds the canonical database of a query. Terms are interned
// in the order of q.AllTerms: each binding's range then its variable,
// the conditions' sides, the output.
func NewCanon(q *core.Query) *Canon { return newCanon(q, 25) }

// newCanon is NewCanon with room for about grow percent more terms
// than q's own, which a chase adds. The closure is sized from the
// bindings' variables and ranges and the output: the conditions' sides
// mostly restate subterms of those, and repeat across conditions, so
// counting them would reserve about twice the distinct terms.
func newCanon(q *core.Query, grow int) *Canon {
	n := len(q.Bindings) + q.Out.Size()
	for _, b := range q.Bindings {
		n += b.Range.Size()
	}
	n += n * grow / 100
	cn := &Canon{Q: q, CC: congruence.NewSized(n)}
	cn.addBindings(q.Bindings)
	for _, c := range q.Conds {
		cn.CC.Add(c.L)
		cn.CC.Add(c.R)
	}
	cn.CC.Add(q.Out)
	for _, c := range q.Conds {
		cn.CC.Merge(c.L, c.R)
	}
	return cn
}

// addBindings interns the ranges and variables of appended bindings and
// records their node ids.
func (cn *Canon) addBindings(bs []core.Binding) {
	for _, b := range bs {
		cn.rangeNode = append(cn.rangeNode, cn.CC.Add(b.Range))
		cn.varNode = append(cn.varNode, cn.CC.Add(core.V(b.Var)))
	}
}

// Hom is a homomorphism: a mapping from source variables to target terms
// (in practice target binding variables) such that memberships and
// conditions of the source hold in the target's canonical database.
type Hom map[string]*core.Term

// Clone copies the homomorphism.
func (h Hom) Clone() Hom {
	n := make(Hom, len(h))
	for k, v := range h {
		n[k] = v
	}
	return n
}

// Apply applies the homomorphism to a term.
func (h Hom) Apply(t *core.Term) *core.Term { return t.Subst(h) }

// Key returns a canonical string for deduplicating homomorphisms.
func (h Hom) Key() string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "->" + h[k].HashKey() + ";"
	}
	return s
}

// extends reports whether the premise assignment of s extends to the
// conclusion of dp, by a modeLookup search over the conclusion atoms.
func (cn *Canon) extends(dp *depProg, s *search) bool {
	c := s.conclusion(dp)
	if len(dp.concl) == 0 {
		for i := range dp.cconds {
			if !c.holds(&dp.cconds[i]) {
				return false
			}
		}
		return true
	}
	c.leafDo = leafConclusion
	checkAt := dp.conclAt
	if s.init != nil {
		checkAt = nil // init slots beyond the premise's: schedule afresh
	}
	c.run(checkAt)
	return c.hit
}

// MapsCompiledInto reports whether some containment mapping from the
// compiled query into this canonical database, with its output congruent
// to out, extends init (which may be nil). The test is read-only: terms
// the closure lacks get virtual ids, so it changes neither the closure's
// Len nor its Version. Only a projection whose class holds constructors
// with that field in different classes (congruence.Ambiguous) has no
// read-only answer; the test then reruns on a private clone, interning.
// init's variables outside the query's bindings must have been compiled
// in as extra slots.
func (cn *Canon) MapsCompiledInto(src *CompiledQuery, out *core.Term, init Hom) bool {
	hit, void := cn.queryHoms(src, out, init, modePure, nil)
	if void {
		hit, _ = cn.clone().queryHoms(src, out, init, modeLookup, nil)
	}
	return hit
}

// queryHoms searches the homomorphisms of src extending init whose
// transported output is congruent to out. With fn nil it stops at the
// first and reports hit; otherwise it hands each to fn until fn returns
// true. void reports a modePure search that met an ambiguous lookup: its
// outcome, and what fn saw, must be discarded.
func (cn *Canon) queryHoms(src *CompiledQuery, out *core.Term, init Hom, m mode, fn func(*search) bool) (hit, void bool) {
	s := cn.spareSearch(&cn.query, src.prog, src.atoms, src.conds, m)
	s.assignInit(init)
	s.outID = s.termID(out)
	if s.void {
		return false, true
	}
	s.leafDo, s.out, s.fn = leafQuery, src.out, fn
	checkAt := src.checkAt
	if init != nil {
		checkAt = nil
	}
	s.run(checkAt)
	return s.hit, s.void
}
