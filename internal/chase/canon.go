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
// searches. All fields are atomic so one Metrics may be shared by the
// concurrent equivalence checks of the parallel backchase; attach it via
// Options.Metrics (chase runs) or Canon.Metrics (direct hom searches).
type Metrics struct {
	// HomTests counts candidate membership tests during homomorphism
	// search: each comparison of a target binding against a transported
	// source range (the inner loop of VisitHoms). This is the backtracking
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
// A Canon is not safe for concurrent use: homomorphism search interns the
// transported source terms into CC, mutating it (see the congruence
// package comment). Concurrent consumers — e.g. the workers of the
// parallel backchase — must each operate on their own Clone.
type Canon struct {
	Q  *core.Query
	CC *congruence.Closure
	// Metrics, when non-nil, accumulates homomorphism-search counters.
	// Shared (not deep-copied) by Clone; safe because all fields are
	// atomic.
	Metrics *Metrics
	// linearScan disables the rep-keyed target index: every homomorphism
	// search level scans all target bindings, re-resolving representatives
	// per candidate (the textbook behavior). Set only on the canons of a
	// NewNaiveIndex so that naive-vs-incremental measurements compare the
	// full backtracking cost against the seeded search; results are
	// identical either way.
	linearScan bool
	// tix caches target bindings grouped by the congruence representative
	// of their range; rebuilt lazily whenever the closure version or the
	// binding list moves on. Never shared by Clone (clones diverge).
	tix *targetIndex
}

// targetIndex groups target binding positions by the representative of
// their range, valid for one (closure version, binding count) snapshot.
type targetIndex struct {
	version uint64
	n       int
	byRep   map[int][]int
}

// Clone returns an independent copy of the canonical database. The query
// is shared (Canon never mutates it); the congruence closure is deep
// copied. Concurrent Clones of one Canon are safe provided no goroutine
// mutates it at the same time.
func (cn *Canon) Clone() *Canon {
	return &Canon{Q: cn.Q, CC: cn.CC.Clone(), Metrics: cn.Metrics, linearScan: cn.linearScan}
}

// targetCandidates returns the positions of the target bindings whose
// range is congruent to want, in ascending binding order, as of the
// current closure version. The index is rebuilt lazily; the rebuild cost
// is charged to Metrics.HomTests like any other membership work. Callers
// must stop trusting the slice once the closure version changes (a merge
// can add candidates) — visitHoms falls back to the linear scan then.
func (cn *Canon) targetCandidates(want *core.Term) ([]int, int64) {
	rw := cn.CC.Rep(want) // may trigger derived unions; bump handled below
	tested := int64(0)
	if cn.tix == nil || cn.tix.version != cn.CC.Version() || cn.tix.n != len(cn.Q.Bindings) {
		byRep := make(map[int][]int, len(cn.Q.Bindings))
		for i, tb := range cn.Q.Bindings {
			r := cn.CC.Rep(tb.Range) // interned already: no union possible
			byRep[r] = append(byRep[r], i)
		}
		tested += int64(len(cn.Q.Bindings))
		cn.tix = &targetIndex{version: cn.CC.Version(), n: len(cn.Q.Bindings), byRep: byRep}
	}
	return cn.tix.byRep[rw], tested
}

// NewCanon builds the canonical database of a query.
func NewCanon(q *core.Query) *Canon {
	cc := congruence.New()
	for _, t := range q.AllTerms() {
		cc.Add(t)
	}
	for _, c := range q.Conds {
		cc.Merge(c.L, c.R)
	}
	return &Canon{Q: q, CC: cc}
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

// subst converts the homomorphism into a term substitution.
func (h Hom) subst() map[string]*core.Term { return h }

// Apply applies the homomorphism to a term.
func (h Hom) Apply(t *core.Term) *core.Term { return t.Subst(h.subst()) }

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

// Holds reports whether the condition, transported along h, is implied by
// the canonical database.
func (cn *Canon) Holds(h Hom, c core.Cond) bool {
	return cn.CC.Same(h.Apply(c.L), h.Apply(c.R))
}

// FindHoms enumerates homomorphisms of the given source bindings and
// conditions into the canonical database, starting from the partial
// assignment init (which may be nil). Each source binding variable is
// mapped to some target binding variable whose range is congruent to the
// (transported) source range. At most limit homomorphisms are returned
// (limit <= 0 means no limit).
func (cn *Canon) FindHoms(srcBindings []core.Binding, srcConds []core.Cond, init Hom, limit int) []Hom {
	var out []Hom
	cn.VisitHoms(srcBindings, srcConds, init, func(h Hom) bool {
		out = append(out, h.Clone())
		return limit > 0 && len(out) >= limit
	})
	return out
}

// VisitHoms streams homomorphisms to the visitor, stopping when the
// visitor returns true. It avoids materializing the full (possibly
// exponential) homomorphism set when the caller needs only the first
// match — the chase's applicability test is the hot path.
func (cn *Canon) VisitHoms(srcBindings []core.Binding, srcConds []core.Cond, init Hom, visit func(Hom) bool) {
	cn.visitHoms(srcBindings, srcConds, init, -1, visit)
}

// visitHoms is VisitHoms with an optional semi-naive delta restriction:
// with deltaStart >= 0, only homomorphisms that assign at least one source
// variable to a target binding of index >= deltaStart are visited, in the
// same lexicographic backtracking order as the full enumeration (the
// visited sequence is a subsequence of the full one). The incremental
// chase uses this for dependencies whose only relevant change since their
// last exhausted search is a batch of appended bindings: every older
// homomorphism has already been searched and found conclusion-satisfied,
// a state that is monotone under chase extension, so skipping it is
// sound. deltaStart must only be combined with a nil init (the premise
// search); pre-assigned variables do not pick a target index.
func (cn *Canon) visitHoms(srcBindings []core.Binding, srcConds []core.Cond, init Hom, deltaStart int, visit func(Hom) bool) {
	h := Hom{}
	for k, v := range init {
		h[k] = v
	}
	tested := int64(0)
	var rec func(i int, usedDelta bool) bool // returns true to stop early
	rec = func(i int, usedDelta bool) bool {
		if i == len(srcBindings) {
			if deltaStart >= 0 && !usedDelta {
				return false
			}
			for _, c := range srcConds {
				if !cn.Holds(h, c) {
					return false
				}
			}
			return visit(h)
		}
		sb := srcBindings[i]
		if _, pre := h[sb.Var]; pre {
			// Variable pre-assigned by init (or by an earlier level when a
			// premise repeats a variable): verify membership — some target
			// binding must have a congruent range and a congruent variable.
			// A witness at a delta index counts as delta use: if the first
			// witness is old, the homomorphism existed at the last
			// exhausted search and skipping it stays sound; if only a delta
			// binding witnesses the membership, the homomorphism is new.
			want := h.Apply(sb.Range)
			witness := -1
			got := h[sb.Var]
			for ti, tb := range cn.Q.Bindings {
				tested++
				if cn.CC.Same(tb.Range, want) && cn.CC.Same(core.V(tb.Var), got) {
					witness = ti
					break
				}
			}
			if witness < 0 {
				return false
			}
			return rec(i+1, usedDelta || (deltaStart >= 0 && witness >= deltaStart))
		}
		// On the last level of a delta-restricted search a homomorphism
		// that has not yet used a delta binding can only complete through
		// one, so older targets are skipped wholesale.
		first := 0
		if deltaStart >= 0 && !usedDelta && i == len(srcBindings)-1 {
			first = deltaStart
		}
		want := h.Apply(sb.Range)
		// tryTarget assigns the candidate, applies early condition pruning
		// (conditions all of whose variables are assigned), and descends.
		tryTarget := func(ti int) bool {
			tb := cn.Q.Bindings[ti]
			h[sb.Var] = core.V(tb.Var)
			if cn.condsOK(h, srcConds) {
				if rec(i+1, usedDelta || (deltaStart >= 0 && ti >= deltaStart)) {
					return true
				}
			}
			delete(h, sb.Var)
			return false
		}
		// Seeded scan: only the targets whose range representative matches
		// want's, looked up in the rep-keyed index, instead of backtracking
		// over the whole canonical database. Descending into a candidate
		// can merge classes (condition checks and deeper levels intern
		// transported terms), which may make further targets congruent to
		// want — exactly what the naive re-resolving scan would observe —
		// so a version bump mid-level falls back to the linear scan for
		// the remaining positions.
		linearFrom := 0
		if !cn.linearScan {
			cands, rebuildCost := cn.targetCandidates(want)
			tested += rebuildCost
			ver := cn.CC.Version()
			linearFrom = len(cn.Q.Bindings)
			for _, ti := range cands {
				if ti < first {
					continue
				}
				tested++
				if tryTarget(ti) {
					return true
				}
				if cn.CC.Version() != ver {
					linearFrom = ti + 1
					break
				}
			}
		}
		for ti := linearFrom; ti < len(cn.Q.Bindings); ti++ {
			if ti < first {
				continue
			}
			tested++
			if cn.CC.Rep(cn.Q.Bindings[ti].Range) != cn.CC.Rep(want) {
				continue
			}
			if tryTarget(ti) {
				return true
			}
		}
		return false
	}
	rec(0, false)
	if cn.Metrics != nil && tested > 0 {
		cn.Metrics.HomTests.Add(tested)
	}
}

// condsOK checks the conditions whose variables are fully assigned by h.
func (cn *Canon) condsOK(h Hom, conds []core.Cond) bool {
	for _, c := range conds {
		if !assigned(h, c.L) || !assigned(h, c.R) {
			continue
		}
		if !cn.Holds(h, c) {
			return false
		}
	}
	return true
}

func assigned(h Hom, t *core.Term) bool {
	for v := range t.Vars() {
		if _, ok := h[v]; !ok {
			return false
		}
	}
	return true
}

// ExtendsToConclusion reports whether the homomorphism of a dependency's
// premise extends to its conclusion inside the canonical database: there
// is an assignment of the conclusion variables to target bindings making
// all conclusion conditions hold.
func (cn *Canon) ExtendsToConclusion(d *core.Dependency, h Hom) bool {
	if d.IsEGD() {
		for _, c := range d.ConclusionConds {
			if !cn.Holds(h, c) {
				return false
			}
		}
		return true
	}
	ext := cn.FindHoms(d.Conclusion, d.ConclusionConds, h, 1)
	return len(ext) > 0
}

// HomsOfQueryInto enumerates containment mappings from query src into this
// canonical database: homomorphisms of src's bindings and conditions whose
// transported output is congruent to out. Used for containment checks.
// The search streams homomorphisms and stops at the limit-th match
// (limit <= 0 means no limit); only matches are copied.
func (cn *Canon) HomsOfQueryInto(src *core.Query, out *core.Term, limit int) []Hom {
	var ok []Hom
	cn.visitQueryHoms(src, out, nil, func(h Hom) bool {
		ok = append(ok, h.Clone())
		return limit > 0 && len(ok) >= limit
	})
	return ok
}

// MapsQueryInto reports whether some containment mapping from src into
// this canonical database extends init (which may be nil): the first
// match ends the search, and nothing is copied.
func (cn *Canon) MapsQueryInto(src *core.Query, out *core.Term, init Hom) bool {
	found := false
	cn.visitQueryHoms(src, out, init, func(Hom) bool {
		found = true
		return true
	})
	return found
}

// visitQueryHoms streams the homomorphisms of src extending init whose
// transported output is congruent to out, stopping when visit returns
// true.
func (cn *Canon) visitQueryHoms(src *core.Query, out *core.Term, init Hom, visit func(Hom) bool) {
	cn.VisitHoms(src.Bindings, src.Conds, init, func(h Hom) bool {
		return cn.CC.Same(h.Apply(src.Out), out) && visit(h)
	})
}
