// Delta-driven incremental chase engine.
//
// The naive chase fixpoint rescans every dependency at every step and
// restarts premise-homomorphism search from scratch over the whole
// canonical database. This file replaces that inner loop with the
// semi-naive delta discipline of Datalog engines, adapted to the chase:
//
//   - A DepIndex maps premise feature keys (schema names plus var-rooted
//     shape keys, see core.FeatureKeys) to the dependencies whose premise
//     mentions them. It is a pure function of the dependency set, built
//     once and shared read-only across every chase of one backchase run.
//
//   - Each fixpoint iteration maintains per-dependency dirtiness. A
//     dependency whose premise search came up empty is marked clean and
//     skipped until the canonical database changes in a way that could
//     give it a new premise homomorphism: a congruence union touching a
//     class whose features intersect the premise's (reported by the
//     closure's feature log), or a newly added binding whose range
//     features intersect it.
//
//   - A dependency dirtied only by appended bindings gets a homomorphism
//     search seeded at the delta: only assignments using at least one of
//     the new target bindings are enumerated (visitHoms with deltaStart).
//     Dependencies dirtied by a union — or the dependency that just fired
//     — are re-searched in full.
//
// Why the result is byte-identical to the naive fixpoint, step for step:
//
//  1. Conclusion satisfaction is monotone. ExtendsToConclusion only ever
//     flips from false to true as the canonical database grows, so a
//     premise homomorphism that was once found satisfied can never make
//     its dependency applicable again.
//  2. Premise homomorphisms appear only through relevant changes. A
//     membership or premise-condition test flips from false to true only
//     when a union joins the classes of the two tested terms — and the
//     transported premise term carries a subset of the dependency's own
//     premise features (homomorphisms substitute variables for
//     variables, preserving shape; a repeated premise variable's var≡var
//     witness test is covered by indexing the dependency under FeatVar,
//     see core.PremiseFeatureKeys), so that union's feature log
//     intersects the dependency's features — or when a new binding
//     supplies a previously nonexistent target. The membership test
//     compares the new range to the transported premise range up to
//     congruence, so the range is matched against the index through the
//     feature keys of its whole congruence class (which contain the
//     features of every interned term it can stand in for), not just its
//     own term features; bare-variable or featureless ranges
//     conservatively dirty everything.
//  3. Hence a clean dependency has no applicable homomorphism, and a
//     binding-delta-dirty dependency has applicable homomorphisms only
//     among those using a delta binding; scanning dependencies in the
//     naive order (EGDs before TGDs, slice order, visitHoms order) finds
//     exactly the naive engine's next step.
//
// Derived congruences materialize lazily (interning a term can trigger
// signature-collision unions), but they are consequences of equalities
// already asserted: any search that needs one triggers it while testing,
// so laziness never changes a test's outcome — it only adds conservative
// entries to the feature log, which cost a spurious re-search at most.
package chase

import (
	"context"

	"cnb/internal/congruence"
	"cnb/internal/core"
)

// DepIndex is the premise feature index over a fixed dependency set: for
// every dependency, the feature keys of its premise, inverted into a
// feature -> dependencies map. Immutable (and safe for concurrent use)
// after construction; per-run dirtiness lives in the chase run itself, so
// one index serves every lattice state of a backchase and every
// equivalence chase of an Optimize call.
type DepIndex struct {
	deps []*core.Dependency
	// egds and tgds list dependency positions in original slice order,
	// preserving the naive engine's EGD-before-TGD scan discipline.
	egds, tgds []int
	// feats[i] is the premise feature set of deps[i].
	feats []map[string]bool
	// byFeat inverts feats: feature key -> positions of dependencies whose
	// premise carries it.
	byFeat map[string][]int
	// naive selects the textbook reference engine (see NewNaiveIndex).
	naive bool
}

// NewDepIndex builds the premise index for the dependency set. The slice
// is captured, not copied; callers must not mutate it afterwards.
func NewDepIndex(deps []*core.Dependency) *DepIndex {
	ix := &DepIndex{
		deps:   deps,
		feats:  make([]map[string]bool, len(deps)),
		byFeat: map[string][]int{},
	}
	for i, d := range deps {
		if d.IsEGD() {
			ix.egds = append(ix.egds, i)
		} else {
			ix.tgds = append(ix.tgds, i)
		}
		fs := d.PremiseFeatureKeys()
		ix.feats[i] = fs
		for f := range fs {
			ix.byFeat[f] = append(ix.byFeat[f], i)
		}
	}
	return ix
}

// NewNaiveIndex builds a reference index over the dependency set:
// chasing over it runs the textbook fixpoint, which rescans every
// dependency and restarts homomorphism search from scratch at each step,
// and its canons (see NewCanon) use the unseeded linear scan. Results and
// step sequences are byte-identical to NewDepIndex's; only the work
// differs. It exists for the naive-vs-incremental differential suites
// and E15's A/B measurement; product code uses NewDepIndex.
func NewNaiveIndex(deps []*core.Dependency) *DepIndex {
	ix := NewDepIndex(deps)
	ix.naive = true
	return ix
}

// NewCanon builds the canonical database of q for searches that belong
// to chases over ix: their work counts toward m (which may be nil), and
// a naive index's canons use the linear homomorphism scan so that
// naive-vs-incremental measurements stay comparable.
func (ix *DepIndex) NewCanon(q *core.Query, m *Metrics) *Canon {
	cn := NewCanon(q)
	cn.Metrics = m
	cn.linearScan = ix.naive
	return cn
}

// Deps returns the indexed dependency slice (read-only).
func (ix *DepIndex) Deps() []*core.Dependency { return ix.deps }

// Len returns the number of indexed dependencies.
func (ix *DepIndex) Len() int { return len(ix.deps) }

// DepsForFeature returns the positions of the dependencies indexed under
// the feature key, in dependency order. Exposed for the index-correctness
// tests; the result must be treated as read-only.
func (ix *DepIndex) DepsForFeature(feat string) []int { return ix.byFeat[feat] }

// depState is the per-run dirtiness of one dependency.
type depState struct {
	// dirty marks the dependency as needing a premise search; clean
	// dependencies are provably inapplicable (see the file comment).
	dirty bool
	// deltaStart, when >= 0, restricts the search to homomorphisms using
	// at least one target binding of index >= deltaStart (the dependency
	// was dirtied only by appended bindings since its last exhausted
	// search). -1 means a full search is required.
	deltaStart int
}

// markUnion dirties, for a full re-search, every dependency whose premise
// features intersect the touched-feature set of this step's congruence
// unions.
func (ix *DepIndex) markUnion(st []depState, touched map[string]bool) {
	for f := range touched {
		for _, di := range ix.byFeat[f] {
			st[di] = depState{dirty: true, deltaStart: -1}
		}
	}
}

// markNewBinding dirties dependencies that may match the newly appended
// binding range, seeding their next search at the delta (binding index
// from). Premise membership tests compare ranges up to congruence, so the
// range's term features are unioned with the feature keys of its whole
// congruence class (the range must already be interned in cc): a binding
// with range d.A can satisfy a premise atom v in d.B when d.A ≡ d.B, and
// only the class features carry ".B". When the class contains a bare
// variable the union includes FeatVar, waking dependencies with
// bare-variable premise shapes. Ranges with no features, or bare-variable
// ranges, conservatively dirty every dependency. Union-dirty (full)
// states are never downgraded, and an older (smaller) delta seed is kept.
func (ix *DepIndex) markNewBinding(st []depState, cc *congruence.Closure, rng *core.Term, from int) {
	fs := rng.FeatureKeys()
	// The conservative fallback is decided on the range's own term
	// features, BEFORE the class union: a range that is featureless on
	// its own terms can stand in for any premise shape, and a featured
	// class must not talk it out of dirtying everything.
	if len(fs) == 0 || rng.Kind == core.KVar {
		for i := range st {
			st[i] = depState{dirty: true, deltaStart: -1}
		}
		return
	}
	for f := range cc.ClassFeatures(rng) {
		fs[f] = true
	}
	for f := range fs {
		for _, di := range ix.byFeat[f] {
			s := &st[di]
			if !s.dirty {
				*s = depState{dirty: true, deltaStart: from}
			}
			// Already dirty: a full (-1) search subsumes the delta, and an
			// existing delta seed is from an earlier step, hence <= from.
		}
	}
}

// findApplicable scans the given dependency positions in order, skipping
// clean ones, and returns the first dependency with a premise
// homomorphism that does not extend to its conclusion. Dependencies
// searched without success are marked clean. Mirrors the naive engine's
// findApplicable exactly on the dirty set.
func (ix *DepIndex) findApplicable(cn *Canon, order []int, st []depState) (*core.Dependency, int, Hom) {
	for _, di := range order {
		s := &st[di]
		if !s.dirty {
			continue
		}
		d := ix.deps[di]
		if cn.Metrics != nil {
			cn.Metrics.DepSearches.Add(1)
		}
		var found Hom
		cn.visitHoms(d.Premise, d.PremiseConds, nil, s.deltaStart, func(h Hom) bool {
			if !cn.ExtendsToConclusion(d, h) {
				found = h.Clone()
				return true
			}
			return false
		})
		if found != nil {
			return d, di, found
		}
		*s = depState{}
	}
	return nil, -1, nil
}

// ChaseIndexed is ChaseContext over a prebuilt dependency index. The
// index selects the engine: the delta-driven fixpoint for NewDepIndex,
// the textbook one for NewNaiveIndex. Results and step sequences are
// byte-identical; only the amount of homomorphism-search work differs
// (Options.Metrics measures it).
func ChaseIndexed(ctx context.Context, q *core.Query, ix *DepIndex, opts Options) (*Result, error) {
	return chaseIndexed(ctx, q, ix, opts, nil)
}

// chaseIndexed dispatches to the index's engine; a non-nil goal makes
// the run goal-directed (see ContainedIn).
func chaseIndexed(ctx context.Context, q *core.Query, ix *DepIndex, opts Options, goal *goalTest) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Metrics != nil {
		opts.Metrics.Runs.Add(1)
	}
	if ix.naive {
		return chaseNaive(ctx, q, ix, opts, goal)
	}
	return chaseIncremental(ctx, q, ix, opts, goal)
}

// checkpoint runs the tests both engines make before every step:
// cancellation, a constant clash, in a goal-directed run a containment
// mapping of the goal, and last the step and size budgets. A clash or a
// mapping is a proof whatever the budget: every chase prefix is
// equivalent to the input under the dependencies, so the last affordable
// state still decides. done reports that the run ends here, with res
// filled in or err set.
func checkpoint(ctx context.Context, cn *Canon, goal *goalTest, steps int, lastDep string, opts Options, res *Result) (done bool, err error) {
	if err := ctx.Err(); err != nil {
		return true, err
	}
	if _, _, clash := cn.CC.ConstantClash(); clash {
		res.Query, res.Inconsistent = cn.Q, true
		return true, nil
	}
	if goal != nil && goal.mapsInto(cn) {
		res.Query, res.goalMapped = cn.Q, true
		return true, nil
	}
	if steps >= opts.MaxSteps || len(cn.Q.Bindings) > opts.MaxBindings {
		return true, &ErrBudget{Steps: steps, Bindings: len(cn.Q.Bindings), Dep: lastDep}
	}
	return false, nil
}

// extend appends the facts next adds over cn.Q to the canonical database
// and makes next its query.
func (cn *Canon) extend(next *core.Query) {
	for _, b := range next.Bindings[len(cn.Q.Bindings):] {
		cn.CC.Add(b.Range)
		cn.CC.Add(core.V(b.Var))
	}
	for _, c := range next.Conds[len(cn.Q.Conds):] {
		cn.CC.Merge(c.L, c.R)
	}
	cn.Q = next
}

// chaseIncremental runs the delta-driven fixpoint.
func chaseIncremental(ctx context.Context, q *core.Query, ix *DepIndex, opts Options, goal *goalTest) (*Result, error) {
	res := &Result{}
	cn := ix.NewCanon(q.Clone(), opts.Metrics)
	cn.CC.TrackFeatures()
	// The input query's own facts are the initial delta: everything is
	// dirty for a full search, and the feature log starts drained.
	cn.CC.TakeTouched()
	st := make([]depState, len(ix.deps))
	for i := range st {
		st[i] = depState{dirty: true, deltaStart: -1}
	}
	lastDep := ""
	for steps := 0; ; steps++ {
		if done, err := checkpoint(ctx, cn, goal, steps, lastDep, opts, res); done {
			if err != nil {
				return nil, err
			}
			return res, nil
		}
		dep, di, hom := ix.findApplicable(cn, ix.egds, st)
		if dep == nil {
			dep, di, hom = ix.findApplicable(cn, ix.tgds, st)
		}
		if dep == nil {
			res.Query = cn.Q
			return res, nil
		}
		oldBindings := len(cn.Q.Bindings)
		cn.extend(applyStep(cn.Q, dep, hom))
		res.Steps = append(res.Steps, Step{Dep: dep.Name, Hom: hom})
		lastDep = dep.Name
		if opts.Metrics != nil {
			opts.Metrics.ChaseSteps.Add(1)
		}
		// Delta bookkeeping. The feature log covers every union since the
		// last take — the step's merges plus any derived unions triggered
		// while searching (conservative, see the file comment) — and the
		// appended bindings are matched against the index directly. The
		// fired dependency itself was left mid-enumeration, so it needs a
		// full re-search regardless of features.
		if touched := cn.CC.TakeTouched(); touched != nil {
			ix.markUnion(st, touched)
		}
		for _, b := range cn.Q.Bindings[oldBindings:] {
			ix.markNewBinding(st, cn.CC, b.Range, oldBindings)
		}
		st[di] = depState{dirty: true, deltaStart: -1}
	}
}

// chaseNaive is the textbook fixpoint (every dependency rescanned, full
// homomorphism search each step), kept as the differential reference and
// the baseline E15 measures against.
func chaseNaive(ctx context.Context, q *core.Query, ix *DepIndex, opts Options, goal *goalTest) (*Result, error) {
	res := &Result{}
	egds, tgds := splitEGDs(ix.deps)
	cn := ix.NewCanon(q.Clone(), opts.Metrics) // linear scan: the full backtracking cost
	lastDep := ""
	for steps := 0; ; steps++ {
		if done, err := checkpoint(ctx, cn, goal, steps, lastDep, opts, res); done {
			if err != nil {
				return nil, err
			}
			return res, nil
		}
		dep, hom := findApplicable(cn, egds)
		if dep == nil {
			dep, hom = findApplicable(cn, tgds)
		}
		if dep == nil {
			res.Query = cn.Q
			return res, nil
		}
		cn.extend(applyStep(cn.Q, dep, hom))
		res.Steps = append(res.Steps, Step{Dep: dep.Name, Hom: hom})
		lastDep = dep.Name
		if opts.Metrics != nil {
			opts.Metrics.ChaseSteps.Add(1)
		}
	}
}

// findApplicable returns the first dependency (in order) with a premise
// homomorphism that does not extend to its conclusion, together with that
// homomorphism. Determinism: dependencies are scanned in slice order and
// homomorphisms in the backtracking order of VisitHoms; the search stops
// at the first applicable one. Each dependency searched counts toward
// cn.Metrics, so naive-vs-incremental comparisons measure the same
// events.
func findApplicable(cn *Canon, deps []*core.Dependency) (*core.Dependency, Hom) {
	for _, d := range deps {
		if cn.Metrics != nil {
			cn.Metrics.DepSearches.Add(1)
		}
		var found Hom
		cn.VisitHoms(d.Premise, d.PremiseConds, nil, func(h Hom) bool {
			if !cn.ExtendsToConclusion(d, h) {
				found = h.Clone()
				return true
			}
			return false
		})
		if found != nil {
			return d, found
		}
	}
	return nil, nil
}
