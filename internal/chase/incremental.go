// Delta-driven incremental chase engine.
//
// The naive chase fixpoint rescans every dependency at every step and
// restarts premise-homomorphism search from scratch over the whole
// canonical database. This file replaces that inner loop with the
// semi-naive delta discipline of Datalog engines, adapted to the chase:
//
//   - A DepIndex maps premise feature keys (schema names plus var-rooted
//     shape keys, see core.FeatureKeys) to the dependencies whose premise
//     mentions them, and holds every dependency compiled for
//     homomorphism search (compile.go). It is a pure function of the
//     dependency set, built once and shared read-only across every chase
//     of one backchase run. The closure tracks class features as bitsets
//     over the index's feature universe.
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
//     the new target bindings are enumerated (premiseSearch with
//     deltaStart).
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
//     when a union joins the classes of the two tested terms, or when a
//     new binding supplies a previously nonexistent target. The argument
//     needs the union to log the transported premise term's features,
//     which are the premise term's own (homomorphisms substitute
//     variables for variables, preserving shape; a repeated premise
//     variable's var≡var witness test is covered by indexing the
//     dependency under FeatVar, see core.PremiseFeatureKeys), so every
//     term a premise search tests must have a class that carries them.
//     That is the frontier rule of the compiled search (modeIntern in
//     match.go): a transported term is resolved by lookups over class
//     ids, and one whose signature has no node yet — say x′.F, with no
//     node over x′'s class — is built and interned right there, because
//     without that node an EGD union x′ = t logs only x′'s features ("?")
//     and never wakes a premise y in x.F; a compound term resolved to an
//     existing node's class has its features added to that class. Then
//     each union of a tested term's class logs features intersecting the
//     dependency's. Conclusion tests and containment tests intern
//     nothing (their outcomes decide no wake-up). A new binding's range
//     is matched against the index through the features of its whole
//     congruence class (which contain those of every term it can stand
//     in for), not just its own; a bare-variable range conservatively
//     dirties everything.
//  3. Hence a clean dependency has no applicable homomorphism, and a
//     binding-delta-dirty dependency has applicable homomorphisms only
//     among those using a delta binding; scanning dependencies in the
//     naive order (EGDs before TGDs, slice order, backtracking order) finds
//     exactly the naive engine's next step.
//
// Derived congruences materialize lazily (interning a term can trigger
// signature-collision unions, and a projection x.F whose base class holds
// constructors with field F in different classes merges them), but they
// are consequences of equalities already asserted: any search that needs
// one triggers it while testing — a lookup that could only be answered by
// that merge (congruence.Ambiguous) interns the term, on a private clone
// in a read-only test — so laziness never changes a test's outcome; it
// only adds conservative entries to the feature log, which cost a
// spurious re-search at most.
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
	// progs[i] is deps[i] compiled for homomorphism search.
	progs []*depProg
	// egds and tgds list dependency positions in original slice order,
	// preserving the naive engine's EGD-before-TGD scan discipline.
	egds, tgds []int
	// feats numbers the premise features of all the dependencies: the
	// universe the chase's closures track class features over.
	feats *congruence.Features
	// byBit inverts the premise feature sets: feature bit -> positions of
	// the dependencies whose premise carries it.
	byBit [][]int
	// naive selects the textbook reference engine (see NewNaiveIndex).
	naive bool
}

// NewDepIndex builds the premise index for the dependency set and
// compiles every dependency's premise ranges and conditions, conclusion
// and conclusion conditions into pattern programs. The slice is
// captured, not copied; callers must not mutate it afterwards.
func NewDepIndex(deps []*core.Dependency) *DepIndex {
	ix := &DepIndex{deps: deps, progs: make([]*depProg, len(deps))}
	premise := make([]map[string]bool, len(deps))
	var keys []string
	for i, d := range deps {
		if d.IsEGD() {
			ix.egds = append(ix.egds, i)
		} else {
			ix.tgds = append(ix.tgds, i)
		}
		premise[i] = d.PremiseFeatureKeys()
		for f := range premise[i] {
			keys = append(keys, f)
		}
	}
	ix.feats = congruence.NewFeatures(keys)
	ix.byBit = make([][]int, ix.feats.Len())
	for i, d := range deps {
		for b := 0; b < ix.feats.Len(); b++ {
			if premise[i][ix.feats.Key(b)] {
				ix.byBit[b] = append(ix.byBit[b], i)
			}
		}
		ix.progs[i] = compileDep(d, ix.feats)
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
	return ix.newCanon(q, m, 25)
}

// newCanon is NewCanon with room for grow percent more terms (see
// newCanon), for a chase to add.
func (ix *DepIndex) newCanon(q *core.Query, m *Metrics, grow int) *Canon {
	cn := newCanon(q, grow)
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
func (ix *DepIndex) DepsForFeature(feat string) []int {
	b, ok := ix.feats.Bit(feat)
	if !ok {
		return nil
	}
	return ix.byBit[b]
}

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
func (ix *DepIndex) markUnion(st []depState, touched congruence.FeatureSet) {
	touched.Each(func(b int) {
		for _, di := range ix.byBit[b] {
			st[di] = depState{dirty: true, deltaStart: -1}
		}
	})
}

// markNewBinding dirties dependencies that may match the newly appended
// binding range, seeding their next search at the delta (binding index
// from). Premise membership tests compare ranges up to congruence, so the
// range is matched through the features of its whole congruence class
// (the range must already be interned in cc), which include its own: a
// binding with range d.A can satisfy a premise atom v in d.B when
// d.A ≡ d.B, and only the class features carry ".B". When the class
// contains a bare variable they include FeatVar, waking dependencies with
// bare-variable premise shapes. A bare-variable range — the one shape
// with no feature key of its own beyond FeatVar, see core.FeatureKeys —
// conservatively dirties every dependency. Union-dirty (full) states are
// never downgraded, and an older (smaller) delta seed is kept.
func (ix *DepIndex) markNewBinding(st []depState, cc *congruence.Closure, rng *core.Term, from int) {
	// The conservative fallback is decided on the range's own term, before
	// the class: a bare variable can stand in for any premise shape, and a
	// featured class must not talk it out of dirtying everything.
	if rng.Kind == core.KVar {
		for i := range st {
			st[i] = depState{dirty: true, deltaStart: -1}
		}
		return
	}
	cc.ClassFeatures(rng).Each(func(b int) {
		for _, di := range ix.byBit[b] {
			s := &st[di]
			if !s.dirty {
				*s = depState{dirty: true, deltaStart: from}
			}
			// Already dirty: a full (-1) search subsumes the delta, and an
			// existing delta seed is from an earlier step, hence <= from.
		}
	})
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
		if cn.Metrics != nil {
			cn.Metrics.DepSearches.Add(1)
		}
		if found := cn.premiseSearch(ix.progs[di], s.deltaStart); found != nil {
			return ix.deps[di], di, found
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

// goal is what a goal-directed run stops at: a containment mapping of q
// with the outputs matched (ContainedIn), or else the equality l = r
// (ImpliesEquality).
type goal struct {
	q    *CompiledQuery
	l, r *core.Term
}

// reached reports whether the goal holds in the canonical database.
// The equality test interns l and r into the chase's closure; interning
// only adds consequences of equalities already asserted, so it changes
// no later step (see the file comment).
func (g *goal) reached(cn *Canon) bool {
	if g.q != nil {
		return cn.MapsCompiledInto(g.q, cn.Q.Out, nil)
	}
	return cn.CC.Same(g.l, g.r)
}

// chaseIndexed dispatches to the index's engine; a non-nil goal makes
// the run goal-directed (see ContainedIn).
func chaseIndexed(ctx context.Context, q *core.Query, ix *DepIndex, opts Options, goal *goal) (*Result, error) {
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
// cancellation, a constant clash, in a goal-directed run the goal, and
// last the step and size budgets. A clash or a reached goal is a proof
// whatever the budget: every chase prefix is equivalent to the input
// under the dependencies, so the last affordable state still decides.
// done reports that the run ends here, with res filled in or err set.
func checkpoint(ctx context.Context, cn *Canon, goal *goal, steps int, lastDep string, opts Options, res *Result) (done bool, err error) {
	if err := ctx.Err(); err != nil {
		return true, err
	}
	if _, _, clash := cn.CC.ConstantClash(); clash {
		res.Query, res.Inconsistent = cn.Q, true
		return true, nil
	}
	if goal != nil && goal.reached(cn) {
		res.Query, res.goalReached = cn.Q, true
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
	cn.addBindings(next.Bindings[len(cn.Q.Bindings):])
	for _, c := range next.Conds[len(cn.Q.Conds):] {
		cn.CC.Merge(c.L, c.R)
	}
	cn.Q = next
}

// chaseIncremental runs the delta-driven fixpoint.
func chaseIncremental(ctx context.Context, q *core.Query, ix *DepIndex, opts Options, goal *goal) (*Result, error) {
	res := &Result{}
	cn := ix.newCanon(q.Clone(), opts.Metrics, 150)
	cn.CC.TrackFeatures(ix.feats)
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
func chaseNaive(ctx context.Context, q *core.Query, ix *DepIndex, opts Options, goal *goal) (*Result, error) {
	res := &Result{}
	var egds, tgds []*depProg
	for _, di := range ix.egds {
		egds = append(egds, ix.progs[di])
	}
	for _, di := range ix.tgds {
		tgds = append(tgds, ix.progs[di])
	}
	cn := ix.newCanon(q.Clone(), opts.Metrics, 150) // linear scan: the full backtracking cost
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
// homomorphisms in the backtracking order of the compiled search, which
// stops at the first applicable one. Each dependency searched counts toward
// cn.Metrics, so naive-vs-incremental comparisons measure the same
// events.
func findApplicable(cn *Canon, deps []*depProg) (*core.Dependency, Hom) {
	for _, dp := range deps {
		if cn.Metrics != nil {
			cn.Metrics.DepSearches.Add(1)
		}
		if found := cn.premiseSearch(dp, -1); found != nil {
			return dp.d, found
		}
	}
	return nil, nil
}

// premiseSearch returns the first premise homomorphism of dp, in the
// backtracking order of the compiled search, that does not extend to the
// conclusion, or nil. With deltaStart >= 0 only homomorphisms using a
// target binding of index >= deltaStart are visited, in the same order
// as the full enumeration (the visited sequence is a subsequence of the
// full one): the incremental chase uses this for dependencies whose only
// relevant change since their last exhausted search is a batch of
// appended bindings. Every older homomorphism has already been searched
// and found conclusion-satisfied, a state that is monotone under chase
// extension, so skipping it is sound.
func (cn *Canon) premiseSearch(dp *depProg, deltaStart int) Hom {
	s := cn.spareSearch(&cn.premise, dp.prog, dp.premise, dp.pconds, modeIntern)
	s.bits = dp.bits
	s.deltaStart = deltaStart
	s.leafDo, s.dp = leafPremise, dp
	s.run(dp.premiseAt)
	return s.found
}
