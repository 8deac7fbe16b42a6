// Package backchase implements the second phase of the chase & backchase
// method (§3 of Deutsch, Popa, Tannen, VLDB 1999): starting from the
// universal plan, repeatedly eliminate bindings whose removal preserves
// equivalence under the dependencies, producing the minimal plans.
//
// A backchase step removing binding "R y" from query Q must satisfy
// (paper's conditions):
//
//  1. the remaining conditions C' are implied by C,
//  2. the output O' is congruent to O and avoids y,
//  3. the constraint ∀(survivors) C' → ∃ y∈R. C is implied by the
//     dependencies — equivalently, the reduced query is contained in Q
//     under the dependencies, which we verify by a subsumption
//     certificate or a chase-based containment check.
//
// Conditions 1 and 2 make the identity a containment mapping of the
// reduced query into Q, so Q ⊑ reduced holds by construction and only
// condition 3 needs the dependencies.
//
// Theorem 2 (Complete Backchase): the minimal equivalent subqueries of Q
// are exactly the normal forms of backchasing Q. Enumerate explores every
// backchase sequence and returns all normal forms.
package backchase

import (
	"context"
	"fmt"
	"sort"

	"cnb/internal/chase"
	"cnb/internal/congruence"
	"cnb/internal/core"
)

// Options tunes the backchase.
type Options struct {
	// Chase configures the embedded chase runs used by equivalence checks.
	Chase chase.Options
	// MaxStates caps the number of distinct intermediate subqueries
	// explored (0 = default 100000), a safety valve for adversarial
	// inputs — the search space is exponential in the number of
	// redundant bindings (§5).
	MaxStates int
	// Parallelism is kept so that existing callers still compile.
	//
	// Deprecated: ignored; the backchase is serial.
	Parallelism int
	// Index is a prebuilt chase dependency index over the same dependency
	// set passed to Enumerate (chase.NewDepIndex(deps)); the optimizer
	// shares the index of its chase phase this way. Nil means the engine
	// builds its own. The index is a pure function of the dependency set
	// and never changes results.
	Index *chase.DepIndex
	// Goal is the query the root was chased from (the optimizer passes
	// the user's query; the root is its universal plan). It must be
	// equivalent to the root under the dependencies. A candidate's
	// S ⊑ root direction is then proved by mapping Goal, which has a
	// fraction of the root's bindings, into a goal-directed chase of S
	// (chase.ContainedIn). Nil means the root itself. Results are the
	// same either way whenever the candidates' chases terminate within
	// the budget.
	//
	// Most candidates skip that chase: a seed dive's normal
	// form T, proved T ⊑ Goal by chase once, certifies every candidate S
	// above it whose unchased canonical database T maps into by the
	// identity (S ⊑ T ⊑ Goal). A certified candidate is equivalent even
	// where its own chase would exhaust the budget.
	Goal *core.Query
}

func (o Options) withDefaults() Options {
	if o.MaxStates == 0 {
		o.MaxStates = 100000
	}
	return o
}

// Result holds the outcome of a backchase enumeration. Plans and
// Explored are reported in canonical order (plans by size then
// signature, states by removal-set key); the exploration order is
// fixed, so repeated runs, truncated ones included, produce
// byte-identical results.
type Result struct {
	// Plans are the distinct normal forms (minimal equivalent subqueries),
	// deduplicated by renaming-invariant signature.
	Plans []*core.Query
	// Explored are all distinct subqueries visited by the enumeration
	// (every state of every backchase sequence), including the normal
	// forms. The paper presents intermediate states such as P1 that are
	// further reducible under rich constraint sets; Explored lets callers
	// inspect them.
	Explored []*core.Query
	// States is the number of distinct subqueries explored.
	States int
	// Truncated reports whether a cap stopped the enumeration early.
	Truncated bool
	// Seeds is the number of normal forms the seed dives reached, and
	// Certified the number of candidates one of them proved equivalent
	// by a containment mapping, without a chase.
	// Chased is the number of candidates whose equivalence needed a
	// goal-directed chase; every candidate checked is one or the other.
	Seeds, Certified, Chased int
}

// Enumerate explores all backchase sequences from q under deps and returns
// every normal form. The input query is typically the universal plan
// chase(Q); per Theorem 1 its subqueries contain all minimal plans.
//
// States are canonicalized as removal sets against the root: every state
// is Subquery(q, removed) for some set of removed binding variables, which
// is deterministic, so the search memoizes on the surviving-variable set.
// Computing subqueries from the root's congruence closure (the richest
// one) makes the search at least as complete as chaining single steps
// through intermediate states.
func Enumerate(q *core.Query, deps []*core.Dependency, opts Options) (*Result, error) {
	return EnumerateContext(context.Background(), q, deps, opts)
}

// EnumerateContext is Enumerate with cancellation: the search observes
// the context between candidate checks and inside every embedded chase
// run, so cancellation stops it promptly. On cancellation it returns the
// partial Result collected so far together with ctx.Err(). The search
// runs on the caller's goroutine, so a panic inside it reaches the
// caller.
func EnumerateContext(ctx context.Context, q *core.Query, deps []*core.Dependency, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	e, err := newEngine(ctx, q, deps, opts)
	if err != nil {
		return nil, err
	}
	return e.enumerate(ctx)
}

// MinimizeOne performs a greedy backchase: repeatedly apply the first
// sound removal until none applies, returning a single (normalized)
// minimal plan. Deterministic: bindings are tried in order and the first
// sound removal (lowest binding index) is always the one taken.
func MinimizeOne(q *core.Query, deps []*core.Dependency, opts Options) (*core.Query, error) {
	return MinimizeOneContext(context.Background(), q, deps, opts)
}

// MinimizeOneContext is MinimizeOne with cancellation. The rounds share
// the engine's memoized equivalence cache.
func MinimizeOneContext(ctx context.Context, q *core.Query, deps []*core.Dependency, opts Options) (*core.Query, error) {
	opts = opts.withDefaults()
	e, err := newEngine(ctx, q, deps, opts)
	if err != nil {
		return nil, err
	}
	removed := e.none
	cur := q.Clone()
	for {
		next, nextQ, err := e.firstRemoval(ctx, removed, cur)
		if err != nil {
			return nil, err
		}
		if nextQ == nil {
			return Normalize(cur, deps, opts.Chase), nil
		}
		removed, cur = next, nextQ
	}
}

// IsMinimal reports whether no backchase step applies to q under deps.
func IsMinimal(q *core.Query, deps []*core.Dependency, opts Options) (bool, error) {
	return IsMinimalContext(context.Background(), q, deps, opts)
}

// IsMinimalContext is IsMinimal with cancellation.
func IsMinimalContext(ctx context.Context, q *core.Query, deps []*core.Dependency, opts Options) (bool, error) {
	opts = opts.withDefaults()
	e, err := newEngine(ctx, q, deps, opts)
	if err != nil {
		return false, err
	}
	_, next, err := e.firstRemoval(ctx, e.none, q)
	if err != nil {
		return false, err
	}
	return next == nil, nil
}

// Subquery computes the induced subquery of q after removing the bindings
// of the given variables (cascading removal to bindings whose ranges
// cannot be rewritten to avoid them). It returns the subquery and whether
// the construction succeeded: it fails when the output cannot be
// re-expressed without the removed variables.
//
// The construction follows §3: group the query's terms into congruence
// classes by its conditions; the new conditions are a maximal set of
// implied equalities over surviving terms; the new output is a congruent
// rewriting of the old.
func Subquery(q *core.Query, removedVars map[string]bool) (*core.Query, bool) {
	return NewSubqueryBuilder(q).Subquery(removedVars)
}

// SubqueryBuilder constructs the induced subqueries of one query. It
// builds the query's congruence closure once and freezes it, so each
// Subquery call pays only for its own rewriting, and any number of
// goroutines may call Subquery concurrently. The backchase engine builds
// every candidate of a run through one SubqueryBuilder.
type SubqueryBuilder struct {
	q  *core.Query
	cc *congruence.Closure
}

// NewSubqueryBuilder returns a builder of q's induced subqueries.
func NewSubqueryBuilder(q *core.Query) *SubqueryBuilder {
	return &SubqueryBuilder{q: q, cc: rootClosure(q)}
}

// Subquery is the package-level Subquery of the builder's query.
func (b *SubqueryBuilder) Subquery(removedVars map[string]bool) (*core.Query, bool) {
	sub, _, ok := b.subquery(positions(b.q, removedVars))
	return sub, ok
}

// subquery is Subquery over a removal set of root positions; it also
// returns the set the cascade grew it to.
func (b *SubqueryBuilder) subquery(removed posSet) (*core.Query, posSet, bool) {
	return subqueryFrom(b.q, b.cc, removed)
}

// rewriter returns a rewriter of the root closure avoiding the removed
// positions' variables: the one subqueryFrom builds the conditions of
// Subquery(q, removed) with, when removed is a cascaded set.
func (b *SubqueryBuilder) rewriter(removed posSet) *congruence.Rewriter {
	return b.cc.Rewriter(b.cc.VarSet(func(v string) bool { return removed.holds(b.q, v) }))
}

// positions returns the root positions of the named variables of q.
func positions(q *core.Query, vars map[string]bool) posSet {
	s := emptySet(len(q.Bindings))
	for i, b := range q.Bindings {
		if vars[b.Var] {
			s = s.with(i)
		}
	}
	return s
}

// rootClosure is the congruence closure every subquery of q is built
// from: all of q's terms, grouped by its conditions. It does not depend
// on the removal set, so the engine builds it once per run; it is
// returned frozen, since every subquery construction only reads it.
func rootClosure(q *core.Query) *congruence.Closure {
	cc := congruence.New()
	for _, t := range q.AllTerms() {
		cc.Add(t)
	}
	for _, c := range q.Conds {
		cc.Merge(c.L, c.R)
	}
	cc.Freeze()
	return cc
}

// subqueryFrom is Subquery over cc, q's frozen rootClosure, for a
// removal set of q's positions; it also returns the set the cascade grew
// it to. It only reads cc — every rewrite is a congruence.Rewriter pass
// over its class ids — so every call of a run shares one closure.
func subqueryFrom(q *core.Query, cc *congruence.Closure, removed posSet) (*core.Query, posSet, bool) {
	isRemoved := func(v string) bool { return removed.holds(q, v) }
	rw := cc.Rewriter(cc.VarSet(isRemoved))
	rewrite := func(t *core.Term) (*core.Term, bool) {
		id, ok := cc.ID(t)
		if !ok {
			return nil, false
		}
		return rw.Rewrite(id)
	}

	// Cascade: a surviving binding whose range cannot avoid the removed
	// variables is removed as well (paper's footnote 6 alternative).
	var survivors []core.Binding
	for grown := true; grown; {
		survivors, grown = survivors[:0], false
		for i, b := range q.Bindings {
			if removed.has(i) {
				continue
			}
			rng, ok := rewrite(b.Range)
			if !ok {
				removed, grown = removed.with(i), true
				rw = cc.Rewriter(cc.VarSet(isRemoved))
				break
			}
			survivors = append(survivors, core.Binding{Var: b.Var, Range: rng})
		}
	}
	if len(survivors) == 0 {
		return nil, "", false
	}

	// Output must be re-expressible.
	out, ok := rewrite(q.Out)
	if !ok {
		return nil, "", false
	}

	// Maximal implied conditions over surviving terms: for every
	// congruence class, equate the distinct rewritten variants — rebuilt
	// terms too, not only interned members: plans like the paper's P4
	// need derived conditions such as I[j.PN].CustName = "CitiBank".
	var conds []core.Cond
	condSeen := map[[2]string]bool{}
	for class := range cc.Classes() {
		reps := rw.ClassVariants(class)
		for _, r := range reps[min(1, len(reps)):] {
			key := [2]string{reps[0].HashKey(), r.HashKey()}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			if !reps[0].Equal(r) && !condSeen[key] {
				condSeen[key] = true
				conds = append(conds, core.Cond{L: reps[0], R: r})
			}
		}
	}

	// Keep only conditions over surviving variables (rewriting can in
	// principle still produce removed vars through class members that
	// mention them — filter defensively).
	surviving := cc.VarSet(func(v string) bool { return !isRemoved(v) && q.BindingOf(v) >= 0 })
	kept := conds[:0]
	for _, c := range conds {
		if cc.Covers(surviving, c.L) && cc.Covers(surviving, c.R) {
			kept = append(kept, c)
		}
	}
	if !cc.Covers(surviving, out) {
		return nil, "", false
	}

	// Assemble and re-establish binding scope by topological order.
	sub := &core.Query{Out: out, Bindings: survivors, Conds: kept}
	sorted, ok := topoSortBindings(sub.Bindings)
	if !ok {
		return nil, "", false
	}
	sub.Bindings = sorted
	if err := sub.Validate(); err != nil {
		return nil, "", false
	}
	return sub, removed, true
}

// Normalize cleans a plan for presentation and costing without changing
// its meaning under the dependencies:
//
//  1. prune conditions that are implied by the dependencies together with
//     the remaining conditions (checked with the chase), and
//  2. rewrite each output field to the smallest congruent term over the
//     plan's own variables.
//
// The maximal condition sets built by Subquery are needed during the
// enumeration (they carry the information later removals rely on), but the
// paper's displayed plans — e.g. P2 without the primary-index equality
// I[p.PName] = p — correspond to the pruned form.
func Normalize(q *core.Query, deps []*core.Dependency, opts chase.Options) *core.Query {
	return normalizeIndexed(context.Background(), q, chase.NewDepIndex(deps), opts)
}

// normalizeIndexed is Normalize over a prebuilt dependency index, so the
// engine's per-plan normalizations reuse one index across the whole
// lattice.
func normalizeIndexed(ctx context.Context, q *core.Query, ix *chase.DepIndex, opts chase.Options) *core.Query {
	cur := q.Clone()
	// Try pruning the largest conditions first so that small key
	// equalities (e.g. k = "CitiBank", which later enables the
	// non-failing-lookup simplification of P3) are the ones kept when two
	// conditions imply each other. One pass in that order suffices: a
	// drop only weakens the plan, so a condition its remaining conditions
	// did not imply is not implied after a later drop either.
	order := make([]int, len(cur.Conds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cur.Conds[order[a]], cur.Conds[order[b]]
		return ca.L.Size()+ca.R.Size() > cb.L.Size()+cb.R.Size()
	})
	dropped := make([]bool, len(cur.Conds))
	for _, i := range order {
		// The drop-test chase stops at the first state that equates the
		// condition's sides (chase.ImpliesEquality).
		cand := &core.Query{Out: cur.Out, Bindings: cur.Bindings}
		for j, c := range cur.Conds {
			if j != i && !dropped[j] {
				cand.Conds = append(cand.Conds, c)
			}
		}
		cond := cur.Conds[i]
		if implied, err := chase.ImpliesEquality(ctx, cand, cond.L, cond.R, ix, opts); err == nil && implied {
			dropped[i] = true
		}
	}
	kept := cur.Conds[:0]
	for i, c := range cur.Conds {
		if !dropped[i] {
			kept = append(kept, c)
		}
	}
	cur.Conds = kept
	// Output normalization against the chased plan's congruence classes.
	res, err := chase.ChaseIndexed(ctx, cur, ix, opts)
	if err == nil && !res.Inconsistent {
		cn := ix.NewCanon(res.Query, opts.Metrics)
		cn.CC.Freeze()
		cur.Out = normalizeTerm(cur.Out, cn, cur.BoundVars())
	}
	return cur
}

// normalizeTerm picks the smallest congruent representative of t (by term
// size, then HashKey) among the variants of its class in the canon's
// frozen closure over the plan's own variables. Considering rebuilt forms
// — not only interned members — lets two plans that express the same
// value through different access paths (Dept[j.DOID].DName vs
// I[j.PN].PDept) converge to one canonical output. Struct constructors
// are normalized field-wise.
func normalizeTerm(t *core.Term, cn *chase.Canon, own map[string]bool) *core.Term {
	if t.Kind == core.KStruct {
		fs := make([]core.StructField, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = core.StructField{Name: f.Name, Term: normalizeTerm(f.Term, cn, own)}
		}
		return core.Struct(fs...)
	}
	id, ok := cn.CC.ID(t)
	if !ok {
		return t
	}
	// Variables to avoid: everything bound by the chased query that is not
	// the plan's own.
	avoid := cn.CC.VarSet(func(v string) bool { return !own[v] && cn.Q.BindingOf(v) >= 0 })
	ownVars := cn.CC.VarSet(func(v string) bool { return own[v] })
	best := t
	for _, m := range cn.CC.Rewriter(avoid).ClassVariants(cn.CC.ClassOf(id)) {
		if cn.CC.Covers(ownVars, m) && (m.Size() < best.Size() || (m.Size() == best.Size() && m.HashKey() < best.HashKey())) {
			best = m
		}
	}
	return best
}

// topoSortBindings orders bindings so that every range mentions only
// earlier variables, preserving the given order among independent
// bindings. Returns ok=false on cyclic dependencies.
func topoSortBindings(bs []core.Binding) ([]core.Binding, bool) {
	n := len(bs)
	used := make([]bool, n)
	introduced := map[string]bool{}
	out := make([]core.Binding, 0, n)
	for len(out) < n {
		progress := false
		for i, b := range bs {
			if used[i] {
				continue
			}
			ready := true
			for v := range b.Range.Vars() {
				if !introduced[v] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			used[i] = true
			introduced[b.Var] = true
			out = append(out, b)
			progress = true
		}
		if !progress {
			return nil, false
		}
	}
	return out, true
}

// equivalentIndexed decides Q1 ≡ Q2 under the indexed dependencies with
// chase-based containment in both directions: Qi ⊑ Qj iff there is a
// containment mapping (homomorphism with output match) from Qj into
// chase(Qi).
func equivalentIndexed(ctx context.Context, q1, q2 *core.Query, ix *chase.DepIndex, opts chase.Options) (bool, error) {
	c1, err := containedIndexed(ctx, q1, q2, ix, opts)
	if err != nil || !c1 {
		return false, err
	}
	return containedIndexed(ctx, q2, q1, ix, opts)
}

// containedIndexed decides Q1 ⊑ Q2 under the indexed dependencies (every
// answer of Q1 is an answer of Q2 on instances satisfying them).
func containedIndexed(ctx context.Context, q1, q2 *core.Query, ix *chase.DepIndex, opts chase.Options) (bool, error) {
	res, err := chase.ChaseIndexed(ctx, q1, ix, opts)
	if err != nil {
		return false, err
	}
	if res.Inconsistent {
		return true, nil // Q1 empty on all valid instances
	}
	// A read-only test: q2's variables are slots, so they cannot capture
	// the chased q1's.
	return ix.NewCanon(res.Query, opts.Metrics).MapsCompiledInto(chase.CompileQuery(q2), res.Query.Out, nil), nil
}

// Equivalent is the exported chase-based equivalence test under
// dependencies.
func Equivalent(q1, q2 *core.Query, deps []*core.Dependency, opts chase.Options) (bool, error) {
	return equivalentIndexed(context.Background(), q1, q2, chase.NewDepIndex(deps), opts)
}

// Contained is the exported chase-based containment test under
// dependencies: Q1 ⊑ Q2.
func Contained(q1, q2 *core.Query, deps []*core.Dependency, opts chase.Options) (bool, error) {
	return containedIndexed(context.Background(), q1, q2, chase.NewDepIndex(deps), opts)
}

// BruteForceMinimal enumerates all subsets of q's bindings directly
// (exponential!) and returns the minimal equivalent subqueries. It is the
// reference implementation used to validate Theorem 2 in tests and the E7
// experiment; use Enumerate in production.
func BruteForceMinimal(q *core.Query, deps []*core.Dependency, opts Options) ([]*core.Query, error) {
	return BruteForceMinimalContext(context.Background(), q, deps, opts)
}

// BruteForceMinimalContext is BruteForceMinimal with cancellation. The
// 2^n subsets are checked in mask order.
func BruteForceMinimalContext(ctx context.Context, q *core.Query, deps []*core.Dependency, opts Options) ([]*core.Query, error) {
	opts = opts.withDefaults()
	n := len(q.Bindings)
	if n > 20 {
		return nil, fmt.Errorf("backchase: brute force limited to 20 bindings, got %d", n)
	}
	type cand struct {
		q    *core.Query
		size int
	}
	// One premise index serves every subset's equivalence chases.
	ix := opts.Index
	if ix == nil {
		ix = chase.NewDepIndex(deps)
	}
	var equivalents []cand
	for mask := 0; mask < 1<<n; mask++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		removed := map[string]bool{}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				removed[q.Bindings[i].Var] = true
			}
		}
		if len(removed) == n {
			continue
		}
		sub, ok := Subquery(q, removed)
		if !ok {
			continue
		}
		// The cascade may have removed more than the mask requested; skip
		// duplicates via signature dedup below.
		eq, err := equivalentIndexed(ctx, sub, q, ix, opts.Chase)
		if _, budget := err.(*chase.ErrBudget); budget {
			continue
		}
		if err != nil {
			return nil, err
		}
		if eq {
			equivalents = append(equivalents, cand{q: sub, size: len(sub.Bindings)})
		}
	}
	// Keep the minimal ones: no strictly smaller equivalent subquery of
	// them exists in the set. Minimality per the paper: a query is minimal
	// if no strict subquery (fewer bindings) of it is equivalent. Here all
	// candidates are equivalent subqueries of q; a candidate is minimal if
	// no other candidate is a strict subquery of it.
	var minimal []*core.Query
	seen := map[string]bool{}
	for _, c := range equivalents {
		isMin := true
		for _, d := range equivalents {
			if d.size < c.size && isSubquerySet(d.q, c.q) {
				isMin = false
				break
			}
		}
		if !isMin {
			continue
		}
		sig := c.q.CanonicalSignature()
		if !seen[sig] {
			seen[sig] = true
			minimal = append(minimal, c.q)
		}
	}
	return minimal, nil
}

// isSubquerySet reports whether small's bindings embed into big's bindings
// by variable name (both derive from the same original query, so shared
// variables identify bindings).
func isSubquerySet(small, big *core.Query) bool {
	bigVars := big.BoundVars()
	for _, b := range small.Bindings {
		if !bigVars[b.Var] {
			return false
		}
	}
	return true
}
