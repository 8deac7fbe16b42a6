// Memoized backchase engine.
//
// The subquery lattice explored by the backchase is a DAG of states, each
// state a removal set of the root's bindings, held as a bitset over the
// root's binding positions (posSet) that keys the visited set and the
// caches as it is, whatever the root's size. Exploration order does not
// affect which states are reachable or which of them are normal forms —
// soundness of a removal is "equivalence of the induced subquery to the
// root", a property of the state alone. The engine explores the lattice
// breadth-first from the root, in one FIFO on the caller's goroutine, and
// memoizes the expensive chase-based equivalence checks per state, so no
// canonically identical subquery is ever re-chased.
//
// Determinism: results are reported in a canonical order (plans sorted by
// size then renaming-invariant signature, explored states by the number
// of removed bindings, then by the removed variables' names in root
// order, rendered once at the final sort). The exploration order is
// fixed, so repeated runs return identical Results, and so does a run
// that the MaxStates cap truncates.
//
// Every equivalence check is the candidate ⊑ root direction alone: the
// construction proves root ⊑ candidate (see equivalentToRoot), so no
// check searches the root, and the engine holds no canonical database.
// Candidate construction only reads the root's frozen congruence
// closure.
//
// Subsumption certificates: the search proves most candidates'
// candidate ⊑ root direction without a chase. Before the exploration
// starts, seed dives walk the lattice greedily, each taking the first
// chase-verified removal until none is left; the normal forms they
// reach are the seeds. Dive k starts from the root minus X_k, where
// X_0 = ∅ and X_{k+1} adds the first binding, in root order, of the
// seed dive k reached, so no two dives reach the same seed. Every dive
// evaluation goes through the equivalence memo, where the exploration,
// which makes nearly all of them too, finds it. Then a candidate S
// that keeps a strict superset of some seed T's bindings is certified
// when the identity on T's variables is a containment mapping of T
// into S's unchased canonical database with S's output: S ⊑ T needs no
// dependencies, and the dive proved T ⊑ root, so S ≡ root. The mapping
// is decided on the frozen root closure, with a rewriter avoiding S's
// removed variables: every atom of T must resolve on both sides to one
// root class in a way that proves both sides equal in S's canonical
// database (identityResolves, congruence Rewriter.Resolve). A
// candidate no seed certifies is chased. The seeds are fixed before
// exploration starts, so whether a state is chased or certified
// depends on the state alone.
package backchase

import (
	"context"
	"errors"
	"maps"
	"math/bits"
	"slices"
	"strings"

	"cnb/internal/chase"
	"cnb/internal/congruence"
	"cnb/internal/core"
)

// posSet is a set of root binding positions, bit i%8 of byte i/8 for
// position i, held in a string so that it keys maps as it is. It is the
// lattice state (the removal set) for every root size.
type posSet string

// emptySet returns the empty set over n positions.
func emptySet(n int) posSet {
	k := (n + 7) / 8
	if k <= len(zeros) {
		return posSet(zeros[:k])
	}
	return posSet(make([]byte, k))
}

// zeros backs the empty sets of up to 256 positions, so that making one
// allocates nothing.
var zeros = strings.Repeat("\x00", 32)

func (s posSet) has(i int) bool { return s[i/8]&(1<<(i%8)) != 0 }

// with returns s plus position i.
func (s posSet) with(i int) posSet {
	b := []byte(s)
	b[i/8] |= 1 << (i % 8)
	return posSet(b)
}

// holds reports whether v is bound at a position of q in s.
func (s posSet) holds(q *core.Query, v string) bool {
	i := q.BindingOf(v)
	return i >= 0 && s.has(i)
}

// size returns the number of positions in s.
func (s posSet) size() int {
	n := 0
	for i := 0; i < len(s); i++ {
		n += bits.OnesCount8(s[i])
	}
	return n
}

// subsetOf reports whether every position of s is in t.
func (s posSet) subsetOf(t posSet) bool {
	for i := 0; i < len(s); i++ {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

// stateItem is a state of the subquery lattice.
type stateItem struct {
	removed posSet      // removed binding positions of the root
	q       *core.Query // Subquery(root, removed)
}

// seed is a normal form a seed dive reached, ready to certify the
// states above it: removed is its state, q the plan.
type seed struct {
	removed posSet
	q       *core.Query
}

// subEntry caches a Subquery construction (sub == nil: construction
// failed or cascaded to the empty query) and the removal set the
// cascade grew it to.
type subEntry struct {
	sub  *core.Query
	full posSet
}

// engine is the state of one backchase run.
type engine struct {
	root     *core.Query
	depIndex *chase.DepIndex // premise index shared by every chase of the run
	opts     Options
	goalC    *chase.CompiledQuery // the goal, compiled once per run
	// subs builds every candidate of the run over one frozen closure of
	// root.
	subs *SubqueryBuilder

	// none is the root's state: nothing removed.
	none posSet
	// rootValid records that every variable of the root is bound in it,
	// which the certificates' fast path needs (see certify).
	rootValid bool
	// seeds are the dives' normal forms, fixed before the exploration
	// starts (nil while diving).
	seeds     []seed
	certified int // states proved equivalent by a seed
	chased    int // states that ran a goal-directed chase

	seen      map[posSet]bool      // claimed states (the visited set)
	eq        map[posSet]bool      // equivalence to the root, per cascaded state
	sub       map[posSet]*subEntry // candidate construction, per removal set
	truncated bool

	plans map[string]*core.Query // normalized signature -> plan
}

func newEngine(ctx context.Context, q *core.Query, deps []*core.Dependency, opts Options) (*engine, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The dependency set is fixed for the whole run, so one premise index
	// serves every lattice state's equivalence chases (Options.Index lets
	// the optimizer share its own chase phase's index).
	ix := opts.Index
	if ix == nil {
		ix = chase.NewDepIndex(deps)
	}
	goal := q
	if opts.Goal != nil {
		goal = opts.Goal
	}
	return &engine{
		root:      q,
		depIndex:  ix,
		opts:      opts,
		goalC:     chase.CompileQuery(goal),
		subs:      NewSubqueryBuilder(q),
		none:      emptySet(len(q.Bindings)),
		rootValid: q.Validate() == nil,
		seen:      map[posSet]bool{},
		eq:        map[posSet]bool{},
		sub:       map[posSet]*subEntry{},
		plans:     map[string]*core.Query{},
	}, nil
}

// claim marks the state visited, honoring the MaxStates cap. It returns
// true exactly once per state; the caller then owns enqueueing it.
func (e *engine) claim(key posSet) bool {
	if e.seen[key] {
		return false
	}
	if len(e.seen) >= e.opts.MaxStates {
		e.truncated = true
		return false
	}
	e.seen[key] = true
	return true
}

// addPlan normalizes and registers a normal form, deduplicating by
// renaming-invariant signature. Two distinct states can normalize to
// isomorphic plans with the same signature but different variable names
// (symmetric self-joins); the representative kept is the one with the
// lexicographically smallest normalized rendering, not the first one
// found, so the reported plan set does not depend on exploration order.
func (e *engine) addPlan(cur *core.Query) {
	plan := normalizeIndexed(context.Background(), cur, e.depIndex, e.opts.Chase)
	psig := plan.CanonicalSignature()
	if prev, dup := e.plans[psig]; !dup || plan.NormalizeBindingOrder().String() < prev.NormalizeBindingOrder().String() {
		e.plans[psig] = plan
	}
}

// cachedSubquery memoizes Subquery(root, grown) per removal set, built
// by the run's SubqueryBuilder, with the set its cascade grew to.
func (e *engine) cachedSubquery(grown posSet) *subEntry {
	if ent, ok := e.sub[grown]; ok {
		return ent
	}
	ent := &subEntry{}
	if sub, full, ok := e.subs.subquery(grown); ok {
		ent.sub, ent.full = sub, full
	}
	e.sub[grown] = ent
	return ent
}

// equivalence memoizes "is sub = Subquery(root, full) equivalent to
// the root", so a canonically identical subquery is never re-chased.
// Budget exhaustion before the goal maps into the candidate's chase
// means the removal cannot be verified and is treated as unsound; a goal
// that maps in before the budget runs out is accepted.
func (e *engine) equivalence(ctx context.Context, full posSet, sub *core.Query) (bool, error) {
	if eq, ok := e.eq[full]; ok {
		return eq, nil
	}
	eq, err := e.equivalentToRoot(ctx, full, sub)
	if _, budget := err.(*chase.ErrBudget); budget {
		eq, err = false, nil
	}
	if err != nil {
		return false, err
	}
	e.eq[full] = eq
	return eq, nil
}

// equivalentToRoot checks sub ≡ root under the dependencies, where sub
// is Subquery(root, removed) as subqueryFrom built it.
//
// Direction root ⊑ sub holds by construction (the paper's §3 conditions
// 1 and 2), so it is not tested: the identity on sub's variables is a
// containment mapping of sub into the root's unchased canonical
// database. Every range, condition side and output of sub is a
// congruence.Rewriter rewrite, or a ClassVariants entry, of a class of
// the root closure, built from member nodes whose operator and child
// classes exist in it. By induction over the rewrite each such term is
// congruent to the members of its class in the root's canonical
// database: a free member is one; a rebuild applies a member's operator
// to rewrites of its children, congruent to them; inverse beta gives
// X.F for a rewrite X of a constructor's class whose field F lies in
// the class, congruent to it by beta. So each binding x ∈ R' of
// sub is witnessed by the root's binding x ∈ R with R' ≅ R, each
// condition relates two variants of one class, and the output is
// congruent to the root's; no dependency is needed.
// TestCandidatesContainRoot checks this over every candidate of 614
// roots.
//
// Direction sub ⊑ root: a seed's certificate (see certify) when one
// applies; otherwise the goal (Options.Goal, else the root) maps into a
// goal-directed chase of sub, which stops at the first state the goal
// maps into. Only a budget exhausted before that counts as unsound.
func (e *engine) equivalentToRoot(ctx context.Context, removed posSet, sub *core.Query) (bool, error) {
	if e.certify(removed, sub) {
		e.certified++
		return true, nil
	}
	e.chased++
	return chase.ContainedInCompiled(ctx, sub, e.goalC, e.depIndex, e.opts.Chase)
}

// certify reports whether some seed whose bindings are a strict subset
// of sub's proves sub ⊑ root: the identity on the seed's variables is a
// containment mapping of the seed into sub's canonical database, not
// chased, with the output matched to sub's. That proves sub ⊑ seed
// without dependencies, and the seed's dive proved seed ⊑ root by
// chase. removed is sub's state. The mappings are decided on the frozen
// root closure, through identityResolves with a rewriter avoiding sub's
// removed variables; that needs a valid root (see identityResolves).
func (e *engine) certify(removed posSet, sub *core.Query) bool {
	if !e.rootValid {
		return false
	}
	var rw *congruence.Rewriter
	for i := range e.seeds {
		if !e.seeds[i].below(removed) {
			continue
		}
		if rw == nil {
			rw = e.subs.rewriter(removed)
		}
		if identityResolves(rw, e.seeds[i].q, sub) {
			return true
		}
	}
	return false
}

// below reports whether the seed's bindings are a strict subset of
// those of the state removed.
func (sd *seed) below(removed posSet) bool {
	return sd.removed != removed && removed.subsetOf(sd.removed)
}

// identityResolves is the certificate decided on the root closure: it
// reports that the identity on t's variables maps t into the unchased
// canonical database of s, where t and s are subqueries of the root
// built over rw's closure, t's removal set contains s's and rw avoids
// s's removed variables. Each atom of t — each binding's range against
// s's range for the same variable, each condition, t's output against
// s's — must be proved by rw.Equates: both sides one term, or one
// operator over children so proved, or both placed by Rewriter.Resolve
// in one root class and proven there.
//
// Soundness. s's conditions equate, for every root class, the variants
// rw.ClassVariants lists for it: subqueryFrom builds them with a rewriter
// avoiding s's removed variables and keeps each, because a variant
// mentions only surviving variables and every variable of a valid root
// is bound (certify runs this only on a valid root). So, by
// Resolve's contract, a term proven in class C is congruent in s's
// canonical database to every variant of C, and two terms proven in one
// class are congruent to each other; congruence carries that through
// equal operators. t's removal set contains s's, so every variable of t
// survives in s. With every range, every condition and the output so
// matched, the identity is a containment mapping: each binding x ∈ R of
// t is witnessed by s's binding of x. A term Resolve cannot place or
// prove — a Miss, an Ambiguous projection, a failed check — or two
// classes that differ reject the seed, and without a certificate the
// candidate is chased.
func identityResolves(rw *congruence.Rewriter, t, s *core.Query) bool {
	for _, b := range t.Bindings {
		i := s.BindingOf(b.Var)
		if i < 0 || !rw.Equates(b.Range, s.Bindings[i].Range) {
			return false
		}
	}
	for _, c := range t.Conds {
		if !rw.Equates(c.L, c.R) {
			return false
		}
	}
	return rw.Equates(t.Out, s.Out)
}

// buildCandidate constructs the candidate state for removing root
// position p on top of the already-removed set, cascading to dependent
// bindings that cannot be re-expressed. Returns the grown (cascaded)
// removal set and the subquery, or a nil subquery if the construction is
// impossible. No equivalence check happens here.
func (e *engine) buildCandidate(removed posSet, p int) (posSet, *core.Query) {
	return e.buildState(removed.with(p))
}

// buildState constructs the state for removing the given set, as
// buildCandidate does for one more removal.
func (e *engine) buildState(grown posSet) (posSet, *core.Query) {
	ent := e.cachedSubquery(grown)
	if ent.sub == nil || len(ent.sub.Bindings) == 0 {
		return "", nil
	}
	return ent.full, ent.sub
}

// tryRemove attempts a backchase step eliminating the named binding:
// buildCandidate plus the chase-based equivalence check. Returns the
// grown removal set and the resulting subquery, or a nil subquery if the
// step is unsound or impossible.
func (e *engine) tryRemove(ctx context.Context, removed posSet, v string) (posSet, *core.Query, error) {
	full, sub := e.buildCandidate(removed, e.root.BindingOf(v))
	if sub == nil {
		return "", nil, nil
	}
	eq, err := e.equivalence(ctx, full, sub)
	if err != nil || !eq {
		return "", nil, err
	}
	return full, sub, nil
}

// process explores one claimed state: try every single-binding
// removal, append unseen sound successors to queue, and register the
// state as a normal form if no removal applies.
func (e *engine) process(ctx context.Context, it stateItem, queue []stateItem) ([]stateItem, error) {
	normal := true
	for _, b := range it.q.Bindings {
		if err := ctx.Err(); err != nil {
			return queue, err
		}
		full, sub, err := e.tryRemove(ctx, it.removed, b.Var)
		if err != nil {
			return queue, err
		}
		if sub == nil {
			continue
		}
		normal = false
		if e.claim(full) {
			queue = append(queue, stateItem{removed: full, q: sub})
		}
	}
	if normal {
		e.addPlan(it.q)
	}
	return queue, nil
}

// dive runs the seed dives (see the package comment) on the memoized
// chase-verified equivalence (e.seeds is still nil, so nothing is
// certified), and sets e.seeds to the normal forms they reach.
func (e *engine) dive(ctx context.Context) error {
	n := len(e.root.Bindings)
	var seeds []seed
	x := e.none
	for k := 0; k < n; k++ {
		removed, cur := x, e.root
		if k > 0 {
			full, sub := e.buildState(x)
			if sub == nil {
				break
			}
			eq, err := e.equivalence(ctx, full, sub)
			if err != nil {
				return err
			}
			if !eq {
				break
			}
			removed, cur = full, sub
		}
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			next, nextQ, err := e.firstRemoval(ctx, removed, cur)
			if err != nil {
				return err
			}
			if nextQ == nil {
				break
			}
			removed, cur = next, nextQ
		}
		seeds = append(seeds, seed{removed: removed, q: cur})
		first := 0
		for removed.has(first) {
			first++
		}
		x = x.with(first)
	}
	e.seeds = seeds
	return nil
}

// enumerate runs the seed dives, then explores the lattice from the
// root in FIFO order and assembles the deterministic Result.
func (e *engine) enumerate(ctx context.Context) (*Result, error) {
	var queue []stateItem
	err := e.dive(ctx)
	if err == nil {
		e.claim(e.none)
		queue = append(queue, stateItem{removed: e.none, q: e.root})
	}
	// The first n items of queue are the explored states; a state whose
	// processing fails counts as explored.
	n := 0
	for err == nil && n < len(queue) {
		n++
		queue, err = e.process(ctx, queue[n-1], queue)
	}
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	explored := queue[:n]
	e.sortStates(explored)

	res := &Result{
		States:    len(explored),
		Truncated: e.truncated,
		Seeds:     len(e.seeds),
		Certified: e.certified,
		Chased:    e.chased,
	}
	for _, it := range explored {
		res.Explored = append(res.Explored, it.q)
	}
	res.Plans = e.sortedPlans()
	// On cancellation err is its cause: callers can use the partial
	// result.
	return res, err
}

// sortedPlans returns the collected normal forms in canonical order:
// ascending size then renaming-invariant signature (a pure function of
// the plan set).
func (e *engine) sortedPlans() []*core.Query {
	sigs := slices.Sorted(maps.Keys(e.plans))
	out := make([]*core.Query, len(sigs))
	for i, sig := range sigs {
		out[i] = e.plans[sig]
	}
	slices.SortStableFunc(out, func(a, b *core.Query) int { return len(a.Bindings) - len(b.Bindings) })
	return out
}

// sortStates orders explored states canonically: fewer removed variables
// first (the root leads), then by the removed variables' names, each
// followed by ';', in root order.
func (e *engine) sortStates(items []stateItem) {
	type keyed struct {
		n   int
		key string
		it  stateItem
	}
	ks := make([]keyed, len(items))
	for i, it := range items {
		var sb strings.Builder
		for p, b := range e.root.Bindings {
			if it.removed.has(p) {
				sb.WriteString(b.Var)
				sb.WriteByte(';')
			}
		}
		ks[i] = keyed{it.removed.size(), sb.String(), it}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.n != b.n {
			return a.n - b.n
		}
		return strings.Compare(a.key, b.key)
	})
	for i, k := range ks {
		items[i] = k.it
	}
}

// firstRemoval finds the first (in binding order) sound removal from the
// current state, short-circuiting at it, so MinimizeOne is
// deterministic.
func (e *engine) firstRemoval(ctx context.Context, removed posSet, cur *core.Query) (posSet, *core.Query, error) {
	for _, b := range cur.Bindings {
		next, nextQ, err := e.tryRemove(ctx, removed, b.Var)
		if err != nil {
			return "", nil, err
		}
		if nextQ != nil {
			return next, nextQ, nil
		}
	}
	return "", nil, nil
}
