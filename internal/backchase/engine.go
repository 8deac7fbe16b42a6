// Parallel memoized backchase engine.
//
// The subquery lattice explored by the backchase is a DAG of states, each
// state a removal set of the root's bindings, held as a bitset over the
// root's binding positions (posSet) that keys the visited set and the
// caches as it is, whatever the root's size. Exploration order does not
// affect which states are reachable or which of them are normal forms —
// soundness of a removal is "equivalence of the induced subquery to the
// root", a property of the state alone — so the search parallelizes: a
// pool of workers pops states from a shared unbounded work queue, claims
// successors in a sharded visited set, and memoizes the expensive
// chase-based equivalence checks in a sharded single-flight cache so no
// canonically identical subquery is ever re-chased, even when two
// workers race to the same state.
//
// Determinism: results are reported in a canonical order (plans sorted by
// size then renaming-invariant signature, explored states by the number
// of removed bindings, then by the removed variables' names in root
// order, rendered once at the final sort), so for runs that complete
// without truncation or cancellation the Result is identical for every
// Parallelism value and across repeated runs. Under the MaxStates cap or
// cancellation, *which* states get explored depends on scheduling; only
// then can results differ.
//
// Every equivalence check is the candidate ⊑ root direction alone: the
// construction proves root ⊑ candidate (see equivalentToRoot), so no
// check searches the root, and the engine holds no canonical database.
// Candidate construction only reads the root's congruence closure, so
// every worker shares one frozen closure.
//
// Subsumption certificates: the search proves most candidates'
// candidate ⊑ root direction without a chase. Before any worker
// starts, serial seed dives walk the lattice greedily, each
// taking the first chase-verified removal until none is left; the normal
// forms they reach are the seeds. Dive k starts from the root minus X_k,
// where X_0 = ∅ and X_{k+1} adds the first binding, in root order, of
// the seed dive k reached, so no two dives reach the same seed. Every
// dive evaluation goes through the single-flight cache, where the walk,
// which makes nearly all of them too, finds it. Then a candidate S that
// keeps a strict superset of some seed T's bindings is certified when
// the identity on T's variables is a containment mapping of T into S's
// unchased canonical database with S's output: S ⊑ T needs no
// dependencies, and the dive proved T ⊑ root, so S ≡ root. The mapping
// is decided on the frozen root closure, with a rewriter avoiding S's
// removed variables: every atom of T must resolve on both sides to one
// root class in a way that proves both sides equal in S's canonical
// database (identityResolves, congruence Rewriter.Resolve). A candidate
// no seed certifies is chased. The seeds are fixed before exploration
// starts, so whether a state is chased or certified depends on the
// state alone, and chase.Metrics stay identical across every
// Parallelism value.
package backchase

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cnb/internal/chase"
	"cnb/internal/congruence"
	"cnb/internal/core"
)

const numShards = 32

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

// stateItem is one unit of work: a claimed state of the subquery lattice.
type stateItem struct {
	removed posSet      // removed binding positions of the root
	q       *core.Query // Subquery(root, removed)
}

// workQueue is an unbounded FIFO work pool with done-tracking: pending
// counts items enqueued but not yet fully processed, so workers can
// distinguish "queue momentarily empty" from "exploration finished".
type workQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []stateItem
	head    int // read position
	pending int
	stopped bool
}

func newWorkQueue() *workQueue {
	wq := &workQueue{}
	wq.cond = sync.NewCond(&wq.mu)
	return wq
}

func (wq *workQueue) push(it stateItem) {
	wq.mu.Lock()
	defer wq.mu.Unlock()
	if wq.stopped {
		return
	}
	wq.items = append(wq.items, it)
	wq.pending++
	wq.cond.Signal()
}

// pop blocks until an item is available or the exploration is over
// (stopped, or no items left and none in flight).
func (wq *workQueue) pop() (stateItem, bool) {
	wq.mu.Lock()
	defer wq.mu.Unlock()
	for {
		if wq.stopped {
			return stateItem{}, false
		}
		if wq.head < len(wq.items) {
			it := wq.items[wq.head]
			wq.items[wq.head] = stateItem{} // release for GC
			wq.head++
			return it, true
		}
		if wq.pending == 0 {
			return stateItem{}, false
		}
		wq.cond.Wait()
	}
}

// taskDone marks one popped item fully processed (its successors pushed).
func (wq *workQueue) taskDone() {
	wq.mu.Lock()
	defer wq.mu.Unlock()
	wq.pending--
	if wq.pending == 0 {
		wq.cond.Broadcast()
	}
}

// stop aborts the exploration: blocked workers wake and exit.
func (wq *workQueue) stop() {
	wq.mu.Lock()
	defer wq.mu.Unlock()
	wq.stopped = true
	wq.cond.Broadcast()
}

// eqEntry is a single-flight slot of the equivalence cache: the first
// worker to claim a state computes, everyone else waits on done.
type eqEntry struct {
	done chan struct{}
	eq   bool
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

// shard is one stripe of the engine's shared state, guarded by its own
// mutex to keep contention off the hot path.
type shard struct {
	mu   sync.Mutex
	seen map[posSet]bool
	eq   map[posSet]*eqEntry
	sub  map[posSet]*subEntry
}

// engine is the shared state of one parallel backchase run.
type engine struct {
	root     *core.Query
	deps     []*core.Dependency
	depIndex *chase.DepIndex // premise index shared by every chase of the run
	opts     Options
	goalC    *chase.CompiledQuery // the goal, compiled once per run
	// subs builds every candidate of the run over one frozen closure of
	// root, which all workers read concurrently, without a copy.
	subs  *SubqueryBuilder
	queue *workQueue

	shards [numShards]shard
	seed   maphash.Seed

	// none is the root's state: nothing removed.
	none posSet
	// rootValid records that every variable of the root is bound in it,
	// which the certificates' fast path needs (see certify).
	rootValid bool
	// seeds are the dives' normal forms, fixed before any worker starts
	// and read-only afterwards (nil while diving).
	seeds     []seed
	certified atomic.Int64 // states proved equivalent by a seed
	chased    atomic.Int64 // states that ran a goal-directed chase

	states    atomic.Int64 // claimed states (visited-set size)
	truncated atomic.Bool

	plansMu sync.Mutex
	plans   map[string]*core.Query // normalized signature -> plan

	errMu sync.Mutex
	err   error // first hard error; aborts the run
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
	e := &engine{
		root:      q,
		deps:      deps,
		depIndex:  ix,
		opts:      opts,
		goalC:     chase.CompileQuery(goal),
		subs:      NewSubqueryBuilder(q),
		queue:     newWorkQueue(),
		seed:      maphash.MakeSeed(),
		none:      emptySet(len(q.Bindings)),
		rootValid: q.Validate() == nil,
		plans:     map[string]*core.Query{},
	}
	for i := range e.shards {
		e.shards[i].seen = map[posSet]bool{}
		e.shards[i].eq = map[posSet]*eqEntry{}
		e.shards[i].sub = map[posSet]*subEntry{}
	}
	return e, nil
}

func (e *engine) shard(key posSet) *shard {
	return &e.shards[maphash.String(e.seed, string(key))%numShards]
}

// claim marks the state visited, honoring the MaxStates cap. It returns
// true exactly once per state; the caller then owns enqueueing it. The
// budget slot is reserved with a compare-and-swap so concurrent claims
// on different shards can never overshoot MaxStates.
func (e *engine) claim(key posSet) bool {
	sh := e.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.seen[key] {
		return false
	}
	for {
		n := e.states.Load()
		if n >= int64(e.opts.MaxStates) {
			e.truncated.Store(true)
			return false
		}
		if e.states.CompareAndSwap(n, n+1) {
			break
		}
	}
	sh.seen[key] = true
	return true
}

// fail records the first hard error and aborts the run.
func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.queue.stop()
}

func (e *engine) firstErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// addPlan normalizes and registers a normal form, deduplicating by
// renaming-invariant signature. Two distinct states can normalize to
// isomorphic plans with the same signature but different variable names
// (symmetric self-joins); the representative kept is the one with the
// lexicographically smallest canonical rendering, not whichever worker
// arrived first, so the reported plan set is independent of scheduling.
func (e *engine) addPlan(cur *core.Query) {
	plan := normalizeIndexed(context.Background(), cur, e.depIndex, e.opts.Chase)
	psig := plan.CanonicalSignature()
	e.plansMu.Lock()
	defer e.plansMu.Unlock()
	// Isomorphic variants of one plan carry different variable names
	// (their canonical orders agree up to renaming); the entry keeps the
	// representative with the lexicographically smallest normalized
	// rendering, so the plan set stays schedule-independent.
	if prev, dup := e.plans[psig]; !dup || plan.NormalizeBindingOrder().String() < prev.NormalizeBindingOrder().String() {
		e.plans[psig] = plan
	}
}

// cachedSubquery memoizes Subquery(root, grown) per removal set, built
// by the run's SubqueryBuilder, with the set its cascade grew to. Two
// workers may race to compute the same construction; the first stored
// value wins (both compute identical results — Subquery is
// deterministic).
func (e *engine) cachedSubquery(grown posSet) *subEntry {
	sh := e.shard(grown)
	sh.mu.Lock()
	if ent, ok := sh.sub[grown]; ok {
		sh.mu.Unlock()
		return ent
	}
	sh.mu.Unlock()
	ent := &subEntry{}
	if sub, full, ok := e.subs.subquery(grown); ok {
		ent.sub, ent.full = sub, full
	}
	sh.mu.Lock()
	if prev, ok := sh.sub[grown]; ok {
		ent = prev
	} else {
		sh.sub[grown] = ent
	}
	sh.mu.Unlock()
	return ent
}

// equivalence memoizes "is sub = Subquery(root, full) equivalent to
// the root", single-flighted so a canonically identical
// subquery is never re-chased: the first worker to claim the key runs
// the chase-based check, concurrent workers for the same key block until
// it lands. Budget exhaustion before the goal maps into the candidate's
// chase means the removal cannot be verified and is treated as unsound;
// a goal that maps in before the budget runs out is accepted.
func (e *engine) equivalence(ctx context.Context, full posSet, sub *core.Query) (bool, error) {
	sh := e.shard(full)
	sh.mu.Lock()
	if ent, ok := sh.eq[full]; ok {
		sh.mu.Unlock()
		select {
		case <-ent.done:
			return ent.eq, nil
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
	ent := &eqEntry{done: make(chan struct{})}
	sh.eq[full] = ent
	sh.mu.Unlock()
	defer close(ent.done)

	eq, err := e.equivalentToRoot(ctx, full, sub)
	if err != nil {
		if _, budget := err.(*chase.ErrBudget); budget {
			return false, nil
		}
		return false, err
	}
	ent.eq = eq
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
		e.certified.Add(1)
		return true, nil
	}
	e.chased.Add(1)
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

// process explores one claimed state: record it, try every single-binding
// removal, enqueue unseen sound successors, and register the state as a
// normal form if no removal applies.
func (e *engine) process(ctx context.Context, w *worker, it stateItem) error {
	w.explored = append(w.explored, it)
	normal := true
	for _, b := range it.q.Bindings {
		if err := ctx.Err(); err != nil {
			return err
		}
		full, sub := e.buildCandidate(it.removed, e.root.BindingOf(b.Var))
		if sub == nil {
			continue
		}
		eq, err := e.equivalence(ctx, full, sub)
		if err != nil {
			return err
		}
		if !eq {
			continue
		}
		normal = false
		if e.claim(full) {
			e.queue.push(stateItem{removed: full, q: sub})
		}
	}
	if normal {
		e.addPlan(it.q)
	}
	return nil
}

// worker holds per-goroutine state: the explored-state log, merged after
// the pool drains (avoids a global lock on the exploration hot path).
type worker struct {
	explored []stateItem
}

// run is the worker loop: pop, process, mark done, until the queue drains
// or the run aborts. A panic while processing a state aborts the run with
// the panic as its error: workers are goroutines of their own, so a panic
// escaping one would take the whole process down, past any recover of
// the caller.
func (e *engine) run(ctx context.Context, w *worker) {
	defer e.recoverPanic()
	for {
		it, ok := e.queue.pop()
		if !ok {
			return
		}
		err := e.process(ctx, w, it)
		e.queue.taskDone()
		if err != nil {
			e.fail(err)
			return
		}
	}
}

// recoverPanic, deferred by a goroutine of the run, turns a panic into
// the run's error.
func (e *engine) recoverPanic() {
	if p := recover(); p != nil {
		e.fail(fmt.Errorf("backchase: worker panic: %v\n%s", p, debug.Stack()))
	}
}

// plantSeeds runs the seed dives (see the package comment) and fixes
// e.seeds, before any worker starts. It honours ctx and recovers a
// panic like a worker: either aborts the run.
func (e *engine) plantSeeds(ctx context.Context) {
	defer e.recoverPanic()
	if err := e.dive(ctx); err != nil {
		e.fail(err)
	}
}

// dive runs the seed dives serially, on the memoized chase-verified
// equivalence (e.seeds is still nil, so nothing is certified), and sets
// e.seeds to the normal forms they reach.
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

// enumerate runs the seed dives, then drives the full parallel
// exploration from the root and assembles the deterministic Result.
func (e *engine) enumerate(ctx context.Context, parallelism int) (*Result, error) {
	e.plantSeeds(ctx)
	rootItem := stateItem{removed: e.none, q: e.root}
	e.claim(rootItem.removed)
	e.queue.push(rootItem)

	workers := make([]*worker, parallelism)
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = &worker{}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			e.run(ctx, w)
		}(workers[i])
	}
	wg.Wait()

	err := e.firstErr()
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		// A hard error must never be masked by a context that was also
		// cancelled before the pool drained.
		return nil, err
	}
	var all []stateItem
	for _, w := range workers {
		all = append(all, w.explored...)
	}
	e.sortStates(all)

	res := &Result{
		States:    len(all),
		Truncated: e.truncated.Load(),
		Seeds:     len(e.seeds),
		Certified: int(e.certified.Load()),
		Chased:    int(e.chased.Load()),
	}
	for _, it := range all {
		res.Explored = append(res.Explored, it.q)
	}
	res.Plans = e.sortedPlans()
	// On cancellation err is its cause: callers can use the partial
	// result.
	return res, err
}

// sortedPlans returns the collected normal forms in canonical order:
// ascending size then renaming-invariant signature (a pure function of
// the plan set, stable across worker interleavings).
func (e *engine) sortedPlans() []*core.Query {
	e.plansMu.Lock()
	defer e.plansMu.Unlock()
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

// parallelismOrDefault resolves Options.Parallelism (0 = all cores).
func (o Options) parallelismOrDefault() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
