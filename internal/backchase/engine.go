// Parallel memoized backchase engine.
//
// The subquery lattice explored by the backchase is a DAG of states, each
// state a removal set of the root's binding variables (canonicalized by
// stateKey). Exploration order does not affect which states are reachable
// or which of them are normal forms — soundness of a removal is
// "equivalence of the induced subquery to the root", a property of the
// state alone — so the search parallelizes: a pool of workers pops states
// from a shared unbounded work queue, claims successors in a sharded
// visited set, and memoizes the expensive chase-based equivalence checks
// in a sharded single-flight cache so no canonically identical subquery
// is ever re-chased, even when two workers race to the same state.
//
// Determinism: results are reported in a canonical order (plans sorted by
// size then renaming-invariant signature, explored states by removal-set
// key), so for runs that complete without truncation or cancellation the
// Result is identical for every Parallelism value and across repeated
// runs. Under the MaxStates cap or cancellation, *which* states
// get explored depends on scheduling; only then can results differ.
//
// Every equivalence check tests root ⊑ candidate against one frozen
// canonical database of the root, shared by all workers with its target
// index prebuilt: the test is read-only (terms the closure lacks get
// virtual ids instead of being interned), so no check changes what
// another sees and none needs a copy. Candidate construction only reads
// the root's congruence closure, so it shares one frozen closure too.
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
// passes root ⊑ S and keeps a strict superset of some seed T's bindings
// is certified when the identity on T's variables is a containment
// mapping of T into S's unchased canonical database with S's output:
// S ⊑ T needs no dependencies, and the dive proved T ⊑ root, so
// S ≡ root. Only a candidate no seed certifies is chased. The seeds are fixed before
// exploration starts, so whether a state is chased or certified depends
// on the state alone, and chase.Metrics stay identical across every
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
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cnb/internal/chase"
	"cnb/internal/core"
)

const numShards = 32

// stateItem is one unit of work: a claimed state of the subquery lattice.
type stateItem struct {
	key     string          // canonical stateKey of removed
	removed map[string]bool // removed binding variables of the root
	q       *core.Query     // Subquery(root, removed)
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
// states above it: mask holds the root positions of its bindings and q
// is the plan compiled for containment-mapping search.
type seed struct {
	mask uint64
	q    *chase.CompiledQuery
}

// maxSeedBindings bounds the root size seed dives run on: a seed's
// bindings are a bitmask over the root's.
const maxSeedBindings = 64

// subEntry caches a Subquery construction (sub == nil: construction
// failed or cascaded to the empty query).
type subEntry struct {
	sub *core.Query
}

// shard is one stripe of the engine's shared state, guarded by its own
// mutex to keep contention off the hot path.
type shard struct {
	mu   sync.Mutex
	seen map[string]bool
	eq   map[string]*eqEntry
	sub  map[string]*subEntry
}

// engine is the shared state of one parallel backchase run.
type engine struct {
	root      *core.Query
	deps      []*core.Dependency
	depIndex  *chase.DepIndex // premise index shared by every chase of the run
	opts      Options
	rootCanon *chase.Canon         // frozen; read by every equivalence check
	goalC     *chase.CompiledQuery // the goal, compiled once per run
	// subs builds every candidate of the run over one frozen closure of
	// root, which all workers read concurrently, without a copy.
	subs  *SubqueryBuilder
	queue *workQueue

	shards [numShards]shard
	seed   maphash.Seed

	// pos maps each root binding variable to its position in the root.
	pos map[string]int
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
	// The dependency set is fixed for the whole run, so one premise index
	// serves the root chase and every lattice state's equivalence chases
	// (Options.Index lets the optimizer share its own chase phase's index).
	ix := opts.Index
	if ix == nil {
		ix = chase.NewDepIndex(deps)
	}
	res, err := chase.ChaseIndexed(ctx, q, ix, opts.Chase)
	if err != nil {
		return nil, err
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
		rootCanon: ix.NewCanon(res.Query, opts.Chase.Metrics),
		goalC:     chase.CompileQuery(goal),
		subs:      NewSubqueryBuilder(q),
		queue:     newWorkQueue(),
		seed:      maphash.MakeSeed(),
		pos:       make(map[string]int, len(q.Bindings)),
		plans:     map[string]*core.Query{},
	}
	for i, b := range q.Bindings {
		e.pos[b.Var] = i
	}
	e.rootCanon.Freeze()
	for i := range e.shards {
		e.shards[i].seen = map[string]bool{}
		e.shards[i].eq = map[string]*eqEntry{}
		e.shards[i].sub = map[string]*subEntry{}
	}
	return e, nil
}

func (e *engine) shard(key string) *shard {
	return &e.shards[maphash.String(e.seed, key)%numShards]
}

// stateKey canonicalizes a removal set against the root's binding order.
func (e *engine) stateKey(removed map[string]bool) string {
	var sb strings.Builder
	for _, b := range e.root.Bindings {
		if removed[b.Var] {
			sb.WriteString(b.Var)
			sb.WriteByte(';')
		}
	}
	return sb.String()
}

// claim marks the state visited, honoring the MaxStates cap. It returns
// true exactly once per state; the caller then owns enqueueing it. The
// budget slot is reserved with a compare-and-swap so concurrent claims
// on different shards can never overshoot MaxStates.
func (e *engine) claim(key string) bool {
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

// cachedSubquery memoizes Subquery(root, grown) per canonical key, built
// by the run's SubqueryBuilder. Two workers may race to compute the same
// construction; the first stored value wins (both compute identical
// results — Subquery is deterministic).
func (e *engine) cachedSubquery(key string, grown map[string]bool) *core.Query {
	sh := e.shard(key)
	sh.mu.Lock()
	if ent, ok := sh.sub[key]; ok {
		sh.mu.Unlock()
		return ent.sub
	}
	sh.mu.Unlock()
	sub, ok := e.subs.Subquery(grown)
	if !ok {
		sub = nil
	}
	sh.mu.Lock()
	if ent, prev := sh.sub[key]; prev {
		sub = ent.sub
	} else {
		sh.sub[key] = &subEntry{sub: sub}
	}
	sh.mu.Unlock()
	return sub
}

// equivalence memoizes "is Subquery(root, removed-set-of-fullKey)
// equivalent to the root", single-flighted so a canonically identical
// subquery is never re-chased: the first worker to claim the key runs
// the chase-based check, concurrent workers for the same key block until
// it lands. Budget exhaustion before the goal maps into the candidate's
// chase means the removal cannot be verified and is treated as unsound;
// a goal that maps in before the budget runs out is accepted.
func (e *engine) equivalence(ctx context.Context, fullKey string, sub *core.Query) (bool, error) {
	sh := e.shard(fullKey)
	sh.mu.Lock()
	if ent, ok := sh.eq[fullKey]; ok {
		sh.mu.Unlock()
		select {
		case <-ent.done:
			return ent.eq, nil
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
	ent := &eqEntry{done: make(chan struct{})}
	sh.eq[fullKey] = ent
	sh.mu.Unlock()
	defer close(ent.done)

	eq, err := e.equivalentToRoot(ctx, sub)
	if err != nil {
		if _, budget := err.(*chase.ErrBudget); budget {
			return false, nil
		}
		return false, err
	}
	ent.eq = eq
	return eq, nil
}

// equivalentToRoot checks sub ≡ root under the dependencies.
//
// Direction root ⊑ sub: a containment mapping from sub into the frozen
// chase(root), a read-only test every worker runs on the shared canon.
// sub is a subquery of the root, so the identity on its variables is
// tried first; only if it fails does the backtracking search run. The
// search binds sub's variables to slots, not names, so sub needs no
// renaming apart from the root's.
//
// Direction sub ⊑ root: a seed's certificate (see certify) when one
// applies; otherwise the goal (Options.Goal, else the root) maps into a
// goal-directed chase of sub, which stops at the first state the goal
// maps into. Only a budget exhausted before that counts as unsound.
func (e *engine) equivalentToRoot(ctx context.Context, sub *core.Query) (bool, error) {
	cn := e.rootCanon
	subC := chase.CompileQuery(sub)
	id := make(chase.Hom, len(sub.Bindings))
	for _, b := range sub.Bindings {
		id[b.Var] = cn.BindingVar(cn.Q.BindingOf(b.Var))
	}
	if !cn.MapsCompiledInto(subC, cn.Q.Out, id) && !cn.MapsCompiledInto(subC, cn.Q.Out, nil) {
		return false, nil
	}
	if e.certify(sub) {
		e.certified.Add(1)
		return true, nil
	}
	e.chased.Add(1)
	return chase.ContainedInCompiled(ctx, sub, e.goalC, e.depIndex, e.opts.Chase)
}

// certify reports whether some seed whose bindings are a strict subset
// of sub's proves sub ⊑ root: the identity on the seed's variables is a
// containment mapping of the seed into sub's canonical database, built
// once and not chased, with the output matched to sub's. That proves
// sub ⊑ seed without dependencies, and the seed's dive proved
// seed ⊑ root by chase.
func (e *engine) certify(sub *core.Query) bool {
	if len(e.seeds) == 0 {
		return false
	}
	m := e.mask(sub)
	var cn *chase.Canon
	var id chase.Hom
	for _, sd := range e.seeds {
		if sd.mask&^m != 0 || sd.mask == m {
			continue
		}
		if cn == nil {
			cn = e.depIndex.NewCanon(sub, e.opts.Chase.Metrics)
			id = make(chase.Hom, len(sub.Bindings))
			for i, b := range sub.Bindings {
				id[b.Var] = cn.BindingVar(i)
			}
		}
		if cn.MapsCompiledInto(sd.q, sub.Out, id) {
			return true
		}
	}
	return false
}

// mask returns the root positions of q's bindings as a bitmask; q is a
// subquery of a root of at most maxSeedBindings bindings.
func (e *engine) mask(q *core.Query) uint64 {
	var m uint64
	for _, b := range q.Bindings {
		m |= 1 << e.pos[b.Var]
	}
	return m
}

// buildCandidate constructs the candidate state for removing the named
// binding on top of the already-removed set, cascading to dependent
// bindings that cannot be re-expressed. Returns the grown (canonicalized)
// removal set, its state key and the subquery, or nils if the
// construction is impossible. No equivalence check happens here.
func (e *engine) buildCandidate(removed map[string]bool, v string) (map[string]bool, string, *core.Query) {
	grown := make(map[string]bool, len(removed)+1)
	for r := range removed {
		grown[r] = true
	}
	grown[v] = true
	return e.buildState(grown)
}

// buildState constructs the state for removing the given set, as
// buildCandidate does for one more removal.
func (e *engine) buildState(grown map[string]bool) (map[string]bool, string, *core.Query) {
	sub := e.cachedSubquery(e.stateKey(grown), grown)
	if sub == nil || len(sub.Bindings) == 0 {
		return nil, "", nil
	}
	// The cascade may have removed more variables; canonicalize the set.
	surviving := sub.BoundVars()
	full := map[string]bool{}
	for _, b := range e.root.Bindings {
		if !surviving[b.Var] {
			full[b.Var] = true
		}
	}
	return full, e.stateKey(full), sub
}

// tryRemove attempts a backchase step eliminating the named binding:
// buildCandidate plus the chase-based equivalence check. Returns the
// grown removal set and the resulting subquery, or nils if the step is
// unsound or impossible.
func (e *engine) tryRemove(ctx context.Context, removed map[string]bool, v string) (map[string]bool, *core.Query, error) {
	full, fullKey, sub := e.buildCandidate(removed, v)
	if sub == nil {
		return nil, nil, nil
	}
	eq, err := e.equivalence(ctx, fullKey, sub)
	if err != nil || !eq {
		return nil, nil, err
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
		full, fullKey, sub := e.buildCandidate(it.removed, b.Var)
		if sub == nil {
			continue
		}
		eq, err := e.equivalence(ctx, fullKey, sub)
		if err != nil {
			return err
		}
		if !eq {
			continue
		}
		normal = false
		if e.claim(fullKey) {
			e.queue.push(stateItem{key: fullKey, removed: full, q: sub})
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
	if n > maxSeedBindings {
		return nil
	}
	var seeds []seed
	x := map[string]bool{}
	for k := 0; k < n; k++ {
		removed, cur := map[string]bool{}, e.root
		if k > 0 {
			full, key, sub := e.buildState(x)
			if sub == nil {
				break
			}
			eq, err := e.equivalence(ctx, key, sub)
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
			next, nextQ, err := e.firstRemoval(ctx, 1, removed, cur)
			if err != nil {
				return err
			}
			if next == nil {
				break
			}
			removed, cur = next, nextQ
		}
		m := e.mask(cur)
		seeds = append(seeds, seed{mask: m, q: chase.CompileQuery(cur)})
		x[e.root.Bindings[bits.TrailingZeros64(m)].Var] = true
	}
	e.seeds = seeds
	return nil
}

// enumerate runs the seed dives, then drives the full parallel
// exploration from the root and assembles the deterministic Result.
func (e *engine) enumerate(ctx context.Context, parallelism int) (*Result, error) {
	e.plantSeeds(ctx)
	rootItem := stateItem{key: "", removed: map[string]bool{}, q: e.root}
	e.claim(rootItem.key)
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

	var all []stateItem
	for _, w := range workers {
		all = append(all, w.explored...)
	}
	sortStates(all)

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

	err := e.firstErr()
	switch {
	case err == nil:
		return res, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Cancellation: hand back what was completed along with the
		// cause, so callers can use the partial result.
		return res, err
	default:
		// A hard error must never be masked by a context that was also
		// cancelled before the pool drained.
		return nil, err
	}
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
// first (the root leads), then by removal-set key.
func sortStates(items []stateItem) {
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		ra, rb := strings.Count(a.key, ";"), strings.Count(b.key, ";")
		if ra != rb {
			return ra < rb
		}
		return a.key < b.key
	})
}

// firstRemoval finds the first (in binding order) sound removal from the
// current state. With one worker it short-circuits sequentially like the
// serial engine; with more it evaluates all candidates concurrently and
// keeps the lowest index that succeeds — the same removal either way, so
// MinimizeOne stays deterministic.
func (e *engine) firstRemoval(ctx context.Context, parallelism int, removed map[string]bool, cur *core.Query) (map[string]bool, *core.Query, error) {
	if parallelism <= 1 || len(cur.Bindings) == 1 {
		for _, b := range cur.Bindings {
			next, nextQ, err := e.tryRemove(ctx, removed, b.Var)
			if err != nil {
				return nil, nil, err
			}
			if next != nil {
				return next, nextQ, nil
			}
		}
		return nil, nil, nil
	}

	type outcome struct {
		next map[string]bool
		q    *core.Query
		err  error
	}
	results := make([]outcome, len(cur.Bindings))
	var idx atomic.Int64
	// best tracks the lowest index with a sound removal so far: workers
	// skip candidates that can no longer win, keeping the total chase
	// work close to the serial short-circuit (skipped high-index results
	// would be useless next round anyway — the removal set changes).
	var best atomic.Int64
	best.Store(int64(len(cur.Bindings)))
	var wg sync.WaitGroup
	n := parallelism
	if n > len(cur.Bindings) {
		n = len(cur.Bindings)
	}
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= len(cur.Bindings) {
					return
				}
				if int64(i) > best.Load() {
					continue
				}
				next, q, err := e.tryRemove(ctx, removed, cur.Bindings[i].Var)
				results[i] = outcome{next, q, err}
				if err == nil && next != nil {
					for {
						b := best.Load()
						if int64(i) >= b || best.CompareAndSwap(b, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	// Scan in binding order: at the first index with an outcome (success
	// or error), behave exactly like the serial loop would have there.
	// Unevaluated slots above a success are zero-valued and ignored.
	for _, r := range results {
		if r.err != nil {
			return nil, nil, r.err
		}
		if r.next != nil {
			return r.next, r.q, nil
		}
	}
	return nil, nil, nil
}

// parallelismOrDefault resolves Options.Parallelism (0 = all cores).
func (o Options) parallelismOrDefault() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
