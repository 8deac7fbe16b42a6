package chase

import (
	"context"
	"fmt"

	"cnb/internal/core"
)

// Options tunes the chase fixpoint.
type Options struct {
	// MaxSteps bounds the number of applied chase steps. The paper shows
	// the chase with full dependencies applies only polynomially many
	// steps; the bound is a safety net for non-full sets. Zero means the
	// default (256).
	MaxSteps int
	// MaxBindings aborts if the chased query grows beyond this many
	// bindings (runaway non-terminating chase). Zero means default (512).
	MaxBindings int
	// Metrics, when non-nil, accumulates work counters (hom tests, chase
	// steps) across runs. Safe to share between concurrent chases; has no
	// effect on results, so it does not participate in cache keys.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 256
	}
	if o.MaxBindings == 0 {
		o.MaxBindings = 512
	}
	return o
}

// Step records one applied chase step for diagnostics.
type Step struct {
	Dep string // dependency name
	Hom Hom    // premise homomorphism it fired under
}

// Result is the outcome of a chase run.
type Result struct {
	Query *core.Query
	Steps []Step
	// Inconsistent is set when an EGD attempted to equate two distinct
	// constants: no database satisfies the dependencies and the query
	// facts simultaneously, so the query is empty on all valid instances.
	Inconsistent bool
	// goalReached is set when a goal-directed run (ContainedInCompiled,
	// ImpliesEquality) stopped because its goal held in Query.
	goalReached bool
}

// ErrBudget is returned when the chase exceeds its step or size budget
// without reaching a fixpoint.
type ErrBudget struct {
	Steps    int
	Bindings int
	// Dep names the dependency that fired the last applied step — for a
	// non-terminating dependency set, the one driving the runaway loop.
	// Empty only if the budget was exhausted before any step applied
	// (MaxBindings smaller than the input query).
	Dep string
}

func (e *ErrBudget) Error() string {
	msg := fmt.Sprintf("chase: budget exhausted after %d steps (%d bindings)", e.Steps, e.Bindings)
	if e.Dep != "" {
		msg += fmt.Sprintf(", last firing dependency %s", e.Dep)
	}
	return msg + "; dependency set may not terminate"
}

// Chase runs the standard chase of q with the dependencies to fixpoint:
// while some dependency has a premise homomorphism into the canonical
// database of the current query that does not extend to its conclusion,
// apply it. Returns the chased query (the universal plan when the
// dependency set captures the physical schema).
//
// EGDs are applied with priority over TGDs (the standard chase
// discipline): deriving equalities first keeps existential conclusions
// satisfiable by existing bindings and so keeps the universal plan small.
//
// The canonical database is grown incrementally: chase steps only add
// bindings and conditions, and the congruence closure is monotone, so it
// is never rebuilt.
//
// The input query is not modified.
//
// Each call builds a fresh dependency index; callers chasing many queries
// against one fixed dependency set (the backchase, the optimizer) should
// build the index once with NewDepIndex and use ChaseIndexed, which also
// takes a context for cancellation.
func Chase(q *core.Query, deps []*core.Dependency, opts Options) (*Result, error) {
	return ChaseIndexed(context.Background(), q, NewDepIndex(deps), opts)
}

// applyStep applies one chase step, returning the extended query. For a
// TGD it adds the conclusion bindings (with fresh variables) and
// conditions; for an EGD it adds the equalities. Constant clashes caused
// by EGDs are detected by the caller on the next iteration's canonical
// database.
func applyStep(q *core.Query, d *core.Dependency, h Hom) *core.Query {
	next := q.Clone()
	if d.IsEGD() {
		for _, c := range d.ConclusionConds {
			next.Conds = append(next.Conds, core.Cond{L: h.Apply(c.L), R: h.Apply(c.R)})
		}
		return next
	}
	// Freshen the conclusion variables against the query's bound vars.
	avoid := q.BoundVars()
	for v := range h {
		avoid[v] = true
	}
	fresh := core.FreshRenaming("", avoid)
	sub := h.Clone()
	for _, b := range d.Conclusion {
		nv := fresh(b.Var)
		next.Bindings = append(next.Bindings, core.Binding{
			Var:   nv,
			Range: b.Range.Subst(sub),
		})
		sub[b.Var] = core.V(nv)
	}
	for _, c := range d.ConclusionConds {
		next.Conds = append(next.Conds, core.Cond{L: c.L.Subst(sub), R: c.R.Subst(sub)})
	}
	return next
}

// ContainedInCompiled decides s ⊑ goal under the indexed dependencies
// (every answer of s is an answer of goal on every instance satisfying
// them) with a goal-directed chase, the goal compiled once (CompileQuery)
// for many tests. It runs the chase of s over ix, on the index's engine,
// but before each step it tests whether goal has a containment mapping
// into the current state with the outputs matched, and answers true at
// the first state that has one. Reaching the fixpoint without a mapping
// answers false; an inconsistent chase (s is empty on every valid
// instance) answers true.
//
// The answer is exact whenever the plain chase of s terminates within the
// budget: a mapping into a chase prefix persists into the fixpoint, where
// the classical containment test looks for it. A mapping found before the
// budget runs out is sound even when the chase would not terminate, so
// only a budget exhausted before the goal maps in is an error
// (*ErrBudget).
//
// The goal test before each step is read-only (see MapsCompiledInto): it
// interns nothing into the chase's closure, and its variables are slots,
// so the goal needs no renaming apart from the variables the chase
// introduces.
func ContainedInCompiled(ctx context.Context, s *core.Query, g *CompiledQuery, ix *DepIndex, opts Options) (bool, error) {
	res, err := chaseIndexed(ctx, s, ix, opts, &goal{q: g})
	if err != nil {
		return false, err
	}
	return res.goalReached || res.Inconsistent, nil
}

// ImpliesEquality reports whether the chase of q under the indexed
// dependencies puts l and r, terms over q's variables, in one congruence
// class. It stops at the first chase state where they are: congruence
// only grows along a chase, so that is the answer the fixpoint gives
// whenever the chase terminates within the budget. An inconsistent
// chase reached before that answers false, and a budget exhausted
// before that is an error (*ErrBudget).
func ImpliesEquality(ctx context.Context, q *core.Query, l, r *core.Term, ix *DepIndex, opts Options) (bool, error) {
	res, err := chaseIndexed(ctx, q, ix, opts, &goal{l: l, r: r})
	if err != nil {
		return false, err
	}
	return res.goalReached, nil
}
