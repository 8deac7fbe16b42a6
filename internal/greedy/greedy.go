// Package greedy is the instant tier of the two-tier optimizer: a
// statistics-free planner that orders a path-conjunctive query's joins
// directly off its own query graph — no chase, no backchase, no cost
// statistics — and answers in microseconds with a correct, executable
// plan.
//
// The full optimizer (chase to the universal plan, exhaustive
// backchase over the rewrite lattice) finds the cheapest plan the
// physical schema admits, but a cold query shape pays tens to hundreds
// of milliseconds before the first candidate exists. At serving scale
// the cold and long-tail shapes dominate p99, and the paper's
// completeness guarantee says nothing about *when* the cheapest plan
// arrives. This package supplies the other end of the latency/quality
// trade: the query as written IS already a plan (set semantics make any
// scope-valid binding order equivalent), so all that is left for a
// microsecond budget is to pick a good join order from signals visible
// in the pattern itself — which bindings are dependent accesses, which
// conditions compare against constants, how the equality graph connects
// the bindings — and to apply the non-failing-lookup simplification.
// That is the "statistics are unnecessary" observation for
// pattern-shaped queries: connectivity and visible selectivity alone
// recover production-quality join orders without any table statistics
// to go stale.
//
// Ordering discipline (deterministic; ties broken by original binding
// position): repeatedly pick, among the scope-valid remaining bindings,
// the best of
//
//  1. dependent accesses — ranges mentioning an already-bound variable
//     (dictionary lookups, dependent field scans): bounded fanout, never
//     a fresh full scan;
//  2. connected scans — bindings with at least one equality becoming
//     fully bound when they are added (hash-joinable against the bound
//     prefix; a constant equality counts double as visible selectivity);
//  3. anything else (a cross product, deferred as long as possible).
//
// Within a class, more constant equalities win, then more newly
// checkable equalities, then higher static degree in the query graph
// (hub bindings unlock more joins for the remaining steps).
//
// The service layer (internal/service) serves this tier whenever the
// backchase flight has not landed within Options.MaxPlanLatency, and
// upgrades to the backchase plan when the detached flight completes.
package greedy

import (
	"cnb/internal/core"
	"cnb/internal/planrewrite"
)

// Plan returns an executable plan for q in microseconds: q's own
// bindings reordered by Order and the guarded dictionary-domain loops
// rewritten into non-failing lookups (planrewrite.SimplifyLookups). The
// result is semantically identical to q — it is q, modulo binding order
// and the lookup rewrite — so it can be executed directly and checked
// row-identical against any engine's evaluation of q. q itself is not
// mutated.
func Plan(q *core.Query) *core.Query {
	out := q.Clone()
	if ord := Order(q); ord != nil {
		bs := make([]core.Binding, len(ord))
		for k, i := range ord {
			bs[k] = q.Bindings[i]
		}
		out.Bindings = bs
	}
	return planrewrite.SimplifyLookups(out)
}

// Order returns the greedy join order as a permutation of q's binding
// indices: position k of the result names the original binding placed
// k-th. The order is always scope-valid (a range's variables are bound
// before the range runs). It returns nil when no scope-valid order
// exists (cyclic range scoping — impossible for validated queries);
// callers should then keep the original order.
func Order(q *core.Query) []int {
	n := len(q.Bindings)
	if n <= 1 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}

	// Static degree: equalities mentioning the binding's variable plus
	// dependency edges (other ranges mentioning it). A high-degree
	// binding is a hub of the query graph — scheduling it early makes
	// more joins checkable for every later step.
	degree := make([]int, n)
	for i, b := range q.Bindings {
		for _, c := range q.Conds {
			if c.L.Vars()[b.Var] || c.R.Vars()[b.Var] {
				degree[i]++
			}
		}
		for j, other := range q.Bindings {
			if j != i && other.Range.Vars()[b.Var] {
				degree[i]++
			}
		}
	}

	bound := make(map[string]bool, n)
	used := make([]bool, n)
	condUsed := make([]bool, len(q.Conds))
	// Degenerate variable-free conditions (constant = constant) are
	// never "newly checkable" for any binding.
	for ci, c := range q.Conds {
		if len(c.L.Vars()) == 0 && len(c.R.Vars()) == 0 {
			condUsed[ci] = true
		}
	}

	order := make([]int, 0, n)
	for len(order) < n {
		best := -1
		var bestKey [4]int
		for i, b := range q.Bindings {
			if used[i] {
				continue
			}
			ready := true
			dependent := false
			for v := range b.Range.Vars() {
				if !bound[v] {
					ready = false
					break
				}
				dependent = true
			}
			if !ready {
				continue
			}
			newConds, constConds := 0, 0
			for ci, c := range q.Conds {
				if condUsed[ci] || !condMentions(c, b.Var) {
					continue
				}
				if condBound(c, bound, b.Var) {
					newConds++
					if c.L.Kind == core.KConst || c.R.Kind == core.KConst {
						constConds++
					}
				}
			}
			class := 2
			switch {
			case dependent:
				class = 0
			case newConds > 0:
				class = 1
			}
			key := [4]int{class, -constConds, -newConds, -degree[i]}
			if best == -1 || less(key, bestKey) {
				best, bestKey = i, key
			}
		}
		if best == -1 {
			return nil // cyclic scoping; caller keeps the original order
		}
		used[best] = true
		bound[q.Bindings[best].Var] = true
		order = append(order, best)
		// Consume every equality that just became fully bound, so it is
		// not counted as fresh connectivity again.
		for ci, c := range q.Conds {
			if !condUsed[ci] && condBound(c, bound, "") {
				condUsed[ci] = true
			}
		}
	}
	return order
}

// condMentions reports whether either side of the condition mentions the
// variable.
func condMentions(c core.Cond, v string) bool {
	return c.L.Vars()[v] || c.R.Vars()[v]
}

// condBound reports whether every variable of the condition is in bound,
// with extra (when non-empty) treated as bound too.
func condBound(c core.Cond, bound map[string]bool, extra string) bool {
	for v := range c.L.Vars() {
		if !bound[v] && v != extra {
			return false
		}
	}
	for v := range c.R.Vars() {
		if !bound[v] && v != extra {
			return false
		}
	}
	return true
}

// less is lexicographic comparison of score keys; strictly-less keeps
// the ascending-index iteration a stable tie-break.
func less(a, b [4]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
