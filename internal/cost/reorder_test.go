package cost

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cnb/internal/core"
)

// bruteForceOrder is the reference for reorderExhaustive: it enumerates
// every permutation of the plan's bindings in lexicographic order of
// their plan positions, skips the scope-invalid ones, costs each with
// Estimate and keeps the first strictly cheapest. It returns nil when no
// valid order costs less than +Inf.
func bruteForceOrder(s *Stats, q *core.Query) (*core.Query, float64) {
	n := len(q.Bindings)
	perm := make([]int, n)
	used := make([]bool, n)
	var best *core.Query
	bestCost := math.Inf(1)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == n {
			cand := q.Clone()
			cand.Bindings = make([]core.Binding, n)
			bound := map[string]bool{}
			for i, p := range perm {
				for v := range q.Bindings[p].Range.Vars() {
					if !bound[v] {
						return
					}
				}
				bound[q.Bindings[p].Var] = true
				cand.Bindings[i] = q.Bindings[p]
			}
			if c, _ := s.Estimate(cand); c < bestCost {
				best, bestCost = cand, c
			}
			return
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				used[i] = true
				perm[depth] = i
				rec(depth + 1)
				used[i] = false
			}
		}
	}
	rec(0)
	return best, bestCost
}

// randomReorderPlan builds a plan of 1-6 bindings over scans, dictionary
// domains, lookups keyed by earlier variables and set-valued fields of
// earlier variables, with conditions over 0-3 binding variables. With
// unplaceable set, one range mentions a variable no binding introduces
// or two ranges depend on each other, so no order is scope-valid.
func randomReorderPlan(r *rand.Rand, unplaceable bool) *core.Query {
	n := 1 + r.Intn(6)
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i)
	}
	field := func(v string) *core.Term { return core.Prj(core.V(v), fmt.Sprintf("F%d", r.Intn(3))) }
	q := &core.Query{}
	for i, v := range vars {
		var rng *core.Term
		switch k := r.Intn(5); {
		case i == 0 || k == 0:
			rng = core.Name(fmt.Sprintf("R%d", r.Intn(3)))
		case k == 1:
			rng = core.Dom(core.Name(fmt.Sprintf("M%d", r.Intn(2))))
		case k == 2:
			rng = core.LkNF(core.Name(fmt.Sprintf("M%d", r.Intn(2))), field(vars[r.Intn(i)]))
		case k == 3:
			rng = core.Prj(core.V(vars[r.Intn(i)]), fmt.Sprintf("S%d", r.Intn(2)))
		default:
			rng = core.Lk(core.Name("M0"), core.C(r.Intn(3)))
		}
		q.Bindings = append(q.Bindings, core.Binding{Var: v, Range: rng})
	}
	if unplaceable {
		i := r.Intn(n)
		if n > 1 && r.Intn(2) == 0 {
			// A dependency cycle between two bindings.
			j := (i + 1 + r.Intn(n-1)) % n
			q.Bindings[i].Range = core.Prj(core.V(vars[j]), "S0")
			q.Bindings[j].Range = core.Prj(core.V(vars[i]), "S1")
		} else {
			q.Bindings[i].Range = core.Prj(core.V("free"), "S0")
		}
	}
	// Shuffle so dependent ranges often precede what they depend on.
	r.Shuffle(n, func(i, j int) { q.Bindings[i], q.Bindings[j] = q.Bindings[j], q.Bindings[i] })
	side := func(nvars int) *core.Term {
		switch nvars {
		case 0:
			return core.C(r.Intn(3))
		case 1:
			v := vars[r.Intn(n)]
			if r.Intn(3) == 0 {
				return core.Prj(core.Lk(core.Name("M1"), field(v)), "A")
			}
			if r.Intn(3) == 0 {
				return core.V(v)
			}
			return field(v)
		default:
			return core.Struct(core.SF("A", field(vars[r.Intn(n)])), core.SF("B", field(vars[r.Intn(n)])))
		}
	}
	for c := r.Intn(5); c > 0; c-- {
		total := r.Intn(4) // binding variables over both sides, at most
		l := r.Intn(total + 1)
		q.Conds = append(q.Conds, core.Cond{L: side(min(l, 2)), R: side(min(total-l, 2))})
	}
	q.Out = field(vars[r.Intn(n)])
	return q
}

// randomReorderStats returns statistics with random non-negative values
// for the names randomReorderPlan uses; some names stay unknown, so the
// defaults take part too.
func randomReorderStats(r *rand.Rand) *Stats {
	s := NewStats()
	val := func() float64 { return float64(r.Intn(1000)) / float64(1+r.Intn(10)) }
	for _, name := range []string{"R0", "R1", "R2", "M0", "M1"} {
		if r.Intn(4) > 0 {
			s.Card[name] = val()
		}
	}
	for _, name := range []string{"M0", "M1"} {
		if r.Intn(3) > 0 {
			s.EntryFanout[name] = val() / 10
		}
	}
	for _, f := range []string{"S0", "S1"} {
		if r.Intn(3) > 0 {
			s.FieldFanout[f] = val() / 10
		}
	}
	for _, rel := range []string{"R0", "R1", "R2"} {
		for _, f := range []string{"F0", "F1", "F2"} {
			if r.Intn(3) == 0 {
				s.Distinct[rel+"."+f] = 1 + val()
			}
		}
	}
	s.DefaultSelectivity = r.Float64()
	s.LookupCost = r.Float64() * 3
	// At most two hash-built structures: estimate sums their build costs
	// in map order, which is exact for two addends only.
	if r.Intn(3) == 0 {
		s.HashBuildNames["M0"] = true
	}
	if r.Intn(3) == 0 {
		s.HashBuildNames["R1"] = true
	}
	return s
}

// checkReorder compares reorderExhaustive with the brute-force oracle:
// the same order, and a cost bit-identical to the oracle's.
func checkReorder(t *testing.T, trial int, s *Stats, q *core.Query) (placed bool) {
	t.Helper()
	got := s.reorderExhaustive(q, s.condSelectivities(q))
	want, wantCost := bruteForceOrder(s, q)
	if (got == nil) != (want == nil) {
		t.Fatalf("trial %d: reorderExhaustive = %v, oracle = %v\nplan: %s", trial, got, want, q)
	}
	if got == nil {
		return false
	}
	if got.String() != want.String() {
		t.Fatalf("trial %d: order\n%s\noracle\n%s\nplan: %s", trial, got, want, q)
	}
	if c, _ := s.Estimate(got); math.Float64bits(c) != math.Float64bits(wantCost) {
		t.Fatalf("trial %d: cost %v, oracle %v", trial, c, wantCost)
	}
	// The search's own running cost of the winning order is Estimate's.
	o, _ := s.newOrderSearch(q, s.condSelectivities(q))
	o.search(0, 0, s.hashBuildCost(q), 1)
	if math.Float64bits(o.bestCost) != math.Float64bits(wantCost) {
		t.Fatalf("trial %d: search cost %v, Estimate %v", trial, o.bestCost, wantCost)
	}
	return true
}

// TestReorderExhaustiveMatchesBruteForce: on random plans and random
// non-negative statistics, the branch-and-bound reorder picks exactly
// the order a brute-force enumeration of every permutation keeps, at a
// bit-identical cost; plans with an unplaceable range yield nil from
// both, and Reorder falls back to the greedy order.
func TestReorderExhaustiveMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	placed, unplaced := 0, 0
	for trial := 0; trial < 400; trial++ {
		s := randomReorderStats(r)
		q := randomReorderPlan(r, trial%5 == 4)
		if !searchPrunes(s, q) {
			t.Fatalf("trial %d: non-negative statistics must enable pruning", trial)
		}
		if checkReorder(t, trial, s, q) {
			placed++
			continue
		}
		unplaced++
		if got, want := s.Reorder(q).String(), s.reorderGreedySels(q, s.condSelectivities(q)).String(); len(q.Bindings) > 1 && got != want {
			t.Fatalf("trial %d: Reorder of an unplaceable plan = %s, want the greedy %s", trial, got, want)
		}
	}
	if placed < 200 || unplaced < 50 {
		t.Fatalf("generator covers too little: %d placeable, %d unplaceable plans", placed, unplaced)
	}
}

// TestReorderExhaustiveNegativeStats: a negative count breaks the
// monotonicity pruning relies on, so the search must switch pruning off
// and still agree with the brute-force oracle.
func TestReorderExhaustiveNegativeStats(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		s := randomReorderStats(r)
		s.Card["R0"] = -float64(1 + r.Intn(50))
		if trial%2 == 1 {
			s.FieldFanout["S0"] = -0.5
		}
		q := randomReorderPlan(r, false)
		q.Bindings[0].Range = core.Name("R0")
		if searchPrunes(s, q) {
			t.Fatalf("trial %d: pruning enabled under a negative count", trial)
		}
		checkReorder(t, trial, s, q)
	}
}

// searchPrunes reports whether the branch-and-bound search of q under s
// prunes (true for unplaceable plans, which it never searches).
func searchPrunes(s *Stats, q *core.Query) bool {
	o, ok := s.newOrderSearch(q, s.condSelectivities(q))
	return !ok || o.prune
}

// TestRankMatchesReorderThenEstimate: Rank, which computes each plan's
// selectivities once for its reorder and its estimate, ranks exactly
// like Reorder then Estimate per plan — the same orders, bit-identical
// costs and cards, the same ranked order — and records each candidate's
// pool index.
func TestRankMatchesReorderThenEstimate(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		s := randomReorderStats(r)
		var plans []*core.Query
		for i := 0; i < 6; i++ {
			plans = append(plans, randomReorderPlan(r, trial%5 == 4))
		}
		var want []RankedPlan
		for i, p := range plans {
			q := s.Reorder(p)
			c, card := s.Estimate(q)
			want = append(want, RankedPlan{Query: q, Cost: c, Card: card, Pool: i})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Cost < want[j].Cost })
		got := s.Rank(plans)
		for i := range want {
			g, w := got[i], want[i]
			if g.Query.String() != w.Query.String() || g.Pool != w.Pool ||
				math.Float64bits(g.Cost) != math.Float64bits(w.Cost) || math.Float64bits(g.Card) != math.Float64bits(w.Card) {
				t.Fatalf("trial %d, rank %d: %v %v %v pool %d\nwant %v %v %v pool %d", trial, i, g.Query, g.Cost, g.Card, g.Pool, w.Query, w.Cost, w.Card, w.Pool)
			}
		}
	}
}
