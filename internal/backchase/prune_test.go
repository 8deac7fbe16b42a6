package backchase

import (
	"math"
	"math/rand"
	"testing"

	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/planrewrite"
)

// randomStats draws a random but internally consistent statistics catalog
// for the flat R/S/T relations of the differential generator, so the
// pruning bound and priorities vary wildly across cases.
func randomStats(r *rand.Rand) *cost.Stats {
	s := cost.NewStats()
	for _, n := range []string{"R", "S", "T"} {
		card := 1 + r.Intn(10000)
		s.Card[n] = float64(card)
		for _, f := range diffFields {
			s.Distinct[n+"."+f] = float64(1 + r.Intn(card))
		}
	}
	return s
}

// cheapestEncountered reproduces the engine's BestCost metric from the
// outside: the cheapest quick-estimated executable cost over every
// explored state (raw) and registered plan (normalized), together with
// the query achieving it.
func cheapestEncountered(stats *cost.Stats, res *Result) (float64, *core.Query) {
	best := math.Inf(1)
	var bq *core.Query
	consider := func(q *core.Query) {
		c := stats.EstimateQuick(planrewrite.SimplifyLookups(q))
		if c < best {
			best = c
			bq = q
		}
	}
	for _, p := range res.Plans {
		consider(p)
	}
	for _, p := range res.Explored {
		consider(p)
	}
	return best, bq
}

// TestPruningSoundnessRandomized is the cost-bound analogue of the
// Enumerate-vs-brute-force differential suite: on randomized
// query/dependency/statistics triples, best-first search with pruning
// must (a) never claim more states than the exhaustive search, (b) reach
// a cheapest plan at least as cheap as the exhaustive cheapest under the
// engine's own metric, and (c) produce a cheapest plan chase-equivalent
// to the exhaustive cheapest — all across Parallelism 1/2/8, under both
// the dictionary-aware bound (Enumerate) and the scan-only reference
// (EnumerateScanFloor).
func TestPruningSoundnessRandomized(t *testing.T) {
	const cases = 60
	r := rand.New(rand.NewSource(1234))
	for i := 0; i < cases; i++ {
		q := randomQuery(r)
		deps := randomDeps(r)
		stats := randomStats(r)

		ex, err := Enumerate(q, deps, Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("case %d: exhaustive: %v\nquery:\n%s", i, err, q)
		}
		if ex.Truncated {
			t.Fatalf("case %d: unexpected truncation", i)
		}
		exBest, exPlan := cheapestEncountered(stats, ex)

		for _, run := range []struct {
			bound     string
			enumerate func(*core.Query, []*core.Dependency, Options) (*Result, error)
		}{{"tight", Enumerate}, {"scanfloor", EnumerateScanFloor}} {
			for _, par := range []int{1, 2, 8} {
				pr, err := run.enumerate(q, deps, Options{Parallelism: par, Stats: stats})
				if err != nil {
					t.Fatalf("case %d par %d %s: pruned: %v\nquery:\n%s", i, par, run.bound, err, q)
				}
				if pr.Truncated {
					t.Fatalf("case %d par %d %s: unexpected truncation", i, par, run.bound)
				}
				// Explored states are verified-equivalent and reached through
				// verified parents, so they are a subset of the exhaustive
				// reachable set. (States + Pruned can legitimately exceed
				// ex.States: pruning also skips candidates whose equivalence
				// was never verified and which the exhaustive search rejects.)
				if pr.States > ex.States {
					t.Errorf("case %d par %d %s: pruned run explored %d states, exhaustive %d\nquery:\n%s",
						i, par, run.bound, pr.States, ex.States, q)
				}
				prBest, prPlan := cheapestEncountered(stats, pr)
				// Soundness: pruning must never lose the cheapest plan. (It may
				// find a cheaper normalized rendering of a state the exhaustive
				// search left un-normalized, hence <=, not ==.)
				const eps = 1e-6
				if prBest > exBest*(1+eps)+eps {
					t.Errorf("case %d par %d %s: pruned cheapest %.6f worse than exhaustive %.6f\nquery:\n%s",
						i, par, run.bound, prBest, exBest, q)
				}
				// BestCost is the minimum over every achieved cost, including
				// discarded isomorphic plan variants whose quick estimate can
				// undercut the stored rendering's — so it lower-bounds the
				// recomputation but never exceeds it.
				if pr.BestCost > prBest*(1+eps)+eps {
					t.Errorf("case %d par %d %s: Result.BestCost %.6f exceeds recomputed %.6f",
						i, par, run.bound, pr.BestCost, prBest)
				}
				if prPlan == nil || exPlan == nil {
					t.Fatalf("case %d par %d %s: missing cheapest plan (pruned %v exhaustive %v)",
						i, par, run.bound, prPlan != nil, exPlan != nil)
				}
				eq, err := Equivalent(prPlan, exPlan, deps, chase.Options{})
				if err != nil {
					t.Fatalf("case %d par %d %s: equivalence: %v", i, par, run.bound, err)
				}
				if !eq {
					t.Errorf("case %d par %d %s: cheapest plans not chase-equivalent\npruned:\n%s\nexhaustive:\n%s",
						i, par, run.bound, prPlan, exPlan)
				}
			}
		}
	}
}

// TestPrunedSerialDeterminism pins the serial cost-bounded search: with
// one worker the priority queue (ties broken by state key), the bound
// evolution and therefore the whole Result are deterministic across runs.
func TestPrunedSerialDeterminism(t *testing.T) {
	deps := projDeptDeps()
	chased, err := chase.Chase(projDeptQuery(), deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := cost.NewStats()
	stats.Card["Proj"] = 5000
	stats.Card["depts"] = 500
	stats.Card["SI"] = 40
	stats.Card["I"] = 5000
	stats.Card["Dept"] = 500
	stats.Card["JI"] = 5000
	stats.EntryFanout["SI"] = 125
	var ref string
	for run := 0; run < 3; run++ {
		res, err := Enumerate(chased.Query, deps, Options{Parallelism: 1, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		fp := resultFingerprint(res)
		if ref == "" {
			ref = fp
		} else if fp != ref {
			t.Fatalf("run %d: serial pruned result differs\ngot:\n%s\nwant:\n%s", run, fp, ref)
		}
	}
}
