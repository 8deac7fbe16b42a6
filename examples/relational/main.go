// Relational: the two §4 scenarios. First the index-only access path for
// a conjunctive selection over R(A,B,C) with secondary indexes SA and SB;
// then the materialized-view + index navigation join for R⋈S with
// V = π_A(R⋈S), IR and IS.
package main

import (
	"context"
	"fmt"
	"log"

	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

func main() {
	indexOnly()
	viewIndex()
}

func indexOnly() {
	fmt.Println("=== §4.1: index-only access path ===")
	sc, err := workload.NewIndexOnly(5, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query:\n%s\n\n", sc.Q)
	in := sc.Generate(5000, 50, 50, 1)
	res, err := optimizer.Optimize(sc.Q, optimizer.Options{
		Deps:  sc.Deps,
		Stats: cost.FromInstance(in),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best plan (est. cost %.1f):\n%s\n\n", res.Best.Cost, res.Best.Query)
	checkBest(res.Best.Query, sc.Q, in)
	fmt.Println()
}

func viewIndex() {
	fmt.Println("=== §4.2: materialized view + index navigation ===")
	sc, err := workload.NewViewIndex()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query:\n%s\n\n", sc.Q)
	// Selective join: V is much smaller than R and S, so the V+index
	// navigation plan wins, exactly as §4 argues.
	in := sc.Generate(3000, 3000, 8000, 2)
	res, err := optimizer.Optimize(sc.Q, optimizer.Options{
		Deps:  sc.Deps,
		Stats: cost.FromInstance(in),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top candidates:")
	for i, c := range res.Candidates {
		if i >= 5 {
			break
		}
		fmt.Printf("  %d. cost %8.1f  uses %v\n", i+1, c.Cost, c.Query.SortedNames())
	}
	fmt.Printf("\nbest plan (est. cost %.1f):\n%s\n\n", res.Best.Cost, res.Best.Query)
	checkBest(res.Best.Query, sc.Q, in)
}

// checkBest executes the chosen plan and exits non-zero unless its
// result equals the naive evaluation of the logical query.
func checkBest(plan, q *core.Query, in *instance.Instance) {
	got, err := engine.StreamExecute(context.Background(), plan, in, engine.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	want, err := eval.Query(q, in)
	if err != nil {
		log.Fatal(err)
	}
	match := got.Equal(want)
	fmt.Printf("rows: %d; matches naive evaluation: %v\n", got.Len(), match)
	if !match {
		log.Fatal("best plan disagrees with the naive evaluation of the query")
	}
}
