// ProjDept: the paper's running example end to end (§1–§3). Prints the
// logical query Q, the chase trace, the universal plan, every minimal
// plan classified against the paper's P1–P4, and executes the best plan
// on generated data, verifying it against the reference evaluation of Q.
package main

import (
	"context"
	"fmt"
	"log"

	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

func main() {
	pd, err := workload.NewProjDept()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== logical schema (Figure 2) ===")
	fmt.Println(pd.Logical)
	fmt.Println("\n=== physical schema (Figure 3) ===")
	fmt.Println(pd.Physical)
	fmt.Println("\n=== query Q ===")
	fmt.Println(pd.Q)

	in := pd.Generate(workload.GenOptions{
		NumDepts: 100, ProjsPerDept: 10, CitiBankShare: 0.02, Seed: 42,
	})
	res, err := optimizer.Optimize(pd.Q, optimizer.Options{
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
		Stats:         cost.FromInstance(in),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== chase trace (phase 1) ===")
	for i, s := range res.ChaseSteps {
		fmt.Printf("%2d. %s\n", i+1, s.Dep)
	}
	fmt.Println("\n=== universal plan ===")
	fmt.Println(res.Universal)

	fmt.Printf("\n=== %d minimal plans (phase 2; %d states explored) ===\n",
		len(res.Minimal), res.States)
	for i, p := range res.Minimal {
		fmt.Printf("\nplan %d:\n%s\n", i+1, p)
	}

	fmt.Printf("\n=== best plan (est. cost %.1f) ===\n", res.Best.Cost)
	fmt.Println(res.Best.Query)

	got, err := engine.StreamExecute(context.Background(), res.Best.Query, in, engine.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	want, err := eval.Query(pd.Q, in)
	if err != nil {
		log.Fatal(err)
	}
	match := got.Equal(want)
	fmt.Printf("\nexecuted best plan: %d rows; matches Q: %v\n", got.Len(), match)
	if !match {
		log.Fatal("best plan disagrees with the reference evaluation of Q")
	}
}
