// Quickstart: declare a relational schema with a secondary index, run the
// chase & backchase optimizer on a selection query, and execute the chosen
// plan against in-memory data.
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
	"cnb/internal/physical"
	"cnb/internal/schema"
	"cnb/internal/types"
)

func main() {
	// 1. Logical schema: one relation Users(Name, City, Age).
	logical := schema.New("app")
	logical.MustAddElement("Users", types.SetOf(types.StructOf(
		types.F("Name", types.StringT()),
		types.F("City", types.StringT()),
		types.F("Age", types.Int()),
	)), "users relation")

	// 2. Physical design: Users stored directly plus a secondary index on
	// City. Build() compiles the design into constraints.
	design := physical.NewDesign(logical).
		Add(physical.DirectStorage{Name: "Users"}).
		Add(physical.SecondaryIndex{Name: "ByCity", Relation: "Users", Attribute: "City"})
	phys, deps, _, err := design.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 3. The logical query: names of users in Edinburgh.
	q := &core.Query{
		Out:      core.Prj(core.V("u"), "Name"),
		Bindings: []core.Binding{{Var: "u", Range: core.Name("Users")}},
		Conds:    []core.Cond{{L: core.Prj(core.V("u"), "City"), R: core.C("Edinburgh")}},
	}
	fmt.Println("logical query:")
	fmt.Println(q)

	// 4. Data + statistics.
	users := instance.NewSet()
	byCity := map[string]*instance.Set{}
	for i, u := range []struct {
		name, city string
		age        int64
	}{
		{"ada", "Edinburgh", 36}, {"alan", "London", 41},
		{"grace", "Edinburgh", 40}, {"edsger", "Austin", 70},
	} {
		row := instance.StructOf("Name", instance.Str(u.name),
			"City", instance.Str(u.city), "Age", instance.Int(u.age))
		users.Add(row)
		if byCity[u.city] == nil {
			byCity[u.city] = instance.NewSet()
		}
		byCity[u.city].Add(row)
		_ = i
	}
	cityIdx := instance.NewDict()
	for c, rows := range byCity {
		cityIdx.Put(instance.Str(c), rows)
	}
	in := instance.NewInstance()
	in.Bind("Users", users)
	in.Bind("ByCity", cityIdx)

	// 5. Optimize: chase to the universal plan, backchase to the minimal
	// plans, pick the cheapest.
	res, err := optimizer.Optimize(q, optimizer.Options{
		Deps:          deps,
		PhysicalNames: phys.NameSet(),
		Stats:         cost.FromInstance(in),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nuniversal plan:\n%s\n", res.Universal)
	fmt.Printf("\nbest plan (est. cost %.1f):\n%s\n", res.Best.Cost, res.Best.Query)

	// 6. Execute the chosen plan and check it against the reference
	// evaluation of the logical query.
	out, err := engine.StreamExecute(context.Background(), res.Best.Query, in, engine.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nresult: %s\n", out)
	want, err := eval.Query(q, in)
	if err != nil {
		log.Fatal(err)
	}
	if !out.Equal(want) {
		log.Fatalf("best plan result %s disagrees with the reference evaluation %s", out, want)
	}
}
