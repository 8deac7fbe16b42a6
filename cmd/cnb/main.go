// Command cnb is the chase & backchase optimizer CLI: it parses a source
// file containing schemas, a physical design and queries (see
// internal/parser for the syntax), runs Algorithm 1 on each query, and
// prints the universal plan, the candidate plans and the chosen plan.
// The queries of one file share a service.Service, so a query
// canonically identical to an earlier one is served from its plan table.
//
// Usage:
//
//	cnb [-design NAME] [-all] file.cnb
//	cnb -example        # run the paper's ProjDept example inline
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cnb/internal/parser"
	"cnb/internal/service"
)

const exampleSource = `
schema Logical {
  Proj  : set<{PName: string, CustName: string, PDept: string, Budg: int}>;
  depts : set<{DName: string, DProjs: set<string>, MgrName: string}>;

  constraint RIC1:
    forall (d in depts, s in d.DProjs) exists (p in Proj) s = p.PName;
  constraint RIC2:
    forall (p in Proj) exists (d in depts) p.PDept = d.DName;
  constraint INV1:
    forall (d in depts, s in d.DProjs, p in Proj) s = p.PName -> p.PDept = d.DName;
  constraint INV2:
    forall (p in Proj, d in depts) p.PDept = d.DName -> exists (s in d.DProjs) p.PName = s;
  constraint KEY1:
    forall (a in depts, b in depts) a.DName = b.DName -> a = b;
  constraint KEY2:
    forall (a in Proj, b in Proj) a.PName = b.PName -> a = b;
}

design Phys over Logical {
  store Proj;
  classdict Dept for depts oid Doid;
  primary index I on Proj(PName);
  secondary index SI on Proj(CustName);
  view JI: select struct(DOID: dd, PN: p.PName)
           from dom(Dept) dd, Dept[dd].DProjs s, Proj p
           where s = p.PName;
}

query Q:
  select struct(PN: s, PB: p.Budg, DN: d.DName)
  from depts d, d.DProjs s, Proj p
  where s = p.PName and p.CustName = "CitiBank";
`

func main() {
	var (
		designName = flag.String("design", "", "physical design to optimize against (default: the only one)")
		showAll    = flag.Bool("all", false, "print every candidate plan, not only the best")
		example    = flag.Bool("example", false, "run the built-in ProjDept example")
	)
	flag.Parse()

	var src string
	switch {
	case *example:
		src = exampleSource
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		src = string(data)
	default:
		fatal("usage: cnb [-design NAME] [-all] file.cnb | cnb -example")
	}

	doc, err := parser.Parse(src)
	if err != nil {
		fatal("%v", err)
	}

	target, err := doc.Target(*designName)
	if err != nil {
		fatal("%v", err)
	}
	if d := target.Design; d != nil {
		fmt.Printf("physical design %s: %v\n\n", d.Name, d.Physical.Names())
	}

	// One service across every query in the file: its plan table serves
	// canonically identical queries (e.g. alpha-renamed repeats) without
	// optimizing them again.
	svc := service.New(service.Options{})
	for _, name := range doc.QueryOrder {
		q := doc.Queries[name]
		fmt.Printf("--- query %s ---\n%s\n\n", name, q)
		resp, err := svc.Optimize(context.Background(), service.Request{
			Query:         q,
			Deps:          target.Deps,
			PhysicalNames: target.PhysicalNames,
		})
		if err != nil {
			fatal("optimizing %s: %v", name, err)
		}
		res := resp.Result
		fmt.Printf("universal plan (%d bindings, %d chase steps):\n%s\n\n",
			len(res.Universal.Bindings), len(res.ChaseSteps), res.Universal)
		cached := ""
		if resp.CacheHit {
			cached = " (served from plan cache)"
		}
		fmt.Printf("%d minimal plans, %d backchase states, %d candidates%s\n\n",
			len(res.Minimal), res.States, len(res.Candidates), cached)
		if *showAll {
			for i, c := range res.Candidates {
				fmt.Printf("candidate %d (est. cost %.1f):\n%s\n\n", i+1, c.Cost, c.Query)
			}
		}
		if res.Best != nil {
			fmt.Printf("best plan (est. cost %.1f):\n%s\n\n", res.Best.Cost, res.Best.Query)
		}
		if res.Inconsistent {
			fmt.Println("note: the query is empty on all instances satisfying the constraints")
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
