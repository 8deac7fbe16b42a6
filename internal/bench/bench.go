// Package bench is the experiment harness: each Experiment regenerates
// one artifact of the paper (worked example, theorem validation or
// scaling/cost measurement) and renders a table. EXPERIMENTS.md records
// the expected shapes; cmd/chasebench prints them; bench_test.go wraps
// them in testing.B benchmarks.
package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"cnb/internal/backchase"
	"cnb/internal/baseline"
	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/instance"
	"cnb/internal/optimizer"
	"cnb/internal/planrewrite"
	"cnb/internal/workload"
)

// Parallelism is the backchase worker count used by the experiments
// (0 = all cores, 1 = serial). cmd/chasebench sets it from the
// -parallelism flag; the results are identical for every value, only the
// wall-clock changes.
var Parallelism int

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Metrics holds machine-readable headline numbers of the experiment
	// (states explored, speedups, ...), exported by chasebench -json so
	// CI can archive a perf trajectory. Optional.
	Metrics map[string]float64
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "ProjDept plans P1-P4 from the universal plan (§1, Figures 2-3)", E1},
		{"E2", "Chase trace to the universal plan (§3)", E2},
		{"E3", "Tableau minimization as backchase with trivial constraints (§3)", E3},
		{"E4", "Index-only access path (§4, R(A,B,C) with SA, SB)", E4},
		{"E5", "View + index navigation join (§4, R⋈S with V, IR, IS)", E5},
		{"E6", "Universal plan size scaling (Theorem 1)", E6},
		{"E7", "Backchase completeness vs brute force (Theorem 2)", E7},
		{"E8", "Plan execution cost crossover (P2 vs P3 vs P4)", E8},
		{"E9", "Optimization time: chase polynomial, backchase exponential (§5)", E9},
		{"E10", "Plan-space comparison vs views-only baseline (§4, §6)", E10},
		{"E11", "Semantic optimization: constraints enable plans (§2)", E11},
		{"E12", "Parallel backchase: serial vs worker-pool wall clock", E12},
		{"E13", "Certified exhaustive backchase on the star/snowflake family", E13},
		{"E14", "Measured-cost calibration of the estimator (star/snowflake)", E14},
		{"E15", "Incremental chase: hom tests naive vs delta-indexed (star/snowflake)", E15},
		{"E16", "Optimizer-as-a-service: load replay at 1/4/16 workers", E16},
		{"E17", "Serving under order-shuffling alpha-renames (canonicalization gate)", E17},
		{"E18", "Measured execution at data scale: optimized vs baseline plan", E18},
		{"E19", "End-to-end query serving: /query replay against a star instance", E19},
		{"E20", "Two-tier cold serving: greedy instant tier + detached backchase upgrade", E20},
	}
}

// classify buckets a ProjDept plan into the paper's P1..P4 shapes. P1 is
// recognized by its from clause alone (dom(Dept) + dependent DProjs scan +
// Proj scan): intermediate backchase states carry implied conditions that
// mention other structures.
func classify(p *core.Query) string {
	if len(p.Bindings) == 3 {
		var domDept, dprojs, proj bool
		for _, b := range p.Bindings {
			switch {
			case b.Range.Equal(core.Dom(core.Name("Dept"))):
				domDept = true
			case b.Range.Kind == core.KProj && b.Range.Name == "DProjs" &&
				b.Range.Base.Kind == core.KLookup && b.Range.Base.Base.Equal(core.Name("Dept")):
				dprojs = true
			case b.Range.Equal(core.Name("Proj")):
				proj = true
			}
		}
		if domDept && dprojs && proj {
			return "P1"
		}
	}
	ns := p.Names()
	switch {
	case ns["Proj"] && len(ns) == 1:
		return "P2"
	case ns["SI"] && !ns["Proj"] && !ns["JI"] && !ns["I"] && !ns["Dept"]:
		return "P3"
	case ns["JI"] && ns["I"] && ns["Dept"] && !ns["Proj"] && !ns["SI"]:
		return "P4"
	default:
		return "other"
	}
}

// E1 runs the full pipeline on the running example and reports which of
// the paper's plans appear.
func E1() (*Table, error) {
	pd, err := workload.NewProjDept()
	if err != nil {
		return nil, err
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 50, ProjsPerDept: 10, CitiBankShare: 0.05, Seed: 1})
	stats := cost.FromInstance(in)
	res, err := optimizer.Optimize(pd.Q, optimizer.Options{
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
		Stats:         stats,
		Parallelism:   Parallelism,
	})
	if err != nil {
		return nil, err
	}
	tb := &Table{
		ID:      "E1",
		Title:   "ProjDept: universal plan and the paper's plans",
		Columns: []string{"plan", "found as", "bindings", "est. cost", "names"},
	}
	found := map[string]string{}
	costs := map[string]float64{}
	binds := map[string]int{}
	names := map[string]string{}
	for _, c := range res.Candidates {
		cl := classify(c.Query)
		if _, ok := found[cl]; !ok && cl != "other" {
			found[cl] = "candidate"
			costs[cl] = c.Cost
			binds[cl] = len(c.Query.Bindings)
			names[cl] = strings.Join(c.Query.SortedNames(), ",")
		}
	}
	for _, p := range res.Minimal {
		cl := classify(p)
		if cl != "other" && found[cl] == "candidate" {
			found[cl] = "minimal plan"
		}
	}
	for _, p := range res.Explored {
		cl := classify(p)
		if _, ok := found[cl]; !ok && cl != "other" {
			found[cl] = "backchase state"
			binds[cl] = len(p.Bindings)
			names[cl] = strings.Join(p.SortedNames(), ",")
		}
	}
	for _, cl := range []string{"P1", "P2", "P3", "P4"} {
		status := found[cl]
		if status == "" {
			status = "NOT FOUND"
		}
		costStr := "-"
		if c, ok := costs[cl]; ok {
			costStr = fmt.Sprintf("%.0f", c)
		}
		tb.Rows = append(tb.Rows, []string{cl, status, fmt.Sprintf("%d", binds[cl]), costStr, names[cl]})
	}
	tb.Notes = append(tb.Notes,
		fmt.Sprintf("universal plan: %d bindings after %d chase steps; %d minimal plans; %d backchase states; best plan: %s (cost %.0f)",
			len(res.Universal.Bindings), len(res.ChaseSteps), len(res.Minimal), res.States,
			classify(res.Best.Query), res.Best.Cost))
	return tb, nil
}

// E2 reports the chase trace of the running example.
func E2() (*Table, error) {
	pd, err := workload.NewProjDept()
	if err != nil {
		return nil, err
	}
	chased, err := chase.Chase(pd.Q, pd.AllDeps(), chase.Options{})
	if err != nil {
		return nil, err
	}
	tb := &Table{
		ID:      "E2",
		Title:   "Chase steps from Q to the universal plan",
		Columns: []string{"step", "constraint"},
	}
	for i, s := range chased.Steps {
		tb.Rows = append(tb.Rows, []string{fmt.Sprintf("%d", i+1), s.Dep})
	}
	tb.Notes = append(tb.Notes, fmt.Sprintf("universal plan: %d bindings, %d conditions",
		len(chased.Query.Bindings), len(chased.Query.Conds)))
	return tb, nil
}

// E3 validates tableau minimization on redundant self-join chains of
// growing length: a chain of n R-bindings linked head-to-tail always
// minimizes to 2.
func E3() (*Table, error) {
	tb := &Table{
		ID:      "E3",
		Title:   "Tableau minimization (backchase with no constraints)",
		Columns: []string{"chain length", "minimized bindings", "time"},
	}
	for n := 3; n <= 7; n++ {
		q := redundantChain(n)
		start := time.Now()
		min, err := backchase.MinimizeOne(q, nil, backchase.Options{Parallelism: Parallelism})
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", len(min.Bindings)),
			time.Since(start).Round(time.Microsecond).String(),
		})
	}
	return tb, nil
}

// redundantChain generalizes the paper's §3 example
// (select struct(A: p.A, B: r.B) from R p, R q, R r
// where p.B = q.A and q.B = r.B): one genuine join link x1.B = x2.A
// followed by a tail x2.B = x3.B = ... = xn.B. Every tail binding maps to
// x2, so the minimal form always has exactly 2 bindings.
func redundantChain(n int) *core.Query {
	q := &core.Query{
		Out: core.Struct(
			core.SF("A", core.Prj(core.V("x1"), "A")),
			core.SF("B", core.Prj(core.V(fmt.Sprintf("x%d", n)), "B")),
		),
	}
	for i := 1; i <= n; i++ {
		q.Bindings = append(q.Bindings, core.Binding{Var: fmt.Sprintf("x%d", i), Range: core.Name("R")})
	}
	q.Conds = append(q.Conds, core.Cond{
		L: core.Prj(core.V("x1"), "B"),
		R: core.Prj(core.V("x2"), "A"),
	})
	for i := 2; i < n; i++ {
		q.Conds = append(q.Conds, core.Cond{
			L: core.Prj(core.V(fmt.Sprintf("x%d", i)), "B"),
			R: core.Prj(core.V(fmt.Sprintf("x%d", i+1)), "B"),
		})
	}
	return q
}

// E4 reproduces the §4 index-only plan.
func E4() (*Table, error) {
	sc, err := workload.NewIndexOnly(5, 9)
	if err != nil {
		return nil, err
	}
	res, err := optimizer.Optimize(sc.Q, optimizer.Options{Deps: sc.Deps, Parallelism: Parallelism})
	if err != nil {
		return nil, err
	}
	tb := &Table{
		ID:      "E4",
		Title:   "Index-only access path for σ_{A=5,B=9}(R)",
		Columns: []string{"candidate", "uses", "bindings"},
	}
	indexOnly := false
	for i, c := range res.Candidates {
		ns := c.Query.SortedNames()
		uses := strings.Join(ns, ",")
		if !c.Query.Names()["R"] && c.Query.Names()["SA"] && c.Query.Names()["SB"] {
			indexOnly = true
		}
		if i < 6 {
			tb.Rows = append(tb.Rows, []string{fmt.Sprintf("%d", i+1), uses, fmt.Sprintf("%d", len(c.Query.Bindings))})
		}
	}
	tb.Notes = append(tb.Notes, fmt.Sprintf("index-only plan (no R scan) found: %v", indexOnly))
	return tb, nil
}

// E5 reproduces the §4 view + index navigation plan.
func E5() (*Table, error) {
	sc, err := workload.NewViewIndex()
	if err != nil {
		return nil, err
	}
	in := sc.Generate(2000, 2000, 4000, 3) // selective join: V is small
	stats := cost.FromInstance(in)
	res, err := optimizer.Optimize(sc.Q, optimizer.Options{Deps: sc.Deps, Stats: stats, Parallelism: Parallelism})
	if err != nil {
		return nil, err
	}
	tb := &Table{
		ID:      "E5",
		Title:   "R⋈S with materialized V=π_A(R⋈S), indexes IR, IS",
		Columns: []string{"rank", "uses", "est. cost"},
	}
	for i, c := range res.Candidates {
		if i >= 6 {
			break
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", i+1),
			strings.Join(c.Query.SortedNames(), ","),
			fmt.Sprintf("%.0f", c.Cost),
		})
	}
	bestNames := res.Best.Query.Names()
	tb.Notes = append(tb.Notes, fmt.Sprintf(
		"best plan scans V and navigates indexes: %v (V=%v IR=%v IS=%v R=%v S=%v)",
		bestNames["V"] && (bestNames["IR"] || bestNames["IS"]),
		bestNames["V"], bestNames["IR"], bestNames["IS"], bestNames["R"], bestNames["S"]))
	return tb, nil
}

// E6 measures universal-plan size against chain-query length (Theorem 1:
// polynomial).
func E6() (*Table, error) {
	tb := &Table{
		ID:      "E6",
		Title:   "Universal plan size vs query size (chain joins, adjacent-pair views)",
		Columns: []string{"chain n", "views", "Q bindings", "U bindings", "chase steps", "time"},
	}
	for _, n := range []int{2, 4, 6, 8, 10, 12} {
		c, err := workload.NewChain(n, n-1)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		chased, err := chase.Chase(c.Q, c.Deps, chase.Options{MaxSteps: 2048, MaxBindings: 2048})
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", n-1),
			fmt.Sprintf("%d", len(c.Q.Bindings)),
			fmt.Sprintf("%d", len(chased.Query.Bindings)),
			fmt.Sprintf("%d", len(chased.Steps)),
			time.Since(start).Round(time.Microsecond).String(),
		})
	}
	tb.Notes = append(tb.Notes, "U bindings grow linearly (n + views fired once each): polynomial, per Theorem 1")
	return tb, nil
}

// E7 cross-checks the backchase normal forms against brute-force minimal
// subquery enumeration on chain queries with views.
func E7() (*Table, error) {
	tb := &Table{
		ID:      "E7",
		Title:   "Backchase completeness: normal forms vs brute force",
		Columns: []string{"chain n", "views", "backchase plans", "brute-force plans", "agree"},
	}
	for _, n := range []int{2, 3, 4} {
		c, err := workload.NewChain(n, n-1)
		if err != nil {
			return nil, err
		}
		chased, err := chase.Chase(c.Q, c.Deps, chase.Options{})
		if err != nil {
			return nil, err
		}
		enum, err := backchase.Enumerate(chased.Query, c.Deps, backchase.Options{Parallelism: Parallelism})
		if err != nil {
			return nil, err
		}
		bf, err := backchase.BruteForceMinimal(chased.Query, c.Deps, backchase.Options{Parallelism: Parallelism})
		if err != nil {
			return nil, err
		}
		agree := sameSigSets(enum.Plans, normalizeAll(bf, c.Deps))
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", n-1),
			fmt.Sprintf("%d", len(enum.Plans)),
			fmt.Sprintf("%d", len(bf)),
			fmt.Sprintf("%v", agree),
		})
	}
	return tb, nil
}

func normalizeAll(qs []*core.Query, deps []*core.Dependency) []*core.Query {
	out := make([]*core.Query, 0, len(qs))
	seen := map[string]bool{}
	for _, q := range qs {
		n := backchase.Normalize(q, deps, chase.Options{})
		sig := n.CanonicalSignature()
		if !seen[sig] {
			seen[sig] = true
			out = append(out, n)
		}
	}
	return out
}

func sameSigSets(a, b []*core.Query) bool {
	sa := map[string]bool{}
	for _, q := range a {
		sa[q.CanonicalSignature()] = true
	}
	sb := map[string]bool{}
	for _, q := range b {
		sb[q.CanonicalSignature()] = true
	}
	if len(sa) != len(sb) {
		return false
	}
	for s := range sa {
		if !sb[s] {
			return false
		}
	}
	return true
}

// E8 executes the P2/P3/P4 plan shapes on instances of growing size and
// selectivity and reports measured times: the cost crossover that makes
// physical data independence worthwhile.
func E8() (*Table, error) {
	pd, err := workload.NewProjDept()
	if err != nil {
		return nil, err
	}
	v, n, prj, lk, lknf := core.V, core.Name, core.Prj, core.Lk, core.LkNF
	p2 := &core.Query{
		Out: core.Struct(
			core.SF("PN", prj(v("p"), "PName")),
			core.SF("PB", prj(v("p"), "Budg")),
			core.SF("DN", prj(v("p"), "PDept")),
		),
		Bindings: []core.Binding{{Var: "p", Range: n("Proj")}},
		Conds:    []core.Cond{{L: prj(v("p"), "CustName"), R: core.C("CitiBank")}},
	}
	p3 := &core.Query{
		Out:      p2.Out,
		Bindings: []core.Binding{{Var: "p", Range: lknf(n("SI"), core.C("CitiBank"))}},
	}
	p4 := &core.Query{
		Out: core.Struct(
			core.SF("PN", prj(v("j"), "PN")),
			core.SF("PB", prj(lk(n("I"), prj(v("j"), "PN")), "Budg")),
			core.SF("DN", prj(lk(n("Dept"), prj(v("j"), "DOID")), "DName")),
		),
		Bindings: []core.Binding{{Var: "j", Range: n("JI")}},
		Conds: []core.Cond{
			{L: prj(lk(n("I"), prj(v("j"), "PN")), "CustName"), R: core.C("CitiBank")},
		},
	}
	tb := &Table{
		ID:      "E8",
		Title:   "Measured plan execution (engine), |Proj| sweep at two selectivities",
		Columns: []string{"|Proj|", "CitiBank share", "P2 scan", "P3 sec-index", "P4 join-index", "winner"},
	}
	for _, sz := range []int{100, 1000, 5000} {
		for _, share := range []float64{0.001, 0.3} {
			in := pd.Generate(workload.GenOptions{
				NumDepts: sz / 10, ProjsPerDept: 10, CitiBankShare: share, Seed: 7,
			})
			t2 := timePlan(p2, in)
			t3 := timePlan(p3, in)
			t4 := timePlan(p4, in)
			winner := "P2"
			best := t2
			if t3 < best {
				winner, best = "P3", t3
			}
			if t4 < best {
				winner = "P4"
			}
			tb.Rows = append(tb.Rows, []string{
				fmt.Sprintf("%d", sz),
				fmt.Sprintf("%.3f", share),
				t2.Round(time.Microsecond).String(),
				t3.Round(time.Microsecond).String(),
				t4.Round(time.Microsecond).String(),
				winner,
			})
		}
	}
	tb.Notes = append(tb.Notes, "shape: P3 wins at low share (selective), scan competitive at high share; lookups immune to |Proj| growth")
	return tb, nil
}

// timePlan compiles and runs a plan on the streaming engine, returning
// the elapsed wall-clock time (panics on execution errors: E8's plans
// are hand-validated elsewhere in the suite).
func timePlan(q *core.Query, in *instance.Instance) time.Duration {
	start := time.Now()
	if _, err := engine.StreamExecute(context.Background(), q, in, engine.StreamOptions{}); err != nil {
		panic(err)
	}
	return time.Since(start)
}

// E9 measures chase and full-enumeration backchase time against the
// number of redundant bindings.
func E9() (*Table, error) {
	tb := &Table{
		ID:      "E9",
		Title:   "Optimization time scaling (§5 complexity)",
		Columns: []string{"chain n", "chase time", "backchase time", "states"},
	}
	for _, n := range []int{2, 3, 4, 5} {
		c, err := workload.NewChain(n, n-1)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		chased, err := chase.Chase(c.Q, c.Deps, chase.Options{})
		if err != nil {
			return nil, err
		}
		chaseTime := time.Since(t0)
		t1 := time.Now()
		enum, err := backchase.Enumerate(chased.Query, c.Deps, backchase.Options{Parallelism: Parallelism})
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("%d", n),
			chaseTime.Round(time.Microsecond).String(),
			time.Since(t1).Round(time.Microsecond).String(),
			fmt.Sprintf("%d", enum.States),
		})
	}
	tb.Notes = append(tb.Notes, "chase grows polynomially; backchase states grow exponentially with redundancy")
	return tb, nil
}

// E10 compares the C&B plan space against the views-only bucket baseline
// and the heuristic indexer on the §4 scenario.
func E10() (*Table, error) {
	sc, err := workload.NewViewIndex()
	if err != nil {
		return nil, err
	}
	res, err := optimizer.Optimize(sc.Q, optimizer.Options{Deps: sc.Deps, Parallelism: Parallelism})
	if err != nil {
		return nil, err
	}
	cnbIndexPlans := 0
	cnbTotal := len(res.Candidates)
	for _, c := range res.Candidates {
		ns := c.Query.Names()
		if ns["IR"] || ns["IS"] {
			cnbIndexPlans++
		}
	}
	// The baseline: views only.
	views := []baseline.RelView{
		{Name: "V", Def: &core.Query{
			Out: core.Struct(core.SF("A", core.Prj(core.V("r"), "A"))),
			Bindings: []core.Binding{
				{Var: "r", Range: core.Name("R")},
				{Var: "s", Range: core.Name("S")},
			},
			Conds: []core.Cond{{L: core.Prj(core.V("r"), "B"), R: core.Prj(core.V("s"), "B")}},
		}},
		{Name: "RV", Def: &core.Query{
			Out: core.Struct(
				core.SF("A", core.Prj(core.V("r"), "A")),
				core.SF("B", core.Prj(core.V("r"), "B")),
			),
			Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
		}},
		{Name: "SV", Def: &core.Query{
			Out: core.Struct(
				core.SF("B", core.Prj(core.V("s"), "B")),
				core.SF("C", core.Prj(core.V("s"), "C")),
			),
			Bindings: []core.Binding{{Var: "s", Range: core.Name("S")}},
		}},
	}
	q := &core.Query{
		Out: core.Struct(
			core.SF("A", core.Prj(core.V("r"), "A")),
			core.SF("B", core.Prj(core.V("s"), "B")),
			core.SF("C", core.Prj(core.V("s"), "C")),
		),
		Bindings: []core.Binding{
			{Var: "r", Range: core.Name("R")},
			{Var: "s", Range: core.Name("S")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("r"), "B"), R: core.Prj(core.V("s"), "B")}},
	}
	bucket, err := baseline.BucketRewrite(q, views, chase.Options{})
	if err != nil {
		return nil, err
	}
	tb := &Table{
		ID:      "E10",
		Title:   "Plan space: C&B vs views-only bucket baseline (R⋈S scenario)",
		Columns: []string{"approach", "total plans", "index-using plans"},
		Rows: [][]string{
			{"chase & backchase", fmt.Sprintf("%d", cnbTotal), fmt.Sprintf("%d", cnbIndexPlans)},
			{"bucket (views only)", fmt.Sprintf("%d", len(bucket)), "0"},
		},
	}
	tb.Notes = append(tb.Notes, "C&B strictly subsumes the views-only baseline: index plans are inexpressible there")
	return tb, nil
}

// E11 shows semantic optimization: with the inverse-relationship and RIC
// constraints the dependent join is eliminated; without them it is kept.
func E11() (*Table, error) {
	pd, err := workload.NewProjDept()
	if err != nil {
		return nil, err
	}
	q := &core.Query{
		Out: core.Prj(core.V("p"), "PName"),
		Bindings: []core.Binding{
			{Var: "p", Range: core.Name("Proj")},
			{Var: "d", Range: core.Name("depts")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("p"), "PDept"), R: core.Prj(core.V("d"), "DName")}},
	}
	withC, err := backchase.MinimizeOne(q, pd.LogicalDeps, backchase.Options{Parallelism: Parallelism})
	if err != nil {
		return nil, err
	}
	withoutC, err := backchase.MinimizeOne(q, nil, backchase.Options{Parallelism: Parallelism})
	if err != nil {
		return nil, err
	}
	tb := &Table{
		ID:      "E11",
		Title:   "Semantic optimization: RIC eliminates the dependent join",
		Columns: []string{"constraints", "bindings in minimal plan"},
		Rows: [][]string{
			{"Figure-2 constraints", fmt.Sprintf("%d", len(withC.Bindings))},
			{"none", fmt.Sprintf("%d", len(withoutC.Bindings))},
		},
	}
	return tb, nil
}

// E12 measures the parallel backchase against the serial engine on the
// hottest workloads: chain queries with adjacent-pair views (many
// redundant scans, exponential lattice) and the ProjDept running example.
// The plan sets must agree exactly — the parallel engine is the same
// search, just scheduled across workers.
func E12() (*Table, error) {
	tb := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("Parallel backchase (workers=%d) vs serial, same plan sets", runtime.GOMAXPROCS(0)),
		Columns: []string{"workload", "states", "plans", "serial", "parallel", "speedup", "agree"},
	}
	addRow := func(name string, u *core.Query, deps []*core.Dependency) error {
		t0 := time.Now()
		serial, err := backchase.Enumerate(u, deps, backchase.Options{Parallelism: 1})
		if err != nil {
			return err
		}
		serialT := time.Since(t0)
		t1 := time.Now()
		par, err := backchase.Enumerate(u, deps, backchase.Options{})
		if err != nil {
			return err
		}
		parT := time.Since(t1)
		agree := sameSigSets(serial.Plans, par.Plans) && serial.States == par.States
		tb.Rows = append(tb.Rows, []string{
			name,
			fmt.Sprintf("%d", par.States),
			fmt.Sprintf("%d", len(par.Plans)),
			serialT.Round(time.Microsecond).String(),
			parT.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(serialT)/float64(parT)),
			fmt.Sprintf("%v", agree),
		})
		return nil
	}
	for _, n := range []int{4, 5} {
		c, err := workload.NewChain(n, n-1)
		if err != nil {
			return nil, err
		}
		chased, err := chase.Chase(c.Q, c.Deps, chase.Options{})
		if err != nil {
			return nil, err
		}
		if err := addRow(fmt.Sprintf("chain n=%d", n), chased.Query, c.Deps); err != nil {
			return nil, err
		}
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		return nil, err
	}
	chased, err := chase.Chase(pd.Q, pd.AllDeps(), chase.Options{})
	if err != nil {
		return nil, err
	}
	if err := addRow("ProjDept", chased.Query, pd.AllDeps()); err != nil {
		return nil, err
	}
	tb.Notes = append(tb.Notes, "equivalence checks dominate; the worker pool hides their latency while the single-flight cache keeps total chase work identical")
	return tb, nil
}

// e13Workloads returns the star/snowflake scenarios E13 measures,
// paired with instance sizes whose statistics make the scans (fact,
// dimensions, views) dwarf the index-navigation plan that the FK
// constraints enable.
func e13Workloads() []struct {
	Name string
	Cfg  workload.StarConfig
	Gen  workload.StarGenOptions
} {
	gen := workload.StarGenOptions{NumFact: 6000, NumDim: 3000, NumSub: 1000, DomA: 1000, Seed: 1}
	base := workload.StarConfig{
		Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true,
	}
	twoViews := base
	twoViews.Views = 2
	snow := base
	snow.Snowflake = true
	return []struct {
		Name string
		Cfg  workload.StarConfig
		Gen  workload.StarGenOptions
	}{
		{"star d=2 v=1", base, gen},
		{"star d=2 v=2", twoViews, gen},
		{"snowflake d=2 v=1", snow, gen},
	}
}

// e13Cheapest is the cheapest quick-estimated executable cost over
// every explored state and plan of the result — the pool the optimizer
// ranks.
func e13Cheapest(stats *cost.Stats, res *backchase.Result) float64 {
	best := math.Inf(1)
	for _, qs := range [][]*core.Query{res.Plans, res.Explored} {
		for _, p := range qs {
			if c := stats.EstimateQuick(planrewrite.SimplifyLookups(p)); c < best {
				best = c
			}
		}
	}
	return best
}

// E13 runs the exhaustive backchase on the star/snowflake family and
// reports what the search costs: states explored, minimal plans, how
// the candidates' equivalence was proved — by a seed's certificate or
// by a chase — and the cheapest estimated cost in the candidate pool.
func E13() (*Table, error) {
	tb := &Table{
		ID:      "E13",
		Title:   "Certified exhaustive backchase on the star/snowflake family",
		Columns: []string{"workload", "U bindings", "states", "plans", "seeds", "certified", "chased", "time", "best cost"},
		Metrics: map[string]float64{},
	}
	var totalStates, totalBest float64
	var totalT time.Duration
	for _, wl := range e13Workloads() {
		s, err := workload.NewStar(wl.Cfg)
		if err != nil {
			return nil, err
		}
		chased, err := chase.Chase(s.Q, s.Deps, chase.Options{})
		if err != nil {
			return nil, err
		}
		stats := cost.FromInstance(s.Generate(wl.Gen))

		t0 := time.Now()
		ex, err := backchase.Enumerate(chased.Query, s.Deps, backchase.Options{Parallelism: Parallelism})
		if err != nil {
			return nil, err
		}
		exT := time.Since(t0)
		best := e13Cheapest(stats, ex)

		tb.Rows = append(tb.Rows, []string{wl.Name, fmt.Sprintf("%d", len(chased.Query.Bindings)),
			fmt.Sprintf("%d", ex.States), fmt.Sprintf("%d", len(ex.Plans)),
			fmt.Sprintf("%d", ex.Seeds), fmt.Sprintf("%d", ex.Certified), fmt.Sprintf("%d", ex.Chased),
			exT.Round(time.Millisecond).String(), fmt.Sprintf("%.1f", best)})
		totalStates += float64(ex.States)
		totalBest += best
		totalT += exT
	}
	tb.Metrics["exhaustive_states"] = totalStates
	tb.Metrics["cheapest_cost_total"] = totalBest
	tb.Metrics["exhaustive_ms"] = float64(totalT.Milliseconds())
	tb.Notes = append(tb.Notes,
		"best cost = cheapest quick estimate over every explored state and minimal plan, under the workload's instance statistics",
		fmt.Sprintf("totals: %.0f states in %v", totalStates, totalT.Round(time.Millisecond)))
	return tb, nil
}

// e14ExecGen sizes the instance E14 executes plans on: small enough that
// scan-join plans finish in milliseconds, large enough that scan and
// index access paths measure apart.
func e14ExecGen() workload.StarGenOptions {
	return workload.StarGenOptions{NumFact: 400, NumDim: 160, NumSub: 60, DomA: 40, Seed: 2}
}

// E14 calibrates the cost model against measured executions on the E13
// workloads: every minimal plan of the exhaustive search is compiled
// and run on the streaming engine on a generated instance, recording
// measured work (probes + rows) and wall time next to the estimate.
//
// Headline expectation (gated by TestE14Calibration): estimated-cost
// ordering correlates positively with measured cost (Spearman rank
// correlation) on every workload.
func E14() (*Table, error) {
	tb := &Table{
		ID:      "E14",
		Title:   "Measured-cost calibration of the estimator (star/snowflake)",
		Columns: []string{"workload", "states", "plans", "best cost", "executed", "skipped", "spearman", "delivered measured"},
		Metrics: map[string]float64{},
	}
	var totalStates, totalBest, totalSkipped float64
	spearmanMin := math.Inf(1)
	for _, wl := range e13Workloads() {
		s, err := workload.NewStar(wl.Cfg)
		if err != nil {
			return nil, err
		}
		chased, err := chase.Chase(s.Q, s.Deps, chase.Options{})
		if err != nil {
			return nil, err
		}
		ex, err := backchase.Enumerate(chased.Query, s.Deps, backchase.Options{Parallelism: Parallelism})
		if err != nil {
			return nil, err
		}
		best := e13Cheapest(cost.FromInstance(s.Generate(wl.Gen)), ex)

		execIn := s.Generate(e14ExecGen())
		execStats := cost.FromInstance(execIn)
		pts, skipped, err := CalibratePlans(execStats, ex.Plans, execIn)
		if err != nil {
			return nil, err
		}
		rho := SpearmanEstVsMeasured(pts)
		spearmanMin = min(spearmanMin, rho)
		var execWall time.Duration
		for _, p := range pts {
			execWall += p.Wall
		}

		tb.Rows = append(tb.Rows, []string{wl.Name, fmt.Sprintf("%d", ex.States), fmt.Sprintf("%d", len(ex.Plans)),
			fmt.Sprintf("%.1f", best), fmt.Sprintf("%d", len(pts)), fmt.Sprintf("%d", skipped),
			fmt.Sprintf("%.2f", rho), fmt.Sprintf("%.0f", PickedMeasured(pts))})
		tb.Notes = append(tb.Notes, fmt.Sprintf("%s: %d plans executed in %v", wl.Name, len(pts), execWall.Round(time.Microsecond)))
		totalStates += float64(ex.States)
		totalBest += best
		totalSkipped += float64(skipped)
	}
	tb.Metrics["exhaustive_states"] = totalStates
	tb.Metrics["cheapest_cost_total"] = totalBest
	tb.Metrics["spearman_min"] = spearmanMin
	// Candidates CalibratePlans refused to execute (unguarded failing
	// lookups). Gated exactly in benchcheck: executor coverage loss would
	// silently shrink the calibration profile otherwise.
	tb.Metrics["calibration_skipped"] = totalSkipped
	tb.Notes = append(tb.Notes,
		"delivered measured = measured cost of the minimal plan with the lowest estimate (estimate ties resolved to the costliest)")
	return tb, nil
}

// E15 measures the delta-driven incremental chase (PR 4) against the
// naive fixpoint on the E13 star/snowflake workloads: the full pipeline —
// root chase to the universal plan plus every per-state equivalence chase
// of an exhaustive backchase — runs once with each engine, and the chase
// work counters (chase.Metrics) are compared. The two engines produce
// byte-identical chase steps, so states, plans and chase_steps must
// agree exactly; hom_tests is where the dependency index, the per-step
// delta discipline and the rep-seeded homomorphism search pay off
// (>= 2x fewer on every workload, gated by TestE15IncrementalChase and
// the bench-check pipeline via the naive_hom_tests / indexed_hom_tests /
// chase_steps metrics). The backchase certifies most states from its seed
// dives instead of chasing them; the notes give, per workload, the seeds
// and the states certified and chased.
func E15() (*Table, error) {
	tb := &Table{
		ID:      "E15",
		Title:   "Incremental chase: hom tests naive vs delta-indexed (star/snowflake)",
		Columns: []string{"workload", "engine", "chase steps", "hom tests", "dep searches", "states", "plans", "time", "ratio"},
		Metrics: map[string]float64{},
	}
	var totalNaive, totalIndexed, totalSteps float64
	minRatio := math.Inf(1)
	for _, wl := range e13Workloads() {
		s, err := workload.NewStar(wl.Cfg)
		if err != nil {
			return nil, err
		}
		type outcome struct {
			m             *chase.Metrics
			states, plans int
			wall          time.Duration
			enum          *backchase.Result
		}
		runEngine := func(naive bool) (*outcome, error) {
			o := &outcome{m: &chase.Metrics{}}
			copts := chase.Options{Metrics: o.m}
			start := time.Now()
			ix := chase.NewDepIndex(s.Deps)
			if naive {
				ix = chase.NewNaiveIndex(s.Deps)
			}
			chased, err := chase.ChaseIndexed(context.Background(), s.Q, ix, copts)
			if err != nil {
				return nil, err
			}
			enum, err := backchase.Enumerate(chased.Query, s.Deps,
				backchase.Options{Parallelism: Parallelism, Chase: copts, Index: ix})
			if err != nil {
				return nil, err
			}
			o.states, o.plans, o.wall, o.enum = enum.States, len(enum.Plans), time.Since(start), enum
			return o, nil
		}
		naive, err := runEngine(true)
		if err != nil {
			return nil, err
		}
		indexed, err := runEngine(false)
		if err != nil {
			return nil, err
		}
		if naive.states != indexed.states || naive.plans != indexed.plans ||
			naive.m.ChaseSteps.Load() != indexed.m.ChaseSteps.Load() {
			return nil, fmt.Errorf("E15 %s: engines disagree: states %d/%d plans %d/%d steps %d/%d",
				wl.Name, naive.states, indexed.states, naive.plans, indexed.plans,
				naive.m.ChaseSteps.Load(), indexed.m.ChaseSteps.Load())
		}
		ratio := float64(naive.m.HomTests.Load()) / float64(indexed.m.HomTests.Load())
		if ratio < minRatio {
			minRatio = ratio
		}
		row := func(label string, o *outcome, ratioCell string) []string {
			return []string{wl.Name, label,
				fmt.Sprintf("%d", o.m.ChaseSteps.Load()),
				fmt.Sprintf("%d", o.m.HomTests.Load()),
				fmt.Sprintf("%d", o.m.DepSearches.Load()),
				fmt.Sprintf("%d", o.states), fmt.Sprintf("%d", o.plans),
				o.wall.Round(time.Millisecond).String(), ratioCell}
		}
		tb.Rows = append(tb.Rows,
			row("naive", naive, ""),
			row("delta-indexed", indexed, fmt.Sprintf("%.2fx", ratio)))
		tb.Notes = append(tb.Notes, fmt.Sprintf("%s: %d seeds, %d states certified, %d chased",
			wl.Name, indexed.enum.Seeds, indexed.enum.Certified, indexed.enum.Chased))
		totalNaive += float64(naive.m.HomTests.Load())
		totalIndexed += float64(indexed.m.HomTests.Load())
		totalSteps += float64(indexed.m.ChaseSteps.Load())
	}
	tb.Metrics["naive_hom_tests"] = totalNaive
	tb.Metrics["indexed_hom_tests"] = totalIndexed
	tb.Metrics["chase_steps"] = totalSteps
	tb.Metrics["hom_test_ratio"] = totalNaive / totalIndexed
	tb.Notes = append(tb.Notes,
		"both engines produce byte-identical chase steps; only the search work differs",
		fmt.Sprintf("totals: %0.f naive vs %0.f indexed hom tests (%.2fx; min per-workload %.2fx) over %.0f chase steps",
			totalNaive, totalIndexed, totalNaive/totalIndexed, minRatio, totalSteps))
	return tb, nil
}

// RunAll runs every experiment and returns the rendered tables; the first
// error aborts. Used by cmd/chasebench and the final EXPERIMENTS capture.
func RunAll() ([]*Table, error) {
	var out []*Table
	for _, e := range All() {
		t, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}
