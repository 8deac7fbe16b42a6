// Package cnb_test holds the benchmark harness: one testing.B benchmark
// per experiment of EXPERIMENTS.md (regenerating the paper's artifacts)
// plus micro-benchmarks of the individual pipeline phases and of plan
// execution. Run with:
//
//	go test -bench=. -benchmem
package cnb_test

import (
	"context"
	"testing"

	"cnb/internal/backchase"
	"cnb/internal/bench"
	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/optimizer"
	"cnb/internal/parser"
	"cnb/internal/service"
	"cnb/internal/workload"
)

// --- experiment benchmarks (E1..E11) -------------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var run func() (*bench.Table, error)
	for _, e := range bench.All() {
		if e.ID == id {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1UniversalPlan(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2Chase(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3Minimize(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4IndexOnly(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5ViewIndex(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6ChaseScaling(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7Backchase(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8PlanExecution(b *testing.B) { benchExperiment(b, "E8") }
func BenchmarkE9OptTime(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Gmap(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11Semantic(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE13Certified(b *testing.B)    { benchExperiment(b, "E13") }
func BenchmarkE15IncChase(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16ServeLoad(b *testing.B)    { benchExperiment(b, "E16") }

// BenchmarkServiceWarmOptimize measures the serving hot path: an
// Optimize request answered from the plan table (flight key — canonical
// query signature plus the dependency and physical-name rendering — and
// a sharded lookup; no chase, no backchase, no ranking), the
// per-request planning cost every client after a shape's first pays.
func BenchmarkServiceWarmOptimize(b *testing.B) {
	pd := projDept(b)
	svc := service.New(service.Options{MinimalOnly: true})
	req := service.Request{Query: pd.Q, Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}
	if _, err := svc.Optimize(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Optimize(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.CacheHit {
			b.Fatal("warm request missed the plan cache")
		}
	}
}

// --- pipeline phase micro-benchmarks --------------------------------------

func projDept(b *testing.B) *workload.ProjDept {
	b.Helper()
	pd, err := workload.NewProjDept()
	if err != nil {
		b.Fatal(err)
	}
	return pd
}

// BenchmarkChaseProjDept measures phase 1 alone on the running example.
func BenchmarkChaseProjDept(b *testing.B) {
	pd := projDept(b)
	deps := pd.AllDeps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chase.Chase(pd.Q, deps, chase.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChaseNaiveVsIncremental compares the textbook fixpoint with
// the delta-driven engine on the snowflake chase — the inner loop the
// PR 4 refactor targets. Results are byte-identical; only work differs.
func BenchmarkChaseNaiveVsIncremental(b *testing.B) {
	s, err := workload.NewStar(workload.StarConfig{
		Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true, Snowflake: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name     string
		newIndex func([]*core.Dependency) *chase.DepIndex
	}{{"naive", chase.NewNaiveIndex}, {"incremental", chase.NewDepIndex}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix := mode.newIndex(s.Deps)
				if _, err := chase.ChaseIndexed(context.Background(), s.Q, ix, chase.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackchaseProjDept measures phase 2 (full enumeration) alone.
func BenchmarkBackchaseProjDept(b *testing.B) {
	pd := projDept(b)
	deps := pd.AllDeps()
	chased, err := chase.Chase(pd.Q, deps, chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backchase.Enumerate(chased.Query, deps, backchase.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeProjDept measures Algorithm 1 end to end.
func BenchmarkOptimizeProjDept(b *testing.B) {
	pd := projDept(b)
	opts := optimizer.Options{Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.Optimize(pd.Q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// projDeptPool returns the pool one ProjDept Optimize hands phase 3: its
// minimal plans and explored states over physical names, in pool order.
func projDeptPool(b *testing.B) []*core.Query {
	pd := projDept(b)
	phys := pd.Physical.NameSet()
	res, err := optimizer.Optimize(pd.Q, optimizer.Options{Deps: pd.AllDeps(), PhysicalNames: phys})
	if err != nil {
		b.Fatal(err)
	}
	var pool []*core.Query
	for _, p := range append(append([]*core.Query(nil), res.Minimal...), res.Explored...) {
		physical := true
		for n := range p.Names() {
			physical = physical && phys[n]
		}
		if physical {
			pool = append(pool, p)
		}
	}
	return pool
}

// BenchmarkPoolDedupProjDept measures phase 3's per-plan half alone:
// optimizer.ExecutablePool over ProjDept's pool — lookup simplification
// of its 111 plans plus their shape-key deduplication.
func BenchmarkPoolDedupProjDept(b *testing.B) {
	pool := projDeptPool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimizer.ExecutablePool(pool)
	}
}

// BenchmarkSubqueryProjDept measures candidate construction alone: every
// induced subquery one ProjDept backchase run builds — one per nonempty
// removal set of the universal plan's 8 bindings, 255 in all — through
// one SubqueryBuilder, as the engine does.
func BenchmarkSubqueryProjDept(b *testing.B) {
	pd := projDept(b)
	chased, err := chase.Chase(pd.Q, pd.AllDeps(), chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	u := chased.Query
	var removals []map[string]bool
	for mask := 1; mask < 1<<len(u.Bindings); mask++ {
		removed := map[string]bool{}
		for i, bd := range u.Bindings {
			if mask&(1<<i) != 0 {
				removed[bd.Var] = true
			}
		}
		removals = append(removals, removed)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb := backchase.NewSubqueryBuilder(u)
		for _, removed := range removals {
			sb.Subquery(removed)
		}
	}
}

// BenchmarkContainedInProjDept measures the backchase's goal-directed
// containment test alone: one dependency index, then chase.ContainedIn
// of every one of the 255 candidates a SubqueryBuilder builds from the
// ProjDept universal plan against the query itself.
func BenchmarkContainedInProjDept(b *testing.B) {
	pd := projDept(b)
	deps := pd.AllDeps()
	chased, err := chase.Chase(pd.Q, deps, chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	u := chased.Query
	sb := backchase.NewSubqueryBuilder(u)
	var subs []*core.Query
	for mask := 1; mask < 1<<len(u.Bindings); mask++ {
		removed := map[string]bool{}
		for i, bd := range u.Bindings {
			if mask&(1<<i) != 0 {
				removed[bd.Var] = true
			}
		}
		if sub, ok := sb.Subquery(removed); ok && len(sub.Bindings) > 0 {
			subs = append(subs, sub)
		}
	}
	ix := chase.NewDepIndex(deps)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sub := range subs {
			if _, err := chase.ContainedIn(ctx, sub, pd.Q, ix, chase.Options{}); err != nil {
				if _, budget := err.(*chase.ErrBudget); !budget {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkRankProjDept measures phase 3 alone: reorder and cost the
// executable candidate pool of one cold ProjDept Optimize under the
// default statistics, as Optimize does.
func BenchmarkRankProjDept(b *testing.B) {
	pd := projDept(b)
	res, err := optimizer.Optimize(pd.Q, optimizer.Options{Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()})
	if err != nil {
		b.Fatal(err)
	}
	st := cost.NewStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Rank(res.Executable)
	}
}

// BenchmarkQueryScan100k measures one warm service.Query of the
// non-selective Proj ⋈ depts join over 10^5 Proj rows (20 000 depts ×
// 5): a plan-table hit whose delivered plan, after RIC2 and KEY1 remove
// depts, is a single scan of Proj. Execution, the result set and the
// default 1000-row cap (capRows) do the work — the in-process half of
// the cnbd scan_exec workload.
func BenchmarkQueryScan100k(b *testing.B) {
	pd := projDept(b)
	in := pd.Generate(workload.GenOptions{NumDepts: 20000, ProjsPerDept: 5, NumCustomers: 5, CitiBankShare: 0.3, Seed: 1})
	svc := service.New(service.Options{})
	if _, err := svc.InstallInstance("pd", in); err != nil {
		b.Fatal(err)
	}
	v, prj := core.V, core.Prj
	q := &core.Query{
		Out: core.Struct(
			core.SF("PN", prj(v("p"), "PName")),
			core.SF("PB", prj(v("p"), "Budg")),
			core.SF("DN", prj(v("d"), "DName")),
		),
		Bindings: []core.Binding{
			{Var: "p", Range: core.Name("Proj")},
			{Var: "d", Range: core.Name("depts")},
		},
		Conds: []core.Cond{{L: prj(v("p"), "PDept"), R: prj(v("d"), "DName")}},
	}
	req := service.QueryRequest{
		Request:  service.Request{Query: q, Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()},
		Instance: "pd",
	}
	ctx := context.Background()
	if _, err := svc.Query(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		qr, err := svc.Query(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !qr.Optimize.CacheHit || qr.ResultRows != 100000 || len(qr.Rows) != service.DefaultMaxResultRows {
			b.Fatalf("cache hit %v, %d rows (%d returned)", qr.Optimize.CacheHit, qr.ResultRows, len(qr.Rows))
		}
	}
}

// BenchmarkMinimizeGreedy measures the greedy single-plan backchase.
func BenchmarkMinimizeGreedy(b *testing.B) {
	pd := projDept(b)
	deps := pd.AllDeps()
	chased, err := chase.Chase(pd.Q, deps, chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backchase.MinimizeOne(chased.Query, deps, backchase.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- plan execution benchmarks (the physical premise) ---------------------

func projDeptPlans() (p2, p3, p4 *core.Query) {
	v, n, prj, lk, lknf := core.V, core.Name, core.Prj, core.Lk, core.LkNF
	out := core.Struct(
		core.SF("PN", prj(v("p"), "PName")),
		core.SF("PB", prj(v("p"), "Budg")),
		core.SF("DN", prj(v("p"), "PDept")),
	)
	p2 = &core.Query{
		Out:      out,
		Bindings: []core.Binding{{Var: "p", Range: n("Proj")}},
		Conds:    []core.Cond{{L: prj(v("p"), "CustName"), R: core.C("CitiBank")}},
	}
	p3 = &core.Query{
		Out:      out,
		Bindings: []core.Binding{{Var: "p", Range: lknf(n("SI"), core.C("CitiBank"))}},
	}
	p4 = &core.Query{
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
	return p2, p3, p4
}

func benchPlan(b *testing.B, q *core.Query, in *instance.Instance) {
	b.Helper()
	plan, err := engine.CompileStream(q, in, engine.StreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func genSelective(b *testing.B) *instance.Instance {
	b.Helper()
	pd := projDept(b)
	return pd.Generate(workload.GenOptions{
		NumDepts: 500, ProjsPerDept: 10, CitiBankShare: 0.002, Seed: 3,
	})
}

// At 0.2% selectivity over 5000 projects, the scan (P2) pays for the whole
// relation while the index plans (P3, P4) touch only matches: the paper's
// physical premise, measured.
func BenchmarkExecP2ScanSelective(b *testing.B) {
	p2, _, _ := projDeptPlans()
	benchPlan(b, p2, genSelective(b))
}

func BenchmarkExecP3IndexSelective(b *testing.B) {
	_, p3, _ := projDeptPlans()
	benchPlan(b, p3, genSelective(b))
}

func BenchmarkExecP4JoinIndexSelective(b *testing.B) {
	_, _, p4 := projDeptPlans()
	benchPlan(b, p4, genSelective(b))
}

// --- reference evaluator vs engine ----------------------------------------

func BenchmarkEvalNaiveQ(b *testing.B) {
	pd := projDept(b)
	in := pd.Generate(workload.GenOptions{NumDepts: 20, ProjsPerDept: 5, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.QueryEager(pd.Q, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineQ(b *testing.B) {
	pd := projDept(b)
	in := pd.Generate(workload.GenOptions{NumDepts: 20, ProjsPerDept: 5, Seed: 1})
	benchPlan(b, pd.Q, in)
}

// --- cost model -----------------------------------------------------------

func BenchmarkCostEstimate(b *testing.B) {
	pd := projDept(b)
	in := pd.Generate(workload.GenOptions{Seed: 1})
	stats := cost.FromInstance(in)
	p2, p3, p4 := projDeptPlans()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Estimate(p2)
		stats.Estimate(p3)
		stats.Estimate(p4)
	}
}

// --- parser -----------------------------------------------------------------

// projDeptDesign is the paper's ProjDept document without its query, as
// a cnbd client sends it: the logical schema with its constraints and
// the physical design of Figure 3.
const projDeptDesign = `schema Logical {
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
`

// BenchmarkParseProjDept measures a cold parse of the whole ProjDept
// document: lexing, the schema and design statements (type checks and
// the design's compilation into dependencies) and the §1 query.
func BenchmarkParseProjDept(b *testing.B) {
	src := projDeptDesign + `
query Q:
  select struct(PN: s, PB: p.Budg, DN: d.DName)
  from depts d, d.DProjs s, Proj p
  where s = p.PName and p.CustName = "CitiBank";
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseCachedProjDept measures what cnbd pays per request for a
// design it has seen: the ProjDept document with an alpha-renamed §1
// query, parsed through a DesignCache that holds the design, so only
// the query is lexed, parsed and type-checked.
func BenchmarkParseCachedProjDept(b *testing.B) {
	c := parser.NewDesignCache()
	if _, err := c.Parse(projDeptDesign + "\nquery Q: select struct(PN: s) from Proj p, depts d, d.DProjs s where s = p.PName;\n"); err != nil {
		b.Fatal(err)
	}
	src := projDeptDesign + `
query Q:
  select struct(PN: v2, PB: v3.Budg, DN: v1.DName)
  from depts v1, Proj v3, v1.DProjs v2
  where v3.CustName = "CitiBank" and v3.PName = v2;
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc, err := c.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if len(doc.Queries) != 1 {
			b.Fatal("query missing")
		}
	}
}
