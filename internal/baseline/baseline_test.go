package baseline

import (
	"strings"
	"sync"
	"testing"

	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

// rsViews builds the §4 scenario pieces as relational views:
// V = π_A(R ⋈ S) plus trivial self-views of R and S.
func rsViews() []RelView {
	vDef := &core.Query{
		Out: core.Struct(core.SF("A", core.Prj(core.V("r"), "A"))),
		Bindings: []core.Binding{
			{Var: "r", Range: core.Name("R")},
			{Var: "s", Range: core.Name("S")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("r"), "B"), R: core.Prj(core.V("s"), "B")}},
	}
	rSelf := &core.Query{
		Out: core.Struct(
			core.SF("A", core.Prj(core.V("r"), "A")),
			core.SF("B", core.Prj(core.V("r"), "B")),
		),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
	}
	sSelf := &core.Query{
		Out: core.Struct(
			core.SF("B", core.Prj(core.V("s"), "B")),
			core.SF("C", core.Prj(core.V("s"), "C")),
		),
		Bindings: []core.Binding{{Var: "s", Range: core.Name("S")}},
	}
	return []RelView{
		{Name: "V", Def: vDef},
		{Name: "RV", Def: rSelf},
		{Name: "SV", Def: sSelf},
	}
}

func rsQuery() *core.Query {
	return &core.Query{
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
}

func TestBucketRewriteFindsSelfViewPlan(t *testing.T) {
	plans, err := BucketRewrite(rsQuery(), rsViews(), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("bucket algorithm should find the RV ⋈ SV rewriting")
	}
	// Every plan mentions only view names.
	for _, p := range plans {
		for n := range p.Names() {
			if n != "V" && n != "RV" && n != "SV" {
				t.Errorf("plan mentions non-view name %s:\n%s", n, p)
			}
		}
	}
	// The classic rewriting RV ⋈ SV must be among them.
	found := false
	for _, p := range plans {
		ns := p.Names()
		if ns["RV"] && ns["SV"] && !ns["V"] {
			found = true
		}
	}
	if !found {
		t.Error("RV ⋈ SV rewriting missing")
	}
}

func TestBucketRewriteCannotUseVAlone(t *testing.T) {
	// V projects only A, so no views-only plan through V alone can
	// reconstruct B and C; the bucket algorithm must not emit one.
	plans, err := BucketRewrite(rsQuery(), rsViews(), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		ns := p.Names()
		if ns["V"] && !ns["RV"] && !ns["SV"] {
			t.Errorf("impossible V-only plan emitted:\n%s", p)
		}
	}
}

func TestBucketRewriteNoCoverage(t *testing.T) {
	q := &core.Query{
		Out:      core.Prj(core.V("x"), "A"),
		Bindings: []core.Binding{{Var: "x", Range: core.Name("T")}},
	}
	plans, err := BucketRewrite(q, rsViews(), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plans != nil {
		t.Error("uncovered subgoal must produce no rewritings")
	}
}

func TestBucketRewriteRejectsDictionaries(t *testing.T) {
	q := &core.Query{
		Out:      core.V("k"),
		Bindings: []core.Binding{{Var: "k", Range: core.Dom(core.Name("M"))}},
	}
	if _, err := BucketRewrite(q, nil, chase.Options{}); err == nil {
		t.Error("dictionary query must be rejected")
	}
}

// TestCnBStrictlySubsumesBaseline is the E10 claim: on the §4 scenario the
// chase & backchase emits plans the views-only baseline cannot express
// (the V + IR + IS index navigation), while every baseline rewriting shape
// is also reachable by C&B.
func TestCnBStrictlySubsumesBaseline(t *testing.T) {
	sc, err := workload.NewViewIndex()
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Optimize(sc.Q, optimizer.Options{Deps: sc.Deps})
	if err != nil {
		t.Fatal(err)
	}
	// C&B produces a candidate plan using V together with the indexes —
	// the §4 navigation plan. (It is an explored state, not a minimal
	// plan: V is derivable and therefore always removable.)
	foundViewIndex := false
	for _, c := range res.Candidates {
		ns := c.Query.Names()
		if ns["V"] && (ns["IR"] || ns["IS"]) && !ns["R"] && !ns["S"] {
			foundViewIndex = true
		}
	}
	if !foundViewIndex {
		for _, c := range res.Candidates {
			t.Logf("candidate: %v", c.Query.SortedNames())
		}
		t.Error("C&B should produce the view+index navigation plan of §4")
	}

	// The baseline finds only views-only rewritings; none mention IR/IS.
	views := rsViews()
	plans, err := BucketRewrite(rsQuery(), views, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		ns := p.Names()
		if ns["IR"] || ns["IS"] {
			t.Error("baseline cannot use indexes — test fixture broken")
		}
	}
}

// TestBucketRewriteConcurrent runs BucketRewrite from two goroutines at
// once: each call must find the serial answer, and under -race the
// calls must share no mutable state.
func TestBucketRewriteConcurrent(t *testing.T) {
	serial, err := BucketRewrite(rsQuery(), rsViews(), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := plansKey(serial)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	got := make([]string, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				plans, err := BucketRewrite(rsQuery(), rsViews(), chase.Options{})
				if err != nil {
					errs[g] = err
					return
				}
				if got[g] = plansKey(plans); got[g] != want {
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range errs {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] != want {
			t.Fatalf("goroutine %d: plans\n%s\nwant\n%s", g, got[g], want)
		}
	}
}

// plansKey renders a rewriting list by canonical signature, in order.
func plansKey(plans []*core.Query) string {
	var b strings.Builder
	for _, p := range plans {
		b.WriteString(p.CanonicalSignature())
		b.WriteByte('\n')
	}
	return b.String()
}
