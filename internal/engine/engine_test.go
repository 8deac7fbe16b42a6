package engine

import (
	"context"
	"strings"
	"testing"

	"cnb/internal/core"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/workload"
)

// checkAgainstEval runs q on every stream variant and requires exactly
// the reference evaluator's result set.
func checkAgainstEval(t *testing.T, q *core.Query, in *instance.Instance) {
	t.Helper()
	want, err := eval.Query(q, in)
	if err != nil {
		t.Fatalf("eval: %v\n%s", err, q)
	}
	for vi, opts := range streamVariants() {
		got, err := StreamExecute(context.Background(), q, in, opts)
		if err != nil {
			t.Fatalf("variant %d: %v\n%s", vi, err, q)
		}
		if !got.Equal(want) {
			t.Fatalf("variant %d: stream %s != eval %s\n%s", vi, got, want, q)
		}
	}
}

func TestExecuteMatchesEvalOnProjDept(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 8, ProjsPerDept: 4, CitiBankShare: 0.3, Seed: 9})

	queries := []*core.Query{pd.Q}
	// P2 and P3 shapes.
	queries = append(queries, &core.Query{
		Out: core.Struct(
			core.SF("PN", core.Prj(core.V("p"), "PName")),
			core.SF("PB", core.Prj(core.V("p"), "Budg")),
			core.SF("DN", core.Prj(core.V("p"), "PDept")),
		),
		Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conds:    []core.Cond{{L: core.Prj(core.V("p"), "CustName"), R: core.C("CitiBank")}},
	}, &core.Query{
		Out: core.Struct(
			core.SF("PN", core.Prj(core.V("p"), "PName")),
			core.SF("PB", core.Prj(core.V("p"), "Budg")),
			core.SF("DN", core.Prj(core.V("p"), "PDept")),
		),
		Bindings: []core.Binding{{Var: "p", Range: core.LkNF(core.Name("SI"), core.C("CitiBank"))}},
	})
	for _, q := range queries {
		checkAgainstEval(t, q, in)
	}
}

func TestExecuteP4JoinIndexPlan(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 5, ProjsPerDept: 3, CitiBankShare: 0.4, Seed: 4})
	p4 := &core.Query{
		Out: core.Struct(
			core.SF("PN", core.Prj(core.V("j"), "PN")),
			core.SF("PB", core.Prj(core.Lk(core.Name("I"), core.Prj(core.V("j"), "PN")), "Budg")),
			core.SF("DN", core.Prj(core.Lk(core.Name("Dept"), core.Prj(core.V("j"), "DOID")), "DName")),
		),
		Bindings: []core.Binding{{Var: "j", Range: core.Name("JI")}},
		Conds: []core.Cond{
			{L: core.Prj(core.Lk(core.Name("I"), core.Prj(core.V("j"), "PN")), "CustName"), R: core.C("CitiBank")},
		},
	}
	want, err := eval.Query(pd.Q, in)
	if err != nil {
		t.Fatal(err)
	}
	for vi, opts := range streamVariants() {
		got, err := StreamExecute(context.Background(), p4, in, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		if !got.Equal(want) {
			t.Errorf("variant %d: P4 execution differs from Q", vi)
		}
	}
}

func TestCompileRejectsBadPlans(t *testing.T) {
	in := instance.NewInstance()
	if _, err := CompileStream(&core.Query{Out: core.C(1)}, in, StreamOptions{}); err == nil {
		t.Error("plan with no bindings must be rejected")
	}
	bad := &core.Query{
		Out:      core.V("x"),
		Bindings: []core.Binding{{Var: "x", Range: core.Prj(core.V("y"), "F")}},
	}
	if _, err := CompileStream(bad, in, StreamOptions{}); err == nil {
		t.Error("ill-scoped plan must be rejected")
	}
}

func TestRunErrorsOnMissingName(t *testing.T) {
	in := instance.NewInstance()
	q := &core.Query{
		Out:      core.C(1),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
	}
	if _, err := eval.Query(q, in); err == nil {
		t.Fatal("eval must reject a missing schema name")
	}
	for vi, opts := range streamVariants() {
		if _, err := StreamExecute(context.Background(), q, in, opts); err == nil {
			t.Errorf("variant %d: missing schema name must error at run time", vi)
		}
	}
}

func TestExplain(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{Seed: 1})
	p, err := CompileStream(pd.Q, in, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	for _, frag := range []string{"Project", "Scan", "pushdown="} {
		if !strings.Contains(ex, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, ex)
		}
	}
}

func TestExplainShowsLookupKinds(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{Seed: 1})
	p3 := &core.Query{
		Out:      core.Prj(core.V("p"), "PName"),
		Bindings: []core.Binding{{Var: "p", Range: core.LkNF(core.Name("SI"), core.C("CitiBank"))}},
	}
	p, err := CompileStream(p3, in, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Explain(), "non-failing") {
		t.Errorf("Explain should mark non-failing lookups:\n%s", p.Explain())
	}
}

func TestConstantFalseCondition(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{Seed: 1})
	q := &core.Query{
		Out:      core.Prj(core.V("p"), "PName"),
		Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conds:    []core.Cond{{L: core.C(1), R: core.C(2)}},
	}
	got, err := StreamExecute(context.Background(), q, in, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Error("false constant condition must produce empty result")
	}
	checkAgainstEval(t, q, in)
}

// TestEngineAgreesWithEvalProperty compares the engine and eval on
// randomized index-only workloads.
func TestEngineAgreesWithEvalProperty(t *testing.T) {
	sc, err := workload.NewIndexOnly(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		checkAgainstEval(t, sc.Q, sc.Generate(100, 10, 10, seed))
	}
}
