package chase

import (
	"context"
	"strings"
	"testing"

	"cnb/internal/core"
)

// --- Fixtures: the paper's ProjDept running example (§1–§3) ------------
//
// Logical schema: class extent depts (set of Dept records), relation Proj.
// Physical schema: dictionary Dept (class storage), Proj (direct), primary
// index I on Proj.PName, secondary index SI on Proj.CustName, materialized
// join-index view JI.

func q() *core.Query {
	// select struct(PN: s, PB: p.Budg, DN: d.DName)
	// from depts d, d.DProjs s, Proj p
	// where s = p.PName and p.CustName = "CitiBank"
	return &core.Query{
		Out: core.Struct(
			core.SF("PN", core.V("s")),
			core.SF("PB", core.Prj(core.V("p"), "Budg")),
			core.SF("DN", core.Prj(core.V("d"), "DName")),
		),
		Bindings: []core.Binding{
			{Var: "d", Range: core.Name("depts")},
			{Var: "s", Range: core.Prj(core.V("d"), "DProjs")},
			{Var: "p", Range: core.Name("Proj")},
		},
		Conds: []core.Cond{
			{L: core.V("s"), R: core.Prj(core.V("p"), "PName")},
			{L: core.Prj(core.V("p"), "CustName"), R: core.C("CitiBank")},
		},
	}
}

// phiDept: every logical Dept object is stored in the Dept dictionary.
func phiDept() *core.Dependency {
	return &core.Dependency{
		Name:            "PhiDept",
		Premise:         []core.Binding{{Var: "d", Range: core.Name("depts")}},
		Conclusion:      []core.Binding{{Var: "dd", Range: core.Dom(core.Name("Dept"))}},
		ConclusionConds: []core.Cond{{L: core.Lk(core.Name("Dept"), core.V("dd")), R: core.V("d")}},
	}
}

// phiDeptInv: every Dept dictionary entry is a logical Dept object.
func phiDeptInv() *core.Dependency {
	return &core.Dependency{
		Name:            "PhiDeptInv",
		Premise:         []core.Binding{{Var: "dd", Range: core.Dom(core.Name("Dept"))}},
		Conclusion:      []core.Binding{{Var: "d", Range: core.Name("depts")}},
		ConclusionConds: []core.Cond{{L: core.V("d"), R: core.Lk(core.Name("Dept"), core.V("dd"))}},
	}
}

// phiPI / phiPIInv: primary index I on Proj.PName (the paper's ΦPI, ΦPI').
func phiPI() *core.Dependency {
	return &core.Dependency{
		Name:       "PhiPI",
		Premise:    []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conclusion: []core.Binding{{Var: "i", Range: core.Dom(core.Name("I"))}},
		ConclusionConds: []core.Cond{
			{L: core.V("i"), R: core.Prj(core.V("p"), "PName")},
			{L: core.Lk(core.Name("I"), core.V("i")), R: core.V("p")},
		},
	}
}

func phiPIInv() *core.Dependency {
	return &core.Dependency{
		Name:       "PhiPIInv",
		Premise:    []core.Binding{{Var: "i", Range: core.Dom(core.Name("I"))}},
		Conclusion: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		ConclusionConds: []core.Cond{
			{L: core.V("i"), R: core.Prj(core.V("p"), "PName")},
			{L: core.Lk(core.Name("I"), core.V("i")), R: core.V("p")},
		},
	}
}

// phiSI / phiSIInv: secondary index SI on Proj.CustName (ΦSI, ΦSI').
func phiSI() *core.Dependency {
	return &core.Dependency{
		Name:    "PhiSI",
		Premise: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conclusion: []core.Binding{
			{Var: "k", Range: core.Dom(core.Name("SI"))},
			{Var: "t", Range: core.Lk(core.Name("SI"), core.V("k"))},
		},
		ConclusionConds: []core.Cond{
			{L: core.V("k"), R: core.Prj(core.V("p"), "CustName")},
			{L: core.V("p"), R: core.V("t")},
		},
	}
}

func phiSIInv() *core.Dependency {
	return &core.Dependency{
		Name: "PhiSIInv",
		Premise: []core.Binding{
			{Var: "k", Range: core.Dom(core.Name("SI"))},
			{Var: "t", Range: core.Lk(core.Name("SI"), core.V("k"))},
		},
		Conclusion: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		ConclusionConds: []core.Cond{
			{L: core.V("k"), R: core.Prj(core.V("p"), "CustName")},
			{L: core.V("p"), R: core.V("t")},
		},
	}
}

// phiJI / phiJIInv: the materialized view JI (ΦJI, ΦJI' of §2), adapted to
// the record model of class extents: JI pairs Dept oids with project names.
func phiJI() *core.Dependency {
	return &core.Dependency{
		Name: "PhiJI",
		Premise: []core.Binding{
			{Var: "dd", Range: core.Dom(core.Name("Dept"))},
			{Var: "s", Range: core.Prj(core.Lk(core.Name("Dept"), core.V("dd")), "DProjs")},
			{Var: "p", Range: core.Name("Proj")},
		},
		PremiseConds: []core.Cond{{L: core.V("s"), R: core.Prj(core.V("p"), "PName")}},
		Conclusion:   []core.Binding{{Var: "j", Range: core.Name("JI")}},
		ConclusionConds: []core.Cond{
			{L: core.Prj(core.V("j"), "DOID"), R: core.V("dd")},
			{L: core.Prj(core.V("j"), "PN"), R: core.Prj(core.V("p"), "PName")},
		},
	}
}

func phiJIInv() *core.Dependency {
	return &core.Dependency{
		Name:    "PhiJIInv",
		Premise: []core.Binding{{Var: "j", Range: core.Name("JI")}},
		Conclusion: []core.Binding{
			{Var: "dd", Range: core.Dom(core.Name("Dept"))},
			{Var: "s", Range: core.Prj(core.Lk(core.Name("Dept"), core.V("dd")), "DProjs")},
			{Var: "p", Range: core.Name("Proj")},
		},
		ConclusionConds: []core.Cond{
			{L: core.V("s"), R: core.Prj(core.V("p"), "PName")},
			{L: core.Prj(core.V("j"), "DOID"), R: core.V("dd")},
			{L: core.Prj(core.V("j"), "PN"), R: core.Prj(core.V("p"), "PName")},
		},
	}
}

// Logical constraints of Figure 2.
func ric1() *core.Dependency {
	return &core.Dependency{
		Name: "RIC1",
		Premise: []core.Binding{
			{Var: "d", Range: core.Name("depts")},
			{Var: "s", Range: core.Prj(core.V("d"), "DProjs")},
		},
		Conclusion:      []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		ConclusionConds: []core.Cond{{L: core.V("s"), R: core.Prj(core.V("p"), "PName")}},
	}
}

func ric2() *core.Dependency {
	return &core.Dependency{
		Name:            "RIC2",
		Premise:         []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conclusion:      []core.Binding{{Var: "d", Range: core.Name("depts")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("p"), "PDept"), R: core.Prj(core.V("d"), "DName")}},
	}
}

func inv1() *core.Dependency {
	return &core.Dependency{
		Name: "INV1",
		Premise: []core.Binding{
			{Var: "d", Range: core.Name("depts")},
			{Var: "s", Range: core.Prj(core.V("d"), "DProjs")},
			{Var: "p", Range: core.Name("Proj")},
		},
		PremiseConds:    []core.Cond{{L: core.V("s"), R: core.Prj(core.V("p"), "PName")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("p"), "PDept"), R: core.Prj(core.V("d"), "DName")}},
	}
}

func inv2() *core.Dependency {
	return &core.Dependency{
		Name: "INV2",
		Premise: []core.Binding{
			{Var: "p", Range: core.Name("Proj")},
			{Var: "d", Range: core.Name("depts")},
		},
		PremiseConds:    []core.Cond{{L: core.Prj(core.V("p"), "PDept"), R: core.Prj(core.V("d"), "DName")}},
		Conclusion:      []core.Binding{{Var: "s", Range: core.Prj(core.V("d"), "DProjs")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("p"), "PName"), R: core.V("s")}},
	}
}

func allDeps() []*core.Dependency {
	return []*core.Dependency{
		phiJI(), phiDept(), inv1(), phiSI(), phiPI(),
		phiJIInv(), phiDeptInv(), phiSIInv(), phiPIInv(),
		ric1(), ric2(), inv2(),
	}
}

// --- Canon / homomorphism tests ----------------------------------------

func TestCanonBasics(t *testing.T) {
	cn := NewCanon(q())
	if !cn.CC.Same(core.V("s"), core.Prj(core.V("p"), "PName")) {
		t.Error("canonical database must equate s and p.PName")
	}
	if !cn.CC.Same(core.Prj(core.V("p"), "CustName"), core.C("CitiBank")) {
		t.Error("canonical database must equate p.CustName and the constant")
	}
	if cn.CC.Same(core.V("s"), core.V("d")) {
		t.Error("unrelated terms must stay separate")
	}
}

func TestFindHomsIdentity(t *testing.T) {
	query := q()
	cn := NewCanon(query)
	homs := findHoms(cn, query.Bindings, query.Conds, 0)
	if len(homs) == 0 {
		t.Fatal("identity homomorphism must exist")
	}
	found := false
	for _, h := range homs {
		if h["d"].Equal(core.V("d")) && h["s"].Equal(core.V("s")) && h["p"].Equal(core.V("p")) {
			found = true
		}
	}
	if !found {
		t.Error("identity homomorphism not found")
	}
}

func TestFindHomsRespectsConds(t *testing.T) {
	// Target: R r with r.A = 1. Source: R x with x.A = 2 has no hom.
	target := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
		Conds:    []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.C(1)}},
	}
	cn := NewCanon(target)
	src := []core.Binding{{Var: "x", Range: core.Name("R")}}
	bad := []core.Cond{{L: core.Prj(core.V("x"), "A"), R: core.C(2)}}
	if hs := findHoms(cn, src, bad, 0); len(hs) != 0 {
		t.Error("hom should fail: condition x.A=2 not implied")
	}
	good := []core.Cond{{L: core.Prj(core.V("x"), "A"), R: core.C(1)}}
	if hs := findHoms(cn, src, good, 0); len(hs) != 1 {
		t.Errorf("hom count = %d, want 1", len(hs))
	}
}

func TestFindHomsMultiple(t *testing.T) {
	// Target has two R bindings; source one — two homomorphisms.
	target := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "r1", Range: core.Name("R")},
			{Var: "r2", Range: core.Name("R")},
		},
	}
	cn := NewCanon(target)
	src := []core.Binding{{Var: "x", Range: core.Name("R")}}
	if hs := findHoms(cn, src, nil, 0); len(hs) != 2 {
		t.Errorf("hom count = %d, want 2", len(hs))
	}
	if hs := findHoms(cn, src, nil, 1); len(hs) != 1 {
		t.Error("limit must cap enumeration")
	}
}

func TestFindHomsDependentRange(t *testing.T) {
	// Source binding over a dependent range d.DProjs must map to the
	// target binding with congruent range.
	query := q()
	cn := NewCanon(query)
	src := []core.Binding{
		{Var: "a", Range: core.Name("depts")},
		{Var: "b", Range: core.Prj(core.V("a"), "DProjs")},
	}
	hs := findHoms(cn, src, nil, 0)
	if len(hs) != 1 {
		t.Fatalf("hom count = %d, want 1", len(hs))
	}
	if !hs[0]["a"].Equal(core.V("d")) || !hs[0]["b"].Equal(core.V("s")) {
		t.Errorf("unexpected hom: %v", hs[0])
	}
}

func TestExtendsToConclusionEGD(t *testing.T) {
	query := q()
	cn := NewCanon(query)
	// EGD whose conclusion already holds: s = p.PName.
	d := &core.Dependency{
		Premise: []core.Binding{
			{Var: "x", Range: core.Name("depts")},
		},
		ConclusionConds: []core.Cond{{L: core.V("s"), R: core.Prj(core.V("p"), "PName")}},
	}
	// Free vars s, p in conclusion refer to query vars here (init hom).
	h := Hom{"x": core.V("d"), "s": core.V("s"), "p": core.V("p")}
	dp := compileDep(d, nil)
	s := &search{}
	s.reset(cn, dp.prog, dp.premise, dp.pconds, modeLookup)
	s.assignInit(h)
	if !cn.extends(dp, s) {
		t.Error("EGD conclusion that already holds must extend")
	}
}

// --- Chase tests --------------------------------------------------------

func TestChaseSingleStepJI(t *testing.T) {
	// §3 example: chasing Q with ΦJI adds the JI binding and conditions.
	// In the record model, ΦJI's premise needs the Dept dictionary, so
	// chase with {ΦDept, ΦJI}.
	res, err := Chase(q(), []*core.Dependency{phiDept(), phiJI()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Query
	// Expect: original 3 bindings + dom(Dept) dd + JI j.
	if len(u.Bindings) != 5 {
		t.Fatalf("bindings = %d, want 5:\n%s", len(u.Bindings), u)
	}
	names := u.Names()
	if !names["JI"] || !names["Dept"] {
		t.Errorf("universal plan must mention JI and Dept: %v", names)
	}
	// The chase must not be applicable anymore.
	if again, err := Chase(u, []*core.Dependency{phiDept(), phiJI()}, Options{}); err != nil || len(again.Steps) != 0 {
		t.Errorf("chase fixpoint must not be applicable: %v", err)
	}
	if res.Inconsistent {
		t.Error("consistent chase flagged inconsistent")
	}
}

func TestChaseIdempotentOnFixpoint(t *testing.T) {
	deps := []*core.Dependency{phiDept(), phiJI()}
	res, err := Chase(q(), deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Chase(res.Query, deps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Steps) != 0 {
		t.Errorf("chase of a fixpoint applied %d steps, want 0", len(res2.Steps))
	}
	if res2.Query.Signature() != res.Query.Signature() {
		t.Error("chase of fixpoint must be identity")
	}
}

func TestChaseFullExample(t *testing.T) {
	// Full chase with all constraints: the universal plan U of §3.
	res, err := Chase(q(), allDeps(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Query
	// U must mention every physical structure.
	names := u.Names()
	for _, n := range []string{"depts", "Proj", "Dept", "I", "SI", "JI"} {
		if !names[n] {
			t.Errorf("universal plan missing %s", n)
		}
	}
	// Check the expected binding ranges are present (paper's U):
	// depts d; d.DProjs s; Proj p; JI j; dom(Dept) dd; dom(SI) k;
	// SI[k] t; dom(I) i. (The record model does not need the s' binding.)
	kinds := map[string]int{}
	for _, b := range u.Bindings {
		switch {
		case b.Range.Equal(core.Name("depts")):
			kinds["depts"]++
		case b.Range.Equal(core.Name("Proj")):
			kinds["Proj"]++
		case b.Range.Equal(core.Name("JI")):
			kinds["JI"]++
		case b.Range.Equal(core.Dom(core.Name("Dept"))):
			kinds["domDept"]++
		case b.Range.Equal(core.Dom(core.Name("SI"))):
			kinds["domSI"]++
		case b.Range.Equal(core.Dom(core.Name("I"))):
			kinds["domI"]++
		case b.Range.Kind == core.KLookup:
			kinds["lookup"]++
		case b.Range.Kind == core.KProj:
			kinds["proj"]++
		}
	}
	for _, want := range []string{"depts", "Proj", "JI", "domDept", "domSI", "domI", "lookup", "proj"} {
		if kinds[want] == 0 {
			t.Errorf("universal plan missing a %s binding; got %v\n%s", want, kinds, u)
		}
	}
	// INV1 must have derived d.DName = p.PDept.
	cn := NewCanon(u)
	if !cn.CC.Same(core.Prj(core.V("d"), "DName"), core.Prj(core.V("p"), "PDept")) {
		t.Error("INV1 equality d.DName = p.PDept missing from universal plan")
	}
	// The universal plan is a fixpoint.
	if again, err := Chase(u, allDeps(), Options{}); err != nil || len(again.Steps) != 0 {
		t.Errorf("universal plan must be a chase fixpoint: %v", err)
	}
	// The output is unchanged by chasing.
	if !u.Out.Equal(q().Out) {
		t.Error("chase must not alter the output")
	}
	if err := u.Validate(); err != nil {
		t.Errorf("universal plan invalid: %v", err)
	}
}

func TestChaseStepTrace(t *testing.T) {
	res, err := Chase(q(), allDeps(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("expected chase steps")
	}
	seen := map[string]bool{}
	for _, s := range res.Steps {
		seen[s.Dep] = true
	}
	for _, want := range []string{"PhiJI", "PhiDept", "INV1", "PhiSI", "PhiPI"} {
		if !seen[want] {
			t.Errorf("chase trace missing %s; applied: %v", want, seen)
		}
	}
}

func TestChaseEGDInconsistent(t *testing.T) {
	// R r with r.A = 1 and r.A = 2 under FD "A determines nothing" won't
	// fire; instead use an EGD that directly equates 1 = 2.
	query := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
		Conds: []core.Cond{
			{L: core.Prj(core.V("r"), "A"), R: core.C(1)},
			{L: core.Prj(core.V("r"), "B"), R: core.C(2)},
		},
	}
	// EGD: forall r in R: r.A = r.B. Chasing equates 1 = 2: inconsistent.
	egd := &core.Dependency{
		Name:            "AB",
		Premise:         []core.Binding{{Var: "r", Range: core.Name("R")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.Prj(core.V("r"), "B")}},
	}
	res, err := Chase(query, []*core.Dependency{egd}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inconsistent {
		t.Error("chase must flag constant clash as inconsistent")
	}
}

func TestChaseEGDKeyMergesVariables(t *testing.T) {
	// Two Proj bindings with equal PName collapse under the key EGD:
	// after chasing, p1 = p2 is derived.
	query := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "p1", Range: core.Name("Proj")},
			{Var: "p2", Range: core.Name("Proj")},
		},
		Conds: []core.Cond{
			{L: core.Prj(core.V("p1"), "PName"), R: core.Prj(core.V("p2"), "PName")},
		},
	}
	key := &core.Dependency{
		Name: "KEY2",
		Premise: []core.Binding{
			{Var: "a", Range: core.Name("Proj")},
			{Var: "b", Range: core.Name("Proj")},
		},
		PremiseConds:    []core.Cond{{L: core.Prj(core.V("a"), "PName"), R: core.Prj(core.V("b"), "PName")}},
		ConclusionConds: []core.Cond{{L: core.V("a"), R: core.V("b")}},
	}
	res, err := Chase(query, []*core.Dependency{key}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cn := NewCanon(res.Query)
	if !cn.CC.Same(core.V("p1"), core.V("p2")) {
		t.Error("key EGD must equate p1 and p2")
	}
}

func TestChaseBudgetExceeded(t *testing.T) {
	// Non-terminating dependency: forall (x in R) exists (y in R) y.Next = x.
	inf := &core.Dependency{
		Name:            "inf",
		Premise:         []core.Binding{{Var: "x", Range: core.Name("R")}},
		Conclusion:      []core.Binding{{Var: "y", Range: core.Name("R")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("y"), "Next"), R: core.V("x")}},
	}
	query := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
	}
	_, err := Chase(query, []*core.Dependency{inf}, Options{MaxSteps: 25})
	if err == nil {
		t.Fatal("non-terminating chase must exhaust its budget")
	}
	if _, ok := err.(*ErrBudget); !ok {
		t.Errorf("error type = %T, want *ErrBudget", err)
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error message should mention budget: %v", err)
	}
}

func TestChaseDoesNotMutateInput(t *testing.T) {
	orig := q()
	sig := orig.Signature()
	if _, err := Chase(orig, allDeps(), Options{}); err != nil {
		t.Fatal(err)
	}
	if orig.Signature() != sig {
		t.Error("Chase must not mutate its input query")
	}
}

// --- Implication tests ---------------------------------------------------

// implies decides whether deps imply d (§3: "trying to see whether the
// constraint is implied by the existing ones can be done with the chase
// when constraints are viewed as boolean-valued queries") as the
// containment the optimizer runs: d holds on every instance satisfying
// deps iff its premise query, returning the premise variables, is
// contained in the query that also binds and asserts the conclusion.
// An empty deps decides whether d is trivial, which makes backchasing by
// virtue of it exactly tableau minimization.
func implies(deps []*core.Dependency, d *core.Dependency) (bool, error) {
	var fields []core.StructField
	for _, b := range d.Premise {
		fields = append(fields, core.SF(b.Var, core.V(b.Var)))
	}
	premise := &core.Query{Out: core.Struct(fields...), Bindings: d.Premise, Conds: d.PremiseConds}
	whole := &core.Query{
		Out:      premise.Out,
		Bindings: append(append([]core.Binding(nil), d.Premise...), d.Conclusion...),
		Conds:    append(append([]core.Cond(nil), d.PremiseConds...), d.ConclusionConds...),
	}
	return ContainedInCompiled(context.Background(), premise, CompileQuery(whole), NewDepIndex(deps), Options{})
}

func TestImpliesTrivialConstraint(t *testing.T) {
	// The §3 trivial constraint justifying tableau minimization:
	// forall (p in R, q in R) p.B = q.A ->
	//   exists (r in R) p.B = q.A and q.B = r.B
	// (take r = q).
	triv := &core.Dependency{
		Premise: []core.Binding{
			{Var: "p", Range: core.Name("R")},
			{Var: "q", Range: core.Name("R")},
		},
		PremiseConds: []core.Cond{{L: core.Prj(core.V("p"), "B"), R: core.Prj(core.V("q"), "A")}},
		Conclusion:   []core.Binding{{Var: "r", Range: core.Name("R")}},
		ConclusionConds: []core.Cond{
			{L: core.Prj(core.V("p"), "B"), R: core.Prj(core.V("q"), "A")},
			{L: core.Prj(core.V("q"), "B"), R: core.Prj(core.V("r"), "B")},
		},
	}
	ok, err := implies(nil, triv)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("the paper's §3 constraint must be trivial")
	}
}

func TestImpliesNonTrivial(t *testing.T) {
	// forall (p in R) exists (s in S) p.A = s.A is NOT trivial.
	d := &core.Dependency{
		Premise:         []core.Binding{{Var: "p", Range: core.Name("R")}},
		Conclusion:      []core.Binding{{Var: "s", Range: core.Name("S")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("p"), "A"), R: core.Prj(core.V("s"), "A")}},
	}
	ok, err := implies(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("R ⊆ S style constraint must not be trivial")
	}
}

func TestImpliesFromDependencies(t *testing.T) {
	// RIC2 implies: forall (p in Proj) exists (d in depts) true.
	weak := &core.Dependency{
		Premise:    []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conclusion: []core.Binding{{Var: "d", Range: core.Name("depts")}},
	}
	ok, err := implies([]*core.Dependency{ric2()}, weak)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("RIC2 must imply the weaker existence constraint")
	}
	// ... but not the converse direction.
	conv := &core.Dependency{
		Premise:    []core.Binding{{Var: "d", Range: core.Name("depts")}},
		Conclusion: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
	}
	ok, err = implies([]*core.Dependency{ric2()}, conv)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("RIC2 must not imply the converse")
	}
}

func TestImpliesViewInclusion(t *testing.T) {
	// From ΦV (V ⊇ select of R) alone, the inclusion
	// forall (r in R) exists (v in V) v.A = r.A must follow, where
	// V = select struct(A: r.A) from R r.
	phiV := &core.Dependency{
		Name:            "PhiV",
		Premise:         []core.Binding{{Var: "r", Range: core.Name("R")}},
		Conclusion:      []core.Binding{{Var: "v", Range: core.Name("V")}},
		ConclusionConds: []core.Cond{{L: core.V("v"), R: core.Struct(core.SF("A", core.Prj(core.V("r"), "A")))}},
	}
	want := &core.Dependency{
		Premise:         []core.Binding{{Var: "r", Range: core.Name("R")}},
		Conclusion:      []core.Binding{{Var: "v", Range: core.Name("V")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("v"), "A"), R: core.Prj(core.V("r"), "A")}},
	}
	ok, err := implies([]*core.Dependency{phiV}, want)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("ΦV must imply the projected inclusion (needs the beta axiom)")
	}
}

func TestHomsOfQueryInto(t *testing.T) {
	// Q maps into its own chase with an output match.
	res, err := Chase(q(), allDeps(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !NewCanon(res.Query).MapsCompiledInto(CompileQuery(q()), res.Query.Out, nil) {
		t.Error("Q must map into chase(Q) with output match")
	}
}

func TestHomKeyDeterministic(t *testing.T) {
	h := Hom{"a": core.V("x"), "b": core.V("y")}
	if h.Key() != h.Clone().Key() {
		t.Error("hom key must be stable under clone")
	}
	h2 := Hom{"a": core.V("x"), "b": core.V("z")}
	if h.Key() == h2.Key() {
		t.Error("different homs must have different keys")
	}
}
