package core

import (
	"strings"
	"testing"
)

// paperQ builds the running-example query Q of §1:
//
//	select struct(PN: s, PB: p.Budg, DN: d.DName)
//	from depts d, d.DProjs s, Proj p
//	where s = p.PName and p.CustName = "CitiBank"
//
// in its logical form (over the class extent "depts").
func paperQ() *Query {
	return &Query{
		Out: Struct(
			SF("PN", V("s")),
			SF("PB", Prj(V("p"), "Budg")),
			SF("DN", Prj(V("d"), "DName")),
		),
		Bindings: []Binding{
			{Var: "d", Range: Name("depts")},
			{Var: "s", Range: Prj(V("d"), "DProjs")},
			{Var: "p", Range: Name("Proj")},
		},
		Conds: []Cond{
			{L: V("s"), R: Prj(V("p"), "PName")},
			{L: Prj(V("p"), "CustName"), R: C("CitiBank")},
		},
	}
}

func TestQueryString(t *testing.T) {
	q := paperQ()
	s := q.String()
	for _, frag := range []string{
		"select struct(PN: s, PB: p.Budg, DN: d.DName)",
		"from depts d, d.DProjs s, Proj p",
		`where s = p.PName and p.CustName = "CitiBank"`,
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q in:\n%s", frag, s)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	if err := paperQ().Validate(); err != nil {
		t.Errorf("paper query should validate: %v", err)
	}

	bad := paperQ()
	bad.Bindings = bad.Bindings[:1] // drop s and p bindings
	if err := bad.Validate(); err == nil {
		t.Error("query with unbound condition variables should fail validation")
	}

	dup := paperQ()
	dup.Bindings = append(dup.Bindings, Binding{Var: "d", Range: Name("Proj")})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate binding variable should fail validation")
	}

	fwd := &Query{
		Out: V("x"),
		Bindings: []Binding{
			{Var: "x", Range: Prj(V("y"), "A")}, // y not yet bound
			{Var: "y", Range: Name("R")},
		},
	}
	if err := fwd.Validate(); err == nil {
		t.Error("forward reference in range should fail validation")
	}
}

func TestQueryValidateNilPieces(t *testing.T) {
	q := &Query{Out: nil}
	if err := q.Validate(); err == nil {
		t.Error("nil output should fail")
	}
	q2 := &Query{Out: C(true), Bindings: []Binding{{Var: "x", Range: nil}}}
	if err := q2.Validate(); err == nil {
		t.Error("nil range should fail")
	}
	q3 := &Query{Out: C(true), Bindings: []Binding{{Var: "", Range: Name("R")}}}
	if err := q3.Validate(); err == nil {
		t.Error("empty var should fail")
	}
}

func TestBoundVarsAndBindingOf(t *testing.T) {
	q := paperQ()
	bv := q.BoundVars()
	if len(bv) != 3 || !bv["d"] || !bv["s"] || !bv["p"] {
		t.Errorf("BoundVars = %v", bv)
	}
	if q.BindingOf("s") != 1 {
		t.Errorf("BindingOf(s) = %d, want 1", q.BindingOf("s"))
	}
	if q.BindingOf("zz") != -1 {
		t.Error("BindingOf(zz) should be -1")
	}
}

func TestQueryNames(t *testing.T) {
	q := paperQ()
	ns := q.Names()
	if !ns["depts"] || !ns["Proj"] || len(ns) != 2 {
		t.Errorf("Names = %v, want {depts, Proj}", ns)
	}
	sorted := q.SortedNames()
	if len(sorted) != 2 || sorted[0] != "Proj" || sorted[1] != "depts" {
		t.Errorf("SortedNames = %v", sorted)
	}
}

func TestRenameVars(t *testing.T) {
	q := paperQ()
	r := q.RenameVars(func(v string) string { return v + "_1" })
	if err := r.Validate(); err != nil {
		t.Fatalf("renamed query invalid: %v", err)
	}
	if r.BindingOf("d_1") != 0 {
		t.Error("binding d should be renamed to d_1")
	}
	if !r.Conds[0].L.Equal(V("s_1")) {
		t.Errorf("condition not renamed: %s", r.Conds[0])
	}
	// Original untouched.
	if q.BindingOf("d") != 0 {
		t.Error("original query mutated")
	}
}

func TestFreshRenaming(t *testing.T) {
	avoid := map[string]bool{"f_x_0": true}
	f := FreshRenaming("f_", avoid)
	a := f("x")
	if a == "f_x_0" {
		t.Error("fresh renaming must avoid the avoid-set")
	}
	if f("x") != a {
		t.Error("renaming must be stable per variable")
	}
	b := f("y")
	if a == b {
		t.Error("distinct variables must get distinct names")
	}
}

func TestSignatureInvariantUnderRenaming(t *testing.T) {
	q := paperQ()
	r := q.RenameVars(func(v string) string { return "zz_" + v })
	if q.Signature() != r.Signature() {
		t.Errorf("signatures differ under renaming:\n%s\n%s", q.Signature(), r.Signature())
	}
	// A different query has a different signature.
	q2 := paperQ()
	q2.Conds = q2.Conds[:1]
	if q.Signature() == q2.Signature() {
		t.Error("different queries should have different signatures")
	}
}

func TestNormalizeBindingOrder(t *testing.T) {
	q := &Query{
		Out: C(true),
		Bindings: []Binding{
			{Var: "b", Range: Name("S")},
			{Var: "a", Range: Name("R")},
			{Var: "c", Range: Prj(V("a"), "F")},
		},
	}
	n := q.NormalizeBindingOrder()
	if err := n.Validate(); err != nil {
		t.Fatalf("normalized query invalid: %v", err)
	}
	// R a must come before a.F c; S b sorts before R? "!R" < "!S" so R a first.
	if n.Bindings[0].Var != "a" {
		t.Errorf("first binding = %v, want a", n.Bindings[0])
	}
	// Normalization of two reorderings agree.
	q2 := &Query{
		Out: C(true),
		Bindings: []Binding{
			{Var: "a", Range: Name("R")},
			{Var: "c", Range: Prj(V("a"), "F")},
			{Var: "b", Range: Name("S")},
		},
	}
	if n.Signature() != q2.NormalizeBindingOrder().Signature() {
		t.Error("normalization should canonicalize binding order")
	}
}

func TestCloneIndependence(t *testing.T) {
	q := paperQ()
	c := q.Clone()
	c.Bindings[0] = Binding{Var: "zz", Range: Name("Other")}
	c.Conds = append(c.Conds, Cond{L: V("zz"), R: C(1)})
	if q.Bindings[0].Var != "d" {
		t.Error("Clone must not share binding storage")
	}
	if len(q.Conds) != 2 {
		t.Error("Clone must not share cond storage")
	}
}

// TestCondEqualFlip: the condition equality ShapeKey and Signature
// deduplicate by is symmetric and tells different conditions apart.
func TestCondEqualFlip(t *testing.T) {
	c := Cond{L: V("x"), R: V("y")}
	if !c.sameUpToFlip(Cond{L: c.R, R: c.L}) {
		t.Error("cond equality must be symmetric")
	}
	if c.sameUpToFlip(Cond{L: V("x"), R: V("z")}) {
		t.Error("different conds must differ")
	}
}

func TestAllTerms(t *testing.T) {
	q := paperQ()
	terms := q.AllTerms()
	// Must include binding vars, ranges, condition sides, output subterms.
	want := []*Term{
		Name("depts"), V("d"), Prj(V("d"), "DProjs"), V("s"),
		Name("Proj"), V("p"), Prj(V("p"), "PName"),
		Prj(V("p"), "CustName"), C("CitiBank"), Prj(V("p"), "Budg"),
		Prj(V("d"), "DName"),
	}
	has := func(x *Term) bool {
		for _, tm := range terms {
			if tm.Equal(x) {
				return true
			}
		}
		return false
	}
	for _, w := range want {
		if !has(w) {
			t.Errorf("AllTerms missing %s", w)
		}
	}
}

func TestDependencyValidateAndString(t *testing.T) {
	// RIC1 of the paper:
	// forall (d in depts, s in d.DProjs) exists (p in Proj) s = p.PName
	ric1 := &Dependency{
		Name: "RIC1",
		Premise: []Binding{
			{Var: "d", Range: Name("depts")},
			{Var: "s", Range: Prj(V("d"), "DProjs")},
		},
		Conclusion:      []Binding{{Var: "p", Range: Name("Proj")}},
		ConclusionConds: []Cond{{L: V("s"), R: Prj(V("p"), "PName")}},
	}
	if err := ric1.Validate(); err != nil {
		t.Fatalf("RIC1 invalid: %v", err)
	}
	s := ric1.String()
	for _, frag := range []string{"RIC1", "forall (d in depts, s in d.DProjs)", "exists (p in Proj)", "s = p.PName"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q: %s", frag, s)
		}
	}
	if ric1.IsEGD() {
		t.Error("RIC1 is not an EGD")
	}
}

func TestDependencyValidateErrors(t *testing.T) {
	bad := &Dependency{
		Name:    "bad",
		Premise: []Binding{{Var: "x", Range: Prj(V("y"), "A")}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("unbound premise range var should fail")
	}
	bad2 := &Dependency{
		Name:            "bad2",
		Premise:         []Binding{{Var: "x", Range: Name("R")}},
		ConclusionConds: []Cond{{L: V("zz"), R: V("x")}},
	}
	if err := bad2.Validate(); err == nil {
		t.Error("unbound conclusion cond var should fail")
	}
	dup := &Dependency{
		Premise:    []Binding{{Var: "x", Range: Name("R")}},
		Conclusion: []Binding{{Var: "x", Range: Name("S")}},
	}
	if err := dup.Validate(); err == nil {
		t.Error("premise/conclusion var collision should fail")
	}
}

func TestDependencyNames(t *testing.T) {
	d := &Dependency{
		Premise:         []Binding{{Var: "p", Range: Name("Proj")}},
		Conclusion:      []Binding{{Var: "i", Range: Dom(Name("I"))}},
		ConclusionConds: []Cond{{L: Lk(Name("I"), V("i")), R: V("p")}},
	}
	ns := d.Names()
	if !ns["Proj"] || !ns["I"] || len(ns) != 2 {
		t.Errorf("Names = %v", ns)
	}
}
