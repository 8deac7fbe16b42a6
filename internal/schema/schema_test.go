package schema

import (
	"strings"
	"testing"

	"cnb/internal/core"
	"cnb/internal/types"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s := New("test")
	s.MustAddElement("Proj", types.SetOf(types.StructOf(
		types.F("PName", types.StringT()),
		types.F("CustName", types.StringT()),
		types.F("Budg", types.Int()),
	)), "projects")
	s.MustAddElement("I", types.DictOf(types.StringT(), types.StructOf(
		types.F("PName", types.StringT()),
		types.F("CustName", types.StringT()),
		types.F("Budg", types.Int()),
	)), "primary index")
	s.MustAddElement("SI", types.DictOf(types.StringT(), types.SetOf(types.StructOf(
		types.F("PName", types.StringT()),
		types.F("CustName", types.StringT()),
		types.F("Budg", types.Int()),
	))), "secondary index")
	return s
}

func TestAddElementErrors(t *testing.T) {
	s := New("x")
	if err := s.AddElement("", types.Int(), ""); err == nil {
		t.Error("empty name must fail")
	}
	if err := s.AddElement("A", types.Int(), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AddElement("A", types.Int(), ""); err == nil {
		t.Error("duplicate must fail")
	}
	if err := s.AddElement("B", types.DictOf(types.SetOf(types.Int()), types.Int()), ""); err == nil {
		t.Error("invalid type must fail")
	}
}

func TestElementAccessors(t *testing.T) {
	s := testSchema(t)
	if !s.Has("Proj") || s.Has("Nope") {
		t.Error("Has wrong")
	}
	if s.Element("I") == nil {
		t.Error("Element lookup failed")
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "Proj" {
		t.Errorf("Names = %v (declaration order expected)", names)
	}
	if len(s.Elements()) != 3 {
		t.Error("Elements wrong")
	}
	set := s.NameSet()
	if !set["SI"] || len(set) != 3 {
		t.Errorf("NameSet = %v", set)
	}
}

func TestTypeOfTerm(t *testing.T) {
	s := testSchema(t)
	env := map[string]*types.Type{}
	cases := []struct {
		term *core.Term
		want string
	}{
		{core.Name("Proj"), "set<{PName: string, CustName: string, Budg: int}>"},
		{core.Dom(core.Name("I")), "set<string>"},
		{core.Lk(core.Name("I"), core.C("x")), "{PName: string, CustName: string, Budg: int}"},
		{core.Prj(core.Lk(core.Name("I"), core.C("x")), "Budg"), "int"},
		{core.C(1), "int"},
		{core.C("s"), "string"},
		{core.C(true), "bool"},
		{core.C(1.5), "float"},
		{core.Struct(core.SF("A", core.C(1))), "{A: int}"},
	}
	for _, c := range cases {
		got, err := s.TypeOfTerm(c.term, env)
		if err != nil {
			t.Errorf("TypeOfTerm(%s): %v", c.term, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("TypeOfTerm(%s) = %s, want %s", c.term, got, c.want)
		}
	}
}

func TestTypeOfTermErrors(t *testing.T) {
	s := testSchema(t)
	env := map[string]*types.Type{"p": types.StructOf(types.F("A", types.Int()))}
	bad := []*core.Term{
		core.V("unbound"),
		core.Name("NoSuch"),
		core.Prj(core.V("p"), "Z"),
		core.Dom(core.Name("Proj")),
		core.Lk(core.Name("Proj"), core.C(1)),
		core.Lk(core.Name("I"), core.C(1)),     // key type mismatch (int vs string)
		core.LkNF(core.Name("I"), core.C("x")), // non-failing needs set entries
	}
	for _, b := range bad {
		if _, err := s.TypeOfTerm(b, env); err == nil {
			t.Errorf("TypeOfTerm(%s) should fail", b)
		}
	}
}

func TestCheckQuery(t *testing.T) {
	s := testSchema(t)
	q := &core.Query{
		Out: core.Struct(core.SF("N", core.Prj(core.V("p"), "PName"))),
		Bindings: []core.Binding{
			{Var: "p", Range: core.Name("Proj")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("p"), "CustName"), R: core.C("c")}},
	}
	ot, err := s.CheckQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if ot.String() != "{N: string}" {
		t.Errorf("output type = %s", ot)
	}
}

func TestCheckQueryErrors(t *testing.T) {
	s := testSchema(t)
	// Range over a non-set (dictionary must be iterated via dom).
	q1 := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "x", Range: core.Name("I")}},
	}
	if _, err := s.CheckQuery(q1); err == nil {
		t.Error("iterating a dictionary directly must fail")
	}
	// Condition comparing different types.
	q2 := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conds:    []core.Cond{{L: core.Prj(core.V("p"), "Budg"), R: core.C("x")}},
	}
	if _, err := s.CheckQuery(q2); err == nil {
		t.Error("type-mismatched condition must fail")
	}
	// Output of collection type violates the PC restriction.
	q3 := &core.Query{
		Out:      core.Name("Proj"),
		Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
	}
	if _, err := s.CheckQuery(q3); err == nil {
		t.Error("collection-typed output must fail")
	}
	// Condition comparing collections.
	q4 := &core.Query{
		Out:      core.C(true),
		Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conds:    []core.Cond{{L: core.Name("Proj"), R: core.Name("Proj")}},
	}
	if _, err := s.CheckQuery(q4); err == nil {
		t.Error("collection comparison must fail")
	}
}

func TestCheckDependency(t *testing.T) {
	s := testSchema(t)
	good := &core.Dependency{
		Name:       "PhiI",
		Premise:    []core.Binding{{Var: "r", Range: core.Name("Proj")}},
		Conclusion: []core.Binding{{Var: "i", Range: core.Dom(core.Name("I"))}},
		ConclusionConds: []core.Cond{
			{L: core.V("i"), R: core.Prj(core.V("r"), "PName")},
		},
	}
	if err := s.CheckDependency(good); err != nil {
		t.Errorf("good dependency rejected: %v", err)
	}
	bad := &core.Dependency{
		Name:            "bad",
		Premise:         []core.Binding{{Var: "r", Range: core.Name("Proj")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("r"), "Budg"), R: core.C("str")}},
	}
	if err := s.CheckDependency(bad); err == nil {
		t.Error("type-mismatched dependency accepted")
	}
}

func TestAddDependencyChecksNames(t *testing.T) {
	s := testSchema(t)
	d := &core.Dependency{
		Name:    "d",
		Premise: []core.Binding{{Var: "x", Range: core.Name("Mystery")}},
	}
	if err := s.AddDependency(d); err == nil {
		t.Error("dependency over undeclared name must fail")
	}
	ok := &core.Dependency{
		Name:    "ok",
		Premise: []core.Binding{{Var: "x", Range: core.Name("Proj")}},
	}
	if err := s.AddDependency(ok); err != nil {
		t.Fatal(err)
	}
	if len(s.Dependencies()) != 1 {
		t.Error("dependency not recorded")
	}
}

func TestMerge(t *testing.T) {
	a := New("a")
	a.MustAddElement("R", types.SetOf(types.StructOf(types.F("A", types.Int()))), "")
	b := New("b")
	b.MustAddElement("R", types.SetOf(types.StructOf(types.F("A", types.Int()))), "")
	b.MustAddElement("S", types.SetOf(types.StructOf(types.F("B", types.Int()))), "")
	m, err := Merge("m", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has("R") || !m.Has("S") {
		t.Error("merge lost elements")
	}

	c := New("c")
	c.MustAddElement("R", types.SetOf(types.Int()), "")
	if _, err := Merge("x", a, c); err == nil {
		t.Error("conflicting types must fail to merge")
	}
}

func TestSchemaString(t *testing.T) {
	s := testSchema(t)
	str := s.String()
	for _, frag := range []string{"schema test", "Proj", "dict<string"} {
		if !strings.Contains(str, frag) {
			t.Errorf("String missing %q", frag)
		}
	}
}

// TestCheckQueryRejectsSelfNestingConstructor: a condition that equates
// a variable with a constructor nesting that variable, such as
// v0 = struct(A: v1.A, B: struct(A: v0, B: v1)), has no finite type —
// the right side's type holds the left side's as a strict component,
// and types are finite trees — so CheckQuery rejects it whatever the
// schema gives v0 and v1. Only an untyped caller of the library can hand
// such a query to the backchase, where rewriting it is exponential.
func TestCheckQueryRejectsSelfNestingConstructor(t *testing.T) {
	v, prj, sf := core.V, core.Prj, core.SF
	cond := core.Cond{
		L: v("v0"),
		R: core.Struct(sf("A", prj(v("v1"), "A")), sf("B", core.Struct(sf("A", v("v0")), sf("B", v("v1"))))),
	}
	records := []*types.Type{
		types.StructOf(types.F("A", types.Int())),
		types.StructOf(types.F("A", types.StringT()), types.F("B", types.Int())),
		types.StructOf(types.F("A", types.Int()), types.F("B", types.StructOf(types.F("A", types.Int()), types.F("B", types.Int())))),
	}
	for i, r0 := range records {
		for j, r1 := range records {
			s := New("nest")
			s.MustAddElement("S", types.SetOf(r0), "")
			s.MustAddElement("T", types.SetOf(r1), "")
			q := &core.Query{
				Out:      v("v0"),
				Bindings: []core.Binding{{Var: "v0", Range: core.Name("S")}, {Var: "v1", Range: core.Name("T")}},
				Conds:    []core.Cond{cond},
			}
			if _, err := s.CheckQuery(q); err == nil || !strings.Contains(err.Error(), "compares") {
				t.Errorf("S of %s, T of %s: CheckQuery = %v, want the condition rejected", r0, r1, err)
			}
			q.Conds = nil
			if _, err := s.CheckQuery(q); err != nil {
				t.Errorf("S of %s, T of %s: the query without the condition fails: %v", records[i], records[j], err)
			}
		}
	}
}
