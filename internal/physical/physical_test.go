package physical

import (
	"strings"
	"testing"

	"cnb/internal/core"
	"cnb/internal/schema"
	"cnb/internal/types"
)

func baseSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New("base")
	s.MustAddElement("R", types.SetOf(types.StructOf(
		types.F("A", types.Int()),
		types.F("B", types.Int()),
		types.F("C", types.Int()),
	)), "relation")
	s.MustAddElement("depts", types.SetOf(types.StructOf(
		types.F("DName", types.StringT()),
		types.F("DProjs", types.SetOf(types.StringT())),
	)), "extent")
	return s
}

func TestDirectStorage(t *testing.T) {
	base := baseSchema(t)
	phys, deps, all, err := NewDesign(base).Add(DirectStorage{Name: "R"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !phys.Has("R") {
		t.Error("R not in physical schema")
	}
	if len(deps) != 0 {
		t.Error("direct storage needs no constraints")
	}
	if !all.Has("R") || !all.Has("depts") {
		t.Error("combined schema incomplete")
	}
}

func TestDirectStorageUnknownName(t *testing.T) {
	base := baseSchema(t)
	if _, _, _, err := NewDesign(base).Add(DirectStorage{Name: "Nope"}).Build(); err == nil {
		t.Error("unknown element must fail")
	}
}

func TestPrimaryIndexCompile(t *testing.T) {
	base := baseSchema(t)
	phys, deps, all, err := NewDesign(base).
		Add(DirectStorage{Name: "R"}).
		Add(PrimaryIndex{Name: "IA", Relation: "R", Key: "A"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e := phys.Element("IA")
	if e == nil {
		t.Fatal("IA missing")
	}
	if e.Type.String() != "dict<int, {A: int, B: int, C: int}>" {
		t.Errorf("IA type = %s", e.Type)
	}
	if len(deps) != 2 {
		t.Fatalf("deps = %d, want 2", len(deps))
	}
	for _, d := range deps {
		if err := all.CheckDependency(d); err != nil {
			t.Errorf("dependency %s ill-typed: %v", d.Name, err)
		}
	}
	// Forward constraint shape: ∀ r ∈ R ∃ i ∈ dom(IA) ...
	fwd := deps[0]
	if fwd.Name != "PhiIA" || len(fwd.Premise) != 1 || len(fwd.Conclusion) != 1 {
		t.Errorf("unexpected forward dep: %s", fwd)
	}
	if !isFull(fwd) {
		t.Error("primary-index forward constraint should be full (i is determined)")
	}
}

func TestPrimaryIndexErrors(t *testing.T) {
	base := baseSchema(t)
	cases := []PrimaryIndex{
		{Name: "I1", Relation: "Nope", Key: "A"},
		{Name: "I2", Relation: "R", Key: "Nope"},
		{Name: "I3", Relation: "depts", Key: "DProjs"}, // non-base attribute
	}
	for _, c := range cases {
		if _, _, _, err := NewDesign(base).Add(c).Build(); err == nil {
			t.Errorf("index %s should fail", c.Name)
		}
	}
}

func TestSecondaryIndexCompile(t *testing.T) {
	base := baseSchema(t)
	phys, deps, all, err := NewDesign(base).
		Add(DirectStorage{Name: "R"}).
		Add(SecondaryIndex{Name: "SB", Relation: "R", Attribute: "B"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e := phys.Element("SB")
	if e.Type.String() != "dict<int, set<{A: int, B: int, C: int}>>" {
		t.Errorf("SB type = %s", e.Type)
	}
	if len(deps) != 3 {
		t.Fatalf("deps = %d, want 3 (fwd, inv, nonempty)", len(deps))
	}
	names := map[string]bool{}
	for _, d := range deps {
		names[d.Name] = true
		if err := all.CheckDependency(d); err != nil {
			t.Errorf("dependency %s ill-typed: %v", d.Name, err)
		}
	}
	for _, want := range []string{"PhiSB", "PhiSBInv", "PhiSBNE"} {
		if !names[want] {
			t.Errorf("missing dependency %s", want)
		}
	}
}

func TestHashTableCompile(t *testing.T) {
	base := baseSchema(t)
	phys, deps, _, err := NewDesign(base).
		Add(DirectStorage{Name: "R"}).
		Add(HashTable{Name: "HB", Relation: "R", Attribute: "B"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !phys.Has("HB") {
		t.Error("HB missing")
	}
	if len(deps) != 3 {
		t.Errorf("hash table should compile like a secondary index: %d deps", len(deps))
	}
	if !strings.Contains(phys.Element("HB").Doc, "hash") {
		t.Error("doc should mark the structure as a hash table")
	}
}

func TestClassDictCompile(t *testing.T) {
	base := baseSchema(t)
	phys, deps, all, err := NewDesign(base).
		Add(ClassDict{Name: "Dept", Extent: "depts", OIDType: "Doid"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	e := phys.Element("Dept")
	if e == nil || e.Type.Kind != types.KindDict || e.Type.Key.OIDName != "Doid" {
		t.Fatalf("Dept dict wrong: %v", e)
	}
	if len(deps) != 2 {
		t.Fatalf("deps = %d, want 2", len(deps))
	}
	for _, d := range deps {
		if err := all.CheckDependency(d); err != nil {
			t.Errorf("dependency %s ill-typed: %v", d.Name, err)
		}
	}
}

func TestClassDictErrors(t *testing.T) {
	base := baseSchema(t)
	if _, _, _, err := NewDesign(base).Add(ClassDict{Name: "X", Extent: "Nope", OIDType: "O"}).Build(); err == nil {
		t.Error("unknown extent must fail")
	}
}

func TestViewCompile(t *testing.T) {
	base := baseSchema(t)
	v := View{
		Name: "VA",
		Def: &core.Query{
			Out:      core.Struct(core.SF("A", core.Prj(core.V("r"), "A"))),
			Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
			Conds:    []core.Cond{{L: core.Prj(core.V("r"), "B"), R: core.C(1)}},
		},
	}
	phys, deps, all, err := NewDesign(base).Add(DirectStorage{Name: "R"}).Add(v).Build()
	if err != nil {
		t.Fatal(err)
	}
	if phys.Element("VA").Type.String() != "set<{A: int}>" {
		t.Errorf("VA type = %s", phys.Element("VA").Type)
	}
	if len(deps) != 2 {
		t.Fatalf("deps = %d, want 2", len(deps))
	}
	for _, d := range deps {
		if err := all.CheckDependency(d); err != nil {
			t.Errorf("%s ill-typed: %v", d.Name, err)
		}
	}
	// Forward dep is full (v determined by the output equality).
	if !isFull(deps[0]) {
		t.Error("ΦV must be full")
	}
}

func TestViewOverIndex(t *testing.T) {
	// A view defined over a previously compiled structure (here dom of a
	// class dict) must type-check thanks to the incremental combined
	// schema.
	base := baseSchema(t)
	design := NewDesign(base).
		Add(ClassDict{Name: "Dept", Extent: "depts", OIDType: "Doid"}).
		Add(View{
			Name: "OIDs",
			Def: &core.Query{
				Out:      core.Struct(core.SF("O", core.V("o"))),
				Bindings: []core.Binding{{Var: "o", Range: core.Dom(core.Name("Dept"))}},
			},
		})
	_, _, all, err := design.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !all.Has("OIDs") {
		t.Error("view over dict missing")
	}
}

func TestViewBadDefinition(t *testing.T) {
	base := baseSchema(t)
	v := View{
		Name: "Bad",
		Def: &core.Query{
			Out:      core.Prj(core.V("r"), "Nope"),
			Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
		},
	}
	if _, _, _, err := NewDesign(base).Add(v).Build(); err == nil {
		t.Error("ill-typed view definition must fail")
	}
}

func TestJoinIndexCompile(t *testing.T) {
	base := schema.New("rs")
	base.MustAddElement("R", types.SetOf(types.StructOf(
		types.F("K", types.Int()), types.F("B", types.Int()))), "")
	base.MustAddElement("S", types.SetOf(types.StructOf(
		types.F("K", types.Int()), types.F("B", types.Int()))), "")
	ji := JoinIndex{
		View: View{
			Name: "JRS",
			Def: &core.Query{
				Out: core.Struct(
					core.SF("RK", core.Prj(core.V("r"), "K")),
					core.SF("SK", core.Prj(core.V("s"), "K")),
				),
				Bindings: []core.Binding{
					{Var: "r", Range: core.Name("R")},
					{Var: "s", Range: core.Name("S")},
				},
				Conds: []core.Cond{{L: core.Prj(core.V("r"), "B"), R: core.Prj(core.V("s"), "B")}},
			},
		},
		LeftIndex:  &PrimaryIndex{Name: "IRK", Relation: "R", Key: "K"},
		RightIndex: &PrimaryIndex{Name: "ISK", Relation: "S", Key: "K"},
	}
	phys, deps, _, err := NewDesign(base).
		Add(DirectStorage{Name: "R"}).
		Add(DirectStorage{Name: "S"}).
		Add(ji).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"JRS", "IRK", "ISK"} {
		if !phys.Has(n) {
			t.Errorf("join index missing %s", n)
		}
	}
	// 2 view deps + 2 + 2 primary-index deps.
	if len(deps) != 6 {
		t.Errorf("deps = %d, want 6", len(deps))
	}
}

func TestGMapCompile(t *testing.T) {
	base := baseSchema(t)
	g := GMap{
		Name: "GA",
		Bindings: []core.Binding{
			{Var: "r", Range: core.Name("R")},
		},
		Conds:    nil,
		DomOut:   core.Prj(core.V("r"), "A"),
		RangeOut: core.Struct(core.SF("B", core.Prj(core.V("r"), "B")), core.SF("C", core.Prj(core.V("r"), "C"))),
	}
	phys, deps, all, err := NewDesign(base).Add(DirectStorage{Name: "R"}).Add(g).Build()
	if err != nil {
		t.Fatal(err)
	}
	e := phys.Element("GA")
	if e.Type.String() != "dict<int, set<{B: int, C: int}>>" {
		t.Errorf("GA type = %s", e.Type)
	}
	if len(deps) != 2 {
		t.Fatalf("deps = %d, want 2", len(deps))
	}
	for _, d := range deps {
		if err := all.CheckDependency(d); err != nil {
			t.Errorf("%s ill-typed: %v", d.Name, err)
		}
	}
}

func TestDesignDuplicateName(t *testing.T) {
	base := baseSchema(t)
	_, _, _, err := NewDesign(base).
		Add(DirectStorage{Name: "R"}).
		Add(SecondaryIndex{Name: "R", Relation: "R", Attribute: "A"}).
		Build()
	if err == nil {
		t.Error("duplicate physical name must fail")
	}
}
