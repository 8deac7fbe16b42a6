package parser

import (
	"strings"
	"testing"

	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/eval"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

// projDeptSource is the paper's running example in the surface syntax.
const projDeptSource = `
-- Figure 2: the logical ProjDept schema.
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

-- Figure 3: the physical design.
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

func TestParseProjDept(t *testing.T) {
	doc, err := Parse(projDeptSource)
	if err != nil {
		t.Fatal(err)
	}
	logical := doc.Schemas["Logical"]
	if logical == nil {
		t.Fatal("Logical schema missing")
	}
	if len(logical.Dependencies()) != 6 {
		t.Errorf("constraints = %d, want 6", len(logical.Dependencies()))
	}
	design := doc.Designs["Phys"]
	if design == nil {
		t.Fatal("Phys design missing")
	}
	for _, n := range []string{"Proj", "Dept", "I", "SI", "JI"} {
		if !design.Physical.Has(n) {
			t.Errorf("physical schema missing %s", n)
		}
	}
	if len(design.Deps) != 9 {
		t.Errorf("design deps = %d, want 9", len(design.Deps))
	}
	q := doc.Queries["Q"]
	if q == nil {
		t.Fatal("query Q missing")
	}
	if len(q.Bindings) != 3 || len(q.Conds) != 2 {
		t.Errorf("query shape wrong:\n%s", q)
	}
}

// TestParsedCatalogMatchesProgrammatic checks that the parsed catalog is
// exactly the programmatic workload catalog: same constraints (up to
// renaming) and the same universal plan for Q.
func TestParsedCatalogMatchesProgrammatic(t *testing.T) {
	doc, err := Parse(projDeptSource)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	deps := append(doc.Designs["Phys"].Deps, doc.Schemas["Logical"].Dependencies()...)
	parsedU, err := chase.Chase(doc.Queries["Q"], deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	progU, err := chase.Chase(pd.Q, pd.AllDeps(), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(parsedU.Query.Bindings) != len(progU.Query.Bindings) {
		t.Errorf("universal plans differ: %d vs %d bindings",
			len(parsedU.Query.Bindings), len(progU.Query.Bindings))
	}
}

// TestParsedPipelineEndToEnd runs the full optimizer on the parsed input
// and validates the best plan on generated data.
func TestParsedPipelineEndToEnd(t *testing.T) {
	doc, err := Parse(projDeptSource)
	if err != nil {
		t.Fatal(err)
	}
	design := doc.Designs["Phys"]
	deps := append(design.Deps, doc.Schemas["Logical"].Dependencies()...)
	res, err := optimizer.Optimize(doc.Queries["Q"], optimizer.Options{
		Deps:          deps,
		PhysicalNames: design.Physical.NameSet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no plan")
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{Seed: 5})
	want, err := eval.Query(doc.Queries["Q"], in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.Query(res.Best.Query, in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("parsed best plan differs from Q on data")
	}
}

func TestParseTypes(t *testing.T) {
	doc, err := Parse(`
schema S {
  A : int;
  B : set<float>;
  C : dict<string, set<{X: int, Y: bool}>>;
  D : set<Doid>;
}`)
	if err != nil {
		t.Fatal(err)
	}
	s := doc.Schemas["S"]
	cases := map[string]string{
		"A": "int",
		"B": "set<float>",
		"C": "dict<string, set<{X: int, Y: bool}>>",
		"D": "set<Doid>",
	}
	for n, want := range cases {
		if got := s.Element(n).Type.String(); got != want {
			t.Errorf("%s: %s, want %s", n, got, want)
		}
	}
}

func TestParseTermForms(t *testing.T) {
	doc, err := Parse(`
schema S {
  M : dict<string, set<{A: int}>>;
  R : set<{A: int, B: string}>;
}
query Q1: select struct(K: k, E: t.A) from dom(M) k, M[k] t;
query Q2: select t.A from M{"key"} t;
query Q3: select r.A from R r where r.B = "x" and r.A = 3;
`)
	if err != nil {
		t.Fatal(err)
	}
	q1 := doc.Queries["Q1"]
	if q1.Bindings[1].Range.Kind != core.KLookup || q1.Bindings[1].Range.NonFailing {
		t.Errorf("Q1 failing lookup wrong: %s", q1)
	}
	q2 := doc.Queries["Q2"]
	if !q2.Bindings[0].Range.NonFailing {
		t.Errorf("Q2 non-failing lookup wrong: %s", q2)
	}
	q3 := doc.Queries["Q3"]
	if len(q3.Conds) != 2 {
		t.Errorf("Q3 conds wrong: %s", q3)
	}
	if !q3.Conds[1].R.Equal(core.C(3)) {
		t.Errorf("integer constant wrong: %s", q3.Conds[1])
	}
}

func TestParseConstraintForms(t *testing.T) {
	doc, err := Parse(`
schema S {
  R : set<{A: int, B: int}>;
  T : set<{A: int}>;
  constraint Inc: forall (r in R) exists (t in T) t.A = r.A;
  constraint FD: forall (x in R, y in R) x.A = y.A -> x = y;
  constraint NoCond: forall (r in R) exists (t in T);
  constraint PlainEGD: forall (r in R) r.A = r.B;
}`)
	if err != nil {
		t.Fatal(err)
	}
	deps := doc.Schemas["S"].Dependencies()
	if len(deps) != 4 {
		t.Fatalf("deps = %d, want 4", len(deps))
	}
	byName := map[string]*core.Dependency{}
	for _, d := range deps {
		byName[d.Name] = d
	}
	if byName["Inc"].IsEGD() {
		t.Error("Inc is a TGD")
	}
	if !byName["FD"].IsEGD() {
		t.Error("FD is an EGD")
	}
	if len(byName["FD"].PremiseConds) != 1 {
		t.Error("FD premise conds wrong")
	}
	if len(byName["NoCond"].Conclusion) != 1 || len(byName["NoCond"].ConclusionConds) != 0 {
		t.Error("NoCond shape wrong")
	}
	if !byName["PlainEGD"].IsEGD() || len(byName["PlainEGD"].ConclusionConds) != 1 {
		t.Error("PlainEGD shape wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"schema S { A : int }", `expected ";"`},
		{"schema S { A : int; } schema S { B : int; }", "duplicate schema"},
		{"query Q: select x from R r;", "unknown identifier"},
		{"schema S { R : set<{A: int}>; } query Q: select r.Nope from R r;", "no field"},
		{"schema S { R : set<{A: int}>; } query Q: select r.A from R r where r.A = \"x\";", "compares"},
		{"bogus", "expected schema"},
		{"schema S { R: set<{A:int}>; } design D over Missing { store R; }", "unknown base schema"},
		{"schema S { R: set<{A:int}>; } design D over S { primary index I on R(Nope); }", "no attribute"},
		{"schema S { R: set<{A:int}>; } design D over S { store R; } design D over S { store R; }", "duplicate design"},
		{`schema S { R: set<{A:int}>; } query Q: select r.A from R r where r.A = 1e5;`, `expected ";"`},
		{`schema S { R: set<{A:int}>; } query Q: select r.A from R r where r.A = @;`, "unexpected character"},
		{`query`, "expected identifier"},
		{`schema S { R: set<{A:int}>; } query Q: select r.A from R r where;`, "expected a path"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) error %q, want fragment %q", c.src, err, c.frag)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("schema S {\n  A : bogus<;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
}

func TestParseComments(t *testing.T) {
	doc, err := Parse(`
-- a line comment
// another comment style
schema S {
  R : set<{A: int}>; -- trailing comment
}
query Q: select r.A from R r;
`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Queries["Q"] == nil {
		t.Error("query missing")
	}
}

func TestParseStringEscapes(t *testing.T) {
	doc, err := Parse(`
schema S { R : set<{A: string}>; }
query Q: select r.A from R r where r.A = "a\"b\n";
`)
	if err != nil {
		t.Fatal(err)
	}
	c := doc.Queries["Q"].Conds[0]
	if c.R.Val.(string) != "a\"b\n" {
		t.Errorf("escape handling wrong: %q", c.R.Val)
	}
}

func TestParseHashtableAndGmapDesigns(t *testing.T) {
	doc, err := Parse(`
schema S { R : set<{A: int, B: int}>; }
design D over S {
  store R;
  hashtable H on R(B);
}`)
	if err != nil {
		t.Fatal(err)
	}
	d := doc.Designs["D"]
	if !d.Physical.Has("H") {
		t.Error("hashtable missing")
	}
	if len(d.Deps) != 3 {
		t.Errorf("hashtable deps = %d, want 3", len(d.Deps))
	}
}

func TestQueryOrderPreserved(t *testing.T) {
	doc, err := Parse(`
schema S { R : set<{A: int}>; }
query Q2: select r.A from R r;
query Q1: select r.A from R r;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.QueryOrder) != 2 || doc.QueryOrder[0] != "Q2" || doc.QueryOrder[1] != "Q1" {
		t.Errorf("QueryOrder = %v", doc.QueryOrder)
	}
}

// TestDocumentTarget: the only design is implied, an unknown name is an
// error, and the dependency list is the design's followed by every
// schema's in schema-name order, whatever the declaration order.
func TestDocumentTarget(t *testing.T) {
	doc, err := Parse(projDeptSource)
	if err != nil {
		t.Fatal(err)
	}
	target, err := doc.Target("")
	if err != nil {
		t.Fatal(err)
	}
	phys := doc.Designs["Phys"]
	if target.Design != phys || !target.PhysicalNames["SI"] {
		t.Fatalf("implied design = %v, physical names %v; want Phys", target.Design, target.PhysicalNames)
	}
	if want := len(phys.Deps) + len(doc.Schemas["Logical"].Dependencies()); len(target.Deps) != want {
		t.Errorf("deps = %d, want %d", len(target.Deps), want)
	}
	if _, err := doc.Target("Nope"); err == nil || !strings.Contains(err.Error(), `unknown design "Nope"`) {
		t.Errorf("unknown design: err = %v", err)
	}

	multi, err := Parse(`
schema Z { R : set<{A: int}>; constraint KZ: forall (x in R, y in R) x.A = y.A -> x = y; }
schema Y { S : set<{A: int}>; constraint KY: forall (x in S, y in S) x.A = y.A -> x = y; }
schema X { T : set<{A: int}>; constraint KX: forall (x in T, y in T) x.A = y.A -> x = y; }
`)
	if err != nil {
		t.Fatal(err)
	}
	target, err = multi.Target("")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range target.Deps {
		names = append(names, d.Name)
	}
	if got := strings.Join(names, ","); got != "KX,KY,KZ" || target.Design != nil || target.PhysicalNames != nil {
		t.Errorf("deps = %s (design %v), want KX,KY,KZ with no design", got, target.Design)
	}
}

// TestParseRejectsSelfNestingConstructor: the document front end (what
// cnbd parses) rejects the query on which the backchase's rewriting is
// exponential. Its binding M[v0] needs a dictionary keyed by v0's record
// type, which holds the collection v0.A, and no dictionary key may hold a
// collection; and its condition v0 = struct(A: v1.A, B: struct(A: v0,
// B: v1)) has no finite type (schema's
// TestCheckQueryRejectsSelfNestingConstructor).
func TestParseRejectsSelfNestingConstructor(t *testing.T) {
	const src = `
schema Nest {
  S : set<{A: set<int>, B: int}>;
  M : dict<int, set<{A: int, B: int}>>;
}

query Q:
  select v2.B.B
  from S v0, M[v0] v1, v0.A v2
  where struct(A: struct(A: v1, B: v1), B: v0) = struct(A: v1.A, B: v1)
    and v0 = struct(A: v1.A, B: struct(A: v0, B: v1))
    and v0.B = struct(A: v0.B, B: v0);
`
	doc, err := Parse(src)
	if err == nil {
		t.Fatalf("Parse accepted the query:\n%s", doc.Queries["Q"])
	}
	t.Log(err)
}
