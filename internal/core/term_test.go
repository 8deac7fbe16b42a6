package core

import (
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	cases := []struct {
		t    *Term
		want string
	}{
		{V("p"), "p"},
		{C(42), "42"},
		{C("CitiBank"), `"CitiBank"`},
		{C(true), "true"},
		{Name("Proj"), "Proj"},
		{Prj(V("p"), "Budg"), "p.Budg"},
		{Dom(Name("Dept")), "dom(Dept)"},
		{Lk(Name("Dept"), V("d")), "Dept[d]"},
		{LkNF(Name("SI"), Prj(V("r"), "B")), "SI{r.B}"},
		{Prj(Lk(Name("Dept"), V("d")), "DName"), "Dept[d].DName"},
		{Struct(SF("PN", V("s")), SF("PB", Prj(V("p"), "Budg"))), "struct(PN: s, PB: p.Budg)"},
		{Prj(Prj(Prj(V("x"), "a"), "b"), "c"), "x.a.b.c"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTermEqual(t *testing.T) {
	a := Prj(Lk(Name("Dept"), V("d")), "DName")
	b := Prj(Lk(Name("Dept"), V("d")), "DName")
	if !a.Equal(b) {
		t.Error("structurally identical terms must be equal")
	}
	if a.Equal(Prj(Lk(Name("Dept"), V("e")), "DName")) {
		t.Error("different key variable must differ")
	}
	if Lk(Name("SI"), V("k")).Equal(LkNF(Name("SI"), V("k"))) {
		t.Error("failing vs non-failing lookup must differ")
	}
	if C(int64(1)).Equal(C("1")) {
		t.Error("int and string constants must differ")
	}
	if V("x").Equal(Name("x")) {
		t.Error("variable and schema name must differ")
	}
	var nilTerm *Term
	if nilTerm.Equal(V("x")) || V("x").Equal(nilTerm) {
		t.Error("nil term equality")
	}
}

func TestCPanicsOnBadType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("C with unsupported type should panic")
		}
	}()
	C(3.14159i)
}

func TestVars(t *testing.T) {
	tm := Struct(
		SF("A", Prj(V("p"), "X")),
		SF("B", Lk(Name("M"), V("k"))),
		SF("C", Dom(Name("M"))),
	)
	vs := tm.Vars()
	if len(vs) != 2 || !vs["p"] || !vs["k"] {
		t.Errorf("Vars = %v, want {p, k}", vs)
	}
	if !tm.MentionsVar("p") || tm.MentionsVar("z") {
		t.Error("MentionsVar wrong")
	}
}

func TestNames(t *testing.T) {
	tm := Lk(Name("Dept"), Prj(V("j"), "DOID"))
	ns := tm.Names()
	if len(ns) != 1 || !ns["Dept"] {
		t.Errorf("Names = %v, want {Dept}", ns)
	}
}

func TestSubst(t *testing.T) {
	tm := Prj(Lk(Name("Dept"), V("d")), "DName")
	got := tm.Subst(map[string]*Term{"d": Prj(V("j"), "DOID")})
	want := Prj(Lk(Name("Dept"), Prj(V("j"), "DOID")), "DName")
	if !got.Equal(want) {
		t.Errorf("Subst = %s, want %s", got, want)
	}
	// Original is unchanged (immutability).
	if !tm.Equal(Prj(Lk(Name("Dept"), V("d")), "DName")) {
		t.Error("Subst must not mutate the receiver")
	}
	// Empty substitution returns the term itself.
	if tm.Subst(nil) != tm {
		t.Error("empty substitution should return the same term")
	}
}

func TestSubstStruct(t *testing.T) {
	tm := Struct(SF("A", V("x")), SF("B", C(1)))
	got := tm.Subst(map[string]*Term{"x": C(7)})
	want := Struct(SF("A", C(7)), SF("B", C(1)))
	if !got.Equal(want) {
		t.Errorf("Subst = %s, want %s", got, want)
	}
}

func TestSubterms(t *testing.T) {
	tm := Prj(Lk(Name("Dept"), V("d")), "DName")
	subs := tm.Subterms()
	// Expected: Dept, d, Dept[d], Dept[d].DName — 4 distinct subterms.
	if len(subs) != 4 {
		t.Errorf("Subterms count = %d, want 4: %v", len(subs), subs)
	}
	// Post-order: the full term must be last.
	if !subs[len(subs)-1].Equal(tm) {
		t.Error("full term should be last in post-order")
	}
}

func TestSubtermsDedup(t *testing.T) {
	tm := Struct(SF("A", V("x")), SF("B", V("x")))
	subs := tm.Subterms()
	// x appears once.
	count := 0
	for _, s := range subs {
		if s.Equal(V("x")) {
			count++
		}
	}
	if count != 1 {
		t.Errorf("x appears %d times, want 1", count)
	}
}

func TestSizeRootGround(t *testing.T) {
	tm := Prj(Lk(Name("Dept"), V("d")), "DName")
	if tm.Size() != 4 {
		t.Errorf("Size = %d, want 4", tm.Size())
	}
	if !tm.Root().Equal(Name("Dept")) {
		t.Errorf("Root = %s, want Dept", tm.Root())
	}
	if got := Dom(Name("M")).Root(); !got.Equal(Name("M")) {
		t.Errorf("Root(dom(M)) = %s", got)
	}
}

func TestSortedVars(t *testing.T) {
	tm := Struct(SF("A", V("z")), SF("B", V("a")), SF("C", V("m")))
	got := tm.SortedVars()
	want := []string{"a", "m", "z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedVars = %v, want %v", got, want)
		}
	}
}

// Property: Subst with a fresh-variable renaming is invertible.
func TestSubstRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		tm := Prj(Lk(Name("M"), V("k")), "F")
		fwd := map[string]*Term{"k": V("k2")}
		bwd := map[string]*Term{"k2": V("k")}
		return tm.Subst(fwd).Subst(bwd).Equal(tm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashKeyInjective(t *testing.T) {
	terms := []*Term{
		V("x"), Name("x"), C("x"),
		Prj(V("x"), "A"), Dom(V("x")),
		Lk(V("x"), V("y")), LkNF(V("x"), V("y")),
		Struct(SF("A", V("x"))),
	}
	seen := make(map[string]*Term)
	for _, tm := range terms {
		k := tm.HashKey()
		if prev, ok := seen[k]; ok {
			t.Errorf("HashKey collision: %s vs %s -> %q", prev, tm, k)
		}
		seen[k] = tm
	}
}
