package planrewrite

import (
	"testing"

	"cnb/internal/core"
)

// TestSimplifyGuardedDomLoop: the §4 shape — dom(M) k, M[k] x with k = t
// — collapses to the single non-failing lookup M{t} x.
func TestSimplifyGuardedDomLoop(t *testing.T) {
	q := &core.Query{
		Out: core.Prj(core.V("x"), "Budg"),
		Bindings: []core.Binding{
			{Var: "k", Range: core.Dom(core.Name("SI"))},
			{Var: "x", Range: core.Lk(core.Name("SI"), core.V("k"))},
		},
		Conds: []core.Cond{{L: core.V("k"), R: core.C("CitiBank")}},
	}
	s := SimplifyLookups(q)
	if len(s.Bindings) != 1 {
		t.Fatalf("bindings = %d, want 1:\n%s", len(s.Bindings), s)
	}
	r := s.Bindings[0].Range
	if r.Kind != core.KLookup || !r.NonFailing {
		t.Errorf("range = %s, want non-failing lookup", r)
	}
	if len(s.Conds) != 0 {
		t.Errorf("guard condition not consumed:\n%s", s)
	}
}

// TestSimplifyLeavesUnguardedLoops: a dom loop without a key equality is
// a genuine scan and must be preserved.
func TestSimplifyLeavesUnguardedLoops(t *testing.T) {
	q := &core.Query{
		Out: core.V("k"),
		Bindings: []core.Binding{
			{Var: "k", Range: core.Dom(core.Name("SI"))},
			{Var: "x", Range: core.Lk(core.Name("SI"), core.V("k"))},
		},
	}
	s := SimplifyLookups(q)
	if len(s.Bindings) != 2 {
		t.Errorf("unguarded dom loop was rewritten:\n%s", s)
	}
}

// TestSimplifyRefusesIndirectKeyUse: when the key variable is used in a
// range other than the direct lookup, the rewrite does not apply.
func TestSimplifyRefusesIndirectKeyUse(t *testing.T) {
	q := &core.Query{
		Out: core.Prj(core.V("x"), "A"),
		Bindings: []core.Binding{
			{Var: "k", Range: core.Dom(core.Name("M"))},
			{Var: "x", Range: core.Lk(core.Name("M"), core.Prj(core.V("k"), "F"))},
		},
		Conds: []core.Cond{{L: core.V("k"), R: core.C("c")}},
	}
	s := SimplifyLookups(q)
	if len(s.Bindings) != 2 {
		t.Errorf("indirect key use was rewritten:\n%s", s)
	}
}

func TestSimplifyLookupsP3(t *testing.T) {
	// dom(SI) k, SI[k] t where k = "CitiBank"  →  SI{"CitiBank"} t
	q := &core.Query{
		Out: core.Prj(core.V("t"), "PName"),
		Bindings: []core.Binding{
			{Var: "k", Range: core.Dom(core.Name("SI"))},
			{Var: "t", Range: core.Lk(core.Name("SI"), core.V("k"))},
		},
		Conds: []core.Cond{{L: core.V("k"), R: core.C("CitiBank")}},
	}
	s := SimplifyLookups(q)
	if len(s.Bindings) != 1 {
		t.Fatalf("bindings = %d, want 1:\n%s", len(s.Bindings), s)
	}
	want := core.LkNF(core.Name("SI"), core.C("CitiBank"))
	if !s.Bindings[0].Range.Equal(want) {
		t.Errorf("range = %s, want %s", s.Bindings[0].Range, want)
	}
	if len(s.Conds) != 0 {
		t.Errorf("guard condition should be consumed: %s", s)
	}
}

func TestSimplifyLookupsSubstitutesEverywhere(t *testing.T) {
	// The §4 final step: dom(IS) p, IS[p] s' where p = r'.B becomes
	// IS{r'.B} s'.
	q := &core.Query{
		Out: core.Struct(
			core.SF("B", core.Prj(core.V("s2"), "B")),
			core.SF("K", core.V("p")),
		),
		Bindings: []core.Binding{
			{Var: "r2", Range: core.Name("Rx")},
			{Var: "p", Range: core.Dom(core.Name("IS"))},
			{Var: "s2", Range: core.Lk(core.Name("IS"), core.V("p"))},
		},
		Conds: []core.Cond{{L: core.V("p"), R: core.Prj(core.V("r2"), "B")}},
	}
	s := SimplifyLookups(q)
	if len(s.Bindings) != 2 {
		t.Fatalf("bindings = %d, want 2:\n%s", len(s.Bindings), s)
	}
	// Output K must be rewritten to r2.B.
	if !s.Out.Fields[1].Term.Equal(core.Prj(core.V("r2"), "B")) {
		t.Errorf("output not substituted: %s", s.Out)
	}
}

func TestSimplifyLookupsRefusesIndirectUse(t *testing.T) {
	// k used inside a deeper range (projection over the lookup): no
	// simplification (a failing lookup would be left unguarded).
	q := &core.Query{
		Out: core.V("s"),
		Bindings: []core.Binding{
			{Var: "k", Range: core.Dom(core.Name("Dept"))},
			{Var: "s", Range: core.Prj(core.Lk(core.Name("Dept"), core.V("k")), "DProjs")},
		},
		Conds: []core.Cond{{L: core.V("k"), R: core.C("X")}},
	}
	s := SimplifyLookups(q)
	if len(s.Bindings) != 2 {
		t.Errorf("indirect lookup must not be simplified:\n%s", s)
	}
}

func TestSimplifyLookupsNoGuardNoChange(t *testing.T) {
	// Without a key equality the dom loop must stay.
	q := &core.Query{
		Out: core.V("t"),
		Bindings: []core.Binding{
			{Var: "k", Range: core.Dom(core.Name("SI"))},
			{Var: "t", Range: core.Lk(core.Name("SI"), core.V("k"))},
		},
	}
	s := SimplifyLookups(q)
	if len(s.Bindings) != 2 {
		t.Errorf("unguarded dom loop must stay:\n%s", s)
	}
}
