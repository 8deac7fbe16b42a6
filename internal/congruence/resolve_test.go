package congruence

import (
	"testing"

	"cnb/internal/core"
)

// TestResolveCases pins Rewriter.Resolve and Equates on each of its
// cases, over the closure of x = struct(A: y, B: "c"), x = w, M[y],
// z = struct(A: u), z = struct(A: v, B: "c") with y avoided: an interned
// free term is proven and an avoided one is not; a projection of x
// resolves by Beta through x's constructor, whose variant rewrites y by
// inverse beta as x.A; a lookup over it resolves by a Hit on M[y]; a
// projection of z is Ambiguous and names no class.
func TestResolveCases(t *testing.T) {
	v, c, prj, sf := core.V, core.C, core.Prj, core.SF
	M := core.Name("M")
	cc := New()
	cc.Merge(v("x"), core.Struct(sf("A", v("y")), sf("B", c("c"))))
	cc.Merge(v("x"), v("w"))
	cc.Add(core.Lk(M, v("y")))
	cc.Merge(v("z"), core.Struct(sf("A", v("u"))))
	cc.Merge(v("z"), core.Struct(sf("A", v("v")), sf("B", c("c"))))
	cc.Freeze()
	rw := cc.Rewriter(cc.VarSet(func(name string) bool { return name == "y" }))
	class := func(t *core.Term) int { return cc.Find(cc.byKey[t.HashKey()]) }

	for _, tc := range []struct {
		t             *core.Term
		class         int
		proven, found bool
	}{
		{v("x"), class(v("x")), true, true},
		{v("y"), class(v("y")), false, true},
		{prj(v("x"), "A"), class(v("y")), true, true},
		{prj(v("w"), "B"), class(c("c")), true, true},
		{core.Lk(M, prj(v("w"), "A")), class(core.Lk(M, v("y"))), true, true},
		{core.Lk(M, v("y")), class(core.Lk(M, v("y"))), false, true},
		{prj(v("z"), "A"), 0, false, false},
		{prj(v("x"), "C"), 0, false, false},
	} {
		got, proven, found := rw.Resolve(tc.t)
		if found != tc.found || proven != tc.proven || (found && got != tc.class) {
			t.Errorf("Resolve(%s) = %d, proven %v, found %v; want %d, %v, %v", tc.t, got, proven, found, tc.class, tc.proven, tc.found)
		}
	}
	for _, tc := range []struct {
		a, b *core.Term
		want bool
	}{
		{prj(v("x"), "A"), prj(v("w"), "A"), true},
		{core.Lk(M, prj(v("x"), "A")), core.Lk(M, prj(v("w"), "A")), true},
		{prj(v("x"), "B"), c("c"), true},
		{v("y"), prj(v("x"), "A"), false}, // y is avoided
		{prj(v("z"), "A"), v("u"), false}, // ambiguous: falls back
		{v("x"), v("z"), false},
	} {
		if got := rw.Equates(tc.a, tc.b); got != tc.want {
			t.Errorf("Equates(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
