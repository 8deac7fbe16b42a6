package congruence

import (
	"testing"

	"cnb/internal/core"
)

// TestLookupOutcomes: a lookup by operator and child classes finds a
// congruent node (Hit), the field of a constructor in the base class
// (Beta), nothing (Miss), or, with constructors whose fields lie in
// different classes, no read-only answer (Ambiguous) — and interns
// nothing.
func TestLookupOutcomes(t *testing.T) {
	v, prj, sf := core.V, core.Prj, core.SF
	c := New()
	c.Merge(v("x"), v("y"))
	c.Add(prj(v("y"), "A"))
	c.Merge(v("s"), core.Struct(sf("A", v("a")), sf("B", v("b"))))
	c.Merge(v("u"), core.Struct(sf("A", v("d")), sf("B", v("b"))))
	c.Merge(v("u"), core.Struct(sf("A", v("c"))))
	c.Freeze()
	n, ver := c.Len(), c.Version()
	rep := func(t *core.Term) int {
		r, ok := c.LookupLeaf(t)
		if !ok {
			panic("absent leaf " + t.String())
		}
		return r
	}
	projA := OpOf(prj(v("x"), "A"))
	if r, st := c.Lookup(projA, []int{rep(v("x"))}); st != Hit || r != c.Rep(prj(v("y"), "A")) {
		t.Errorf("x.A with x = y and y.A interned: %v %d, want Hit on y.A's class", st, r)
	}
	if r, st := c.Lookup(projA, []int{rep(v("s"))}); st != Beta || r != rep(v("a")) {
		t.Errorf("s.A with s = struct(A: a, ...): %v %d, want Beta on a's class", st, r)
	}
	if _, st := c.Lookup(OpOf(prj(v("x"), "B")), []int{rep(v("x"))}); st != Miss {
		t.Errorf("x.B: %v, want Miss", st)
	}
	if _, st := c.Lookup(projA, []int{rep(v("u"))}); st != Ambiguous {
		t.Errorf("u.A with u = struct(A: d, B: b) = struct(A: c): %v, want Ambiguous", st)
	}

	p := c.NewProbe()
	z1, z2 := p.Leaf(v("z")), p.Leaf(v("z"))
	if z1 >= 0 || z1 != z2 {
		t.Errorf("absent leaf z: virtual ids %d, %d; want one negative id", z1, z2)
	}
	zA1, _ := p.Apply(projA, []int{z1})
	zA2, _ := p.Apply(projA, []int{z2})
	if zA1 >= 0 || zA1 != zA2 || zA1 == z1 {
		t.Errorf("z.A twice: %d, %d; want one new virtual id", zA1, zA2)
	}
	st, _ := p.Apply(OpOf(core.Struct(sf("A", v("z")))), []int{z1})
	if got, _ := p.Apply(projA, []int{st}); got != z1 {
		t.Errorf("struct(A: z).A = %d, want z's virtual id %d (beta on a virtual constructor)", got, z1)
	}
	if _, ok := p.Apply(projA, []int{rep(v("u"))}); ok {
		t.Error("a probe must not answer an ambiguous projection")
	}
	if c.Len() != n || c.Version() != ver {
		t.Error("lookups changed the closure")
	}
}

// TestFeatureBitsLogUnions: class features are bitsets over the
// universe; a union logs both classes' features, and features outside
// the universe are dropped.
func TestFeatureBitsLogUnions(t *testing.T) {
	v, prj := core.V, core.Prj
	u := NewFeatures([]string{".A", "!R", core.FeatVar})
	c := New()
	c.Add(prj(v("x"), "A"))
	c.Add(prj(v("y"), "B"))
	c.TrackFeatures(u)
	bits := func(s FeatureSet) []string {
		var out []string
		s.Each(func(b int) { out = append(out, u.Key(b)) })
		return out
	}
	if got := bits(c.ClassFeatures(prj(v("x"), "A"))); len(got) != 1 || got[0] != ".A" {
		t.Errorf("x.A class features %v, want [.A]", got)
	}
	if c.TakeTouched() != nil {
		t.Error("nothing merged yet, but touched is not empty")
	}
	c.Merge(prj(v("x"), "A"), prj(v("y"), "B"))
	if got := bits(c.TakeTouched()); len(got) != 1 || got[0] != ".A" {
		t.Errorf("touched after x.A = y.B: %v, want [.A] (.B is outside the universe)", got)
	}
	c.Merge(v("x"), v("y"))
	if got := bits(c.TakeTouched()); len(got) != 1 || got[0] != core.FeatVar {
		t.Errorf("touched after x = y: %v, want [?]", got)
	}
}
