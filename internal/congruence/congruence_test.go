package congruence

import (
	"slices"
	"testing"
	"testing/quick"

	"cnb/internal/core"
)

func TestBasicMergeAndSame(t *testing.T) {
	c := New()
	x, y := core.V("x"), core.V("y")
	if c.Same(x, y) {
		t.Error("fresh variables must not be equal")
	}
	c.Merge(x, y)
	if !c.Same(x, y) {
		t.Error("merged variables must be equal")
	}
	if !c.Same(x, x) {
		t.Error("reflexivity")
	}
}

func TestTransitivity(t *testing.T) {
	c := New()
	c.Merge(core.V("a"), core.V("b"))
	c.Merge(core.V("b"), core.V("c"))
	if !c.Same(core.V("a"), core.V("c")) {
		t.Error("transitivity must hold")
	}
}

func TestCongruenceProjection(t *testing.T) {
	c := New()
	// p = q implies p.A = q.A.
	pa := core.Prj(core.V("p"), "A")
	qa := core.Prj(core.V("q"), "A")
	c.Add(pa)
	c.Add(qa)
	c.Merge(core.V("p"), core.V("q"))
	if !c.Same(pa, qa) {
		t.Error("congruence over projections must propagate")
	}
	// ... but p.A != q.B.
	if c.Same(pa, core.Prj(core.V("q"), "B")) {
		t.Error("different fields must not merge")
	}
}

func TestCongruenceAfterTheFact(t *testing.T) {
	c := New()
	// Merge first, add compound terms later: adding must still detect
	// congruence with existing nodes.
	c.Merge(core.V("p"), core.V("q"))
	pa := core.Prj(core.V("p"), "A")
	qa := core.Prj(core.V("q"), "A")
	c.Add(pa)
	if !c.Same(pa, qa) {
		t.Error("congruence must hold for terms added after the merge")
	}
}

func TestCongruenceLookup(t *testing.T) {
	c := New()
	// k1 = k2 implies M[k1] = M[k2] (functional reading of dicts).
	l1 := core.Lk(core.Name("M"), core.V("k1"))
	l2 := core.Lk(core.Name("M"), core.V("k2"))
	c.Add(l1)
	c.Add(l2)
	if c.Same(l1, l2) {
		t.Error("lookups with unmerged keys should differ")
	}
	c.Merge(core.V("k1"), core.V("k2"))
	if !c.Same(l1, l2) {
		t.Error("equal keys must give equal lookups")
	}
	// Failing and non-failing lookups never merge by congruence.
	nf := core.LkNF(core.Name("M"), core.V("k1"))
	c.Add(nf)
	if c.Same(l1, nf) {
		t.Error("failing vs non-failing lookups are distinct operators")
	}
}

func TestCongruenceDom(t *testing.T) {
	c := New()
	d1 := core.Dom(core.V("m1"))
	d2 := core.Dom(core.V("m2"))
	c.Add(d1)
	c.Add(d2)
	c.Merge(core.V("m1"), core.V("m2"))
	if !c.Same(d1, d2) {
		t.Error("dom must be congruent")
	}
}

func TestNestedCongruence(t *testing.T) {
	c := New()
	// d = j.DOID implies Dept[d].DName = Dept[j.DOID].DName — the exact
	// reasoning used in deriving plan P4 of the paper.
	lhs := core.Prj(core.Lk(core.Name("Dept"), core.V("d")), "DName")
	rhs := core.Prj(core.Lk(core.Name("Dept"), core.Prj(core.V("j"), "DOID")), "DName")
	c.Add(lhs)
	c.Add(rhs)
	c.Merge(core.V("d"), core.Prj(core.V("j"), "DOID"))
	if !c.Same(lhs, rhs) {
		t.Error("nested congruence through lookup+projection must propagate")
	}
}

func TestStructInjectivity(t *testing.T) {
	c := New()
	s1 := core.Struct(core.SF("A", core.V("x")), core.SF("B", core.V("y")))
	s2 := core.Struct(core.SF("A", core.V("u")), core.SF("B", core.V("v")))
	c.Add(s1)
	c.Add(s2)
	c.Merge(s1, s2)
	if !c.Same(core.V("x"), core.V("u")) || !c.Same(core.V("y"), core.V("v")) {
		t.Error("struct injectivity must equate corresponding fields")
	}
}

func TestStructInjectivityDifferentShapes(t *testing.T) {
	c := New()
	s1 := core.Struct(core.SF("A", core.V("x")))
	s2 := core.Struct(core.SF("B", core.V("y")))
	c.Merge(s1, s2) // ill-typed assertion, but must not crash or equate x,y
	if c.Same(core.V("x"), core.V("y")) {
		t.Error("different field names must not trigger injectivity")
	}
}

func TestBetaProjectionOverConstructor(t *testing.T) {
	c := New()
	// v = struct(A: r.A) implies v.A = r.A — needed to reason about view
	// tuples in ΦV' (§2 and the §4 example).
	v := core.V("v")
	ra := core.Prj(core.V("r"), "A")
	s := core.Struct(core.SF("A", ra))
	va := core.Prj(v, "A")
	c.Add(va)
	c.Merge(v, s)
	if !c.Same(va, ra) {
		t.Error("beta: v.A must equal r.A after v = struct(A: r.A)")
	}
}

func TestBetaWhenProjectionAddedLater(t *testing.T) {
	c := New()
	v := core.V("v")
	ra := core.Prj(core.V("r"), "A")
	c.Merge(v, core.Struct(core.SF("A", ra)))
	// Projection interned only now.
	va := core.Prj(v, "A")
	if !c.Same(va, ra) {
		t.Error("beta must fire for projections added after the merge")
	}
}

func TestBetaChainsIntoCongruence(t *testing.T) {
	c := New()
	// v = struct(A: x), x = y  =>  v.A = y
	c.Merge(core.V("v"), core.Struct(core.SF("A", core.V("x"))))
	c.Merge(core.V("x"), core.V("y"))
	if !c.Same(core.Prj(core.V("v"), "A"), core.V("y")) {
		t.Error("beta + transitivity")
	}
}

func TestClassMembersDeterministic(t *testing.T) {
	c := New()
	c.Merge(core.V("b"), core.V("a"))
	c.Merge(core.V("c"), core.V("a"))
	ms := c.ClassMembers(core.V("a"))
	if len(ms) != 3 {
		t.Fatalf("class size = %d, want 3", len(ms))
	}
	// Sorted by HashKey: ?a, ?b, ?c.
	if ms[0].Name != "a" || ms[1].Name != "b" || ms[2].Name != "c" {
		t.Errorf("members not sorted: %v", ms)
	}
}

func TestClasses(t *testing.T) {
	c := New()
	c.Merge(core.V("a"), core.V("b"))
	c.Add(core.V("z"))
	cls := c.Classes()
	if len(cls) != 2 {
		t.Fatalf("classes = %d, want 2", len(cls))
	}
}

func TestContainsAndLen(t *testing.T) {
	c := New()
	tm := core.Prj(core.V("p"), "A")
	if c.Contains(tm) {
		t.Error("not yet interned")
	}
	c.Add(tm)
	if !c.Contains(tm) || !c.Contains(core.V("p")) {
		t.Error("Add must intern term and subterms")
	}
	if len(c.nodes) != 2 {
		t.Errorf("Len = %d, want 2", len(c.nodes))
	}
	if _, ok := c.ID(tm); !ok {
		t.Error("ID should find interned term")
	}
	if _, ok := c.ID(core.V("nope")); ok {
		t.Error("ID should not find missing term")
	}
}

// rewrite interns t, freezes c and rewrites t away from avoid.
func rewrite(c *Closure, t *core.Term, avoid ...string) (*core.Term, bool) {
	id := c.Add(t)
	c.Freeze()
	return c.Rewriter(c.VarSet(func(v string) bool { return slices.Contains(avoid, v) })).Rewrite(id)
}

func TestRewriteAvoidsVariable(t *testing.T) {
	c := New()
	// From the P2 derivation: d.DName = p.PDept, so the output field DN
	// can be rewritten from d.DName to p.PDept, avoiding d.
	c.Merge(core.Prj(core.V("d"), "DName"), core.Prj(core.V("p"), "PDept"))
	got, ok := rewrite(c, core.Prj(core.V("d"), "DName"), "d")
	if !ok {
		t.Fatal("rewrite should succeed")
	}
	if !got.Equal(core.Prj(core.V("p"), "PDept")) {
		t.Errorf("Rewrite = %s, want p.PDept", got)
	}
}

func TestRewriteRecursive(t *testing.T) {
	c := New()
	// d = j.DOID; rewrite Dept[d].DName avoiding d must rebuild via the
	// congruent key even though the full term has no direct class member.
	c.Merge(core.V("d"), core.Prj(core.V("j"), "DOID"))
	in := core.Prj(core.Lk(core.Name("Dept"), core.V("d")), "DName")
	got, ok := rewrite(c, in, "d")
	if !ok {
		t.Fatal("recursive rewrite should succeed")
	}
	want := core.Prj(core.Lk(core.Name("Dept"), core.Prj(core.V("j"), "DOID")), "DName")
	if !got.Equal(want) {
		t.Errorf("Rewrite = %s, want %s", got, want)
	}
}

func TestRewriteFails(t *testing.T) {
	c := New()
	c.Add(core.V("x"))
	if _, ok := rewrite(c, core.V("x"), "x"); ok {
		t.Error("rewrite of an isolated avoided variable must fail")
	}
}

func TestRewriteStruct(t *testing.T) {
	c := New()
	c.Merge(core.V("s"), core.Prj(core.V("p"), "PName"))
	in := core.Struct(core.SF("PN", core.V("s")), core.SF("PB", core.Prj(core.V("p"), "Budg")))
	got, ok := rewrite(c, in, "s")
	if !ok {
		t.Fatal("struct rewrite should succeed")
	}
	want := core.Struct(core.SF("PN", core.Prj(core.V("p"), "PName")), core.SF("PB", core.Prj(core.V("p"), "Budg")))
	if !got.Equal(want) {
		t.Errorf("Rewrite = %s, want %s", got, want)
	}
}

func TestRewriteNoAvoidNeeded(t *testing.T) {
	c := New()
	tm := core.Prj(core.V("p"), "A")
	got, ok := rewrite(c, tm, "z")
	if !ok || got != tm {
		t.Error("terms free of avoided vars rewrite to themselves")
	}
}

// Property: Same is an equivalence relation on a random merge script.
func TestSameEquivalenceProperty(t *testing.T) {
	vars := []*core.Term{core.V("a"), core.V("b"), core.V("c"), core.V("d"), core.V("e")}
	f := func(script []uint8) bool {
		c := New()
		for _, v := range vars {
			c.Add(v)
		}
		for _, s := range script {
			i := int(s) % len(vars)
			j := int(s/8) % len(vars)
			c.Merge(vars[i], vars[j])
		}
		// Reflexive, symmetric, transitive on all triples.
		for _, x := range vars {
			if !c.Same(x, x) {
				return false
			}
			for _, y := range vars {
				if c.Same(x, y) != c.Same(y, x) {
					return false
				}
				for _, z := range vars {
					if c.Same(x, y) && c.Same(y, z) && !c.Same(x, z) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: congruence always lifts merges through a projection.
func TestCongruenceLiftProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		c := New()
		vars := []*core.Term{core.V("v0"), core.V("v1"), core.V("v2"), core.V("v3")}
		projs := make([]*core.Term, len(vars))
		for i, v := range vars {
			projs[i] = core.Prj(v, "F")
			c.Add(projs[i])
		}
		for _, p := range pairs {
			i := int(p) % len(vars)
			j := int(p/4) % len(vars)
			c.Merge(vars[i], vars[j])
		}
		for i := range vars {
			for j := range vars {
				if c.Same(vars[i], vars[j]) && !c.Same(projs[i], projs[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
