package congruence

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cnb/internal/core"
)

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a frozen closure did not panic", what)
		}
	}()
	f()
}

// TestFreezePanicsOnGrowth: after Freeze, interning a new term or
// merging panics; queries over present terms still answer.
func TestFreezePanicsOnGrowth(t *testing.T) {
	x, y := core.V("x"), core.V("y")
	c := New()
	c.Merge(core.Prj(x, "A"), core.C(1))
	c.Add(y)
	c.Freeze()

	mustPanic(t, "Add of a new term", func() { c.Add(core.Prj(y, "A")) })
	mustPanic(t, "Merge", func() { c.Merge(x, y) })
	mustPanic(t, "Merge of already-equal terms", func() { c.Merge(core.Prj(x, "A"), core.C(1)) })
	mustPanic(t, "Same on an absent term", func() { c.Same(x, core.V("z")) })
	mustPanic(t, "ClassMembers of an absent term", func() { c.ClassMembers(core.V("z")) })

	if !c.Same(core.Prj(x, "A"), core.C(1)) || c.Same(x, y) {
		t.Error("frozen closure answers Same wrongly")
	}
	if id := c.Add(x); c.Rep(x) != c.find(id) {
		t.Error("Add of a present term must return its id")
	}
	c.Freeze() // idempotent

	// A clone of a frozen closure is mutable again, and independent.
	cl := c.Clone()
	cl.Merge(x, y)
	if !cl.Same(core.Prj(y, "A"), core.C(1)) {
		t.Error("clone of a frozen closure must derive y.A = 1 after x = y")
	}
	if c.Contains(core.Prj(y, "A")) {
		t.Error("clone leaked a term into the frozen original")
	}
}

// randomClosure builds a closure over random projection, lookup, dom and
// struct terms of a few variables, with random merges.
func randomClosure(r *rand.Rand) (*Closure, []*core.Term) {
	vars := []*core.Term{core.V("a"), core.V("b"), core.V("c"), core.V("d")}
	terms := append([]*core.Term(nil), vars...)
	pick := func() *core.Term { return terms[r.Intn(len(terms))] }
	for i := 0; i < 12; i++ {
		var t *core.Term
		switch r.Intn(5) {
		case 0:
			t = core.Prj(pick(), fmt.Sprintf("F%d", r.Intn(3)))
		case 1:
			t = core.Lk(core.Name(fmt.Sprintf("M%d", r.Intn(2))), pick())
		case 2:
			t = core.Dom(core.Name("M0"))
		case 3:
			t = core.Struct(core.SF("A", pick()), core.SF("B", pick()))
		default:
			t = core.C(r.Intn(3))
		}
		terms = append(terms, t)
	}
	c := New()
	for _, t := range terms {
		c.Add(t)
	}
	for i := r.Intn(6); i > 0; i-- {
		l, rt := pick(), pick()
		if l.Kind == core.KConst && rt.Kind == core.KConst {
			continue
		}
		c.Merge(l, rt)
	}
	return c, terms
}

// keys renders a term list as its HashKeys, joined.
func keys(ts []*core.Term) string {
	ks := make([]string, len(ts))
	for i, t := range ts {
		ks[i] = t.HashKey()
	}
	return strings.Join(ks, " | ")
}

// TestFreezeKeepsClasses: on random closures, ClassMembers of every
// interned term and the whole Classes partition are the same before and
// after Freeze.
func TestFreezeKeepsClasses(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		c, _ := randomClosure(r)
		all := c.Terms()
		before := make([]string, len(all))
		for i, tm := range all {
			before[i] = keys(c.ClassMembers(tm))
		}
		var classesBefore []string
		for _, class := range c.Classes() {
			classesBefore = append(classesBefore, keys(class))
		}

		c.Freeze()
		if c.Len() != len(all) {
			t.Fatalf("trial %d: Freeze interned terms (%d -> %d)", trial, len(all), c.Len())
		}
		for i, tm := range all {
			if got := keys(c.ClassMembers(tm)); got != before[i] {
				t.Fatalf("trial %d: ClassMembers(%s) after Freeze\n%s\nwant\n%s", trial, tm, got, before[i])
			}
		}
		classes := c.Classes()
		if len(classes) != len(classesBefore) {
			t.Fatalf("trial %d: %d classes after Freeze, want %d", trial, len(classes), len(classesBefore))
		}
		for i, class := range classes {
			if got := keys(class); got != classesBefore[i] {
				t.Fatalf("trial %d: class %d after Freeze\n%s\nwant\n%s", trial, i, got, classesBefore[i])
			}
		}
	}
}

// TestFrozenConcurrentReaders exercises the documented contract under
// the race detector: any number of goroutines may query one frozen
// closure at once.
func TestFrozenConcurrentReaders(t *testing.T) {
	c, terms := randomClosure(rand.New(rand.NewSource(11)))
	c.Freeze()
	avoid := c.VarSet(func(v string) bool { return v == "a" })
	wantClasses := len(c.Classes())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, tm := range terms {
					if len(c.ClassMembers(tm)) == 0 || !c.Same(tm, tm) {
						t.Errorf("frozen closure lost %s", tm)
						return
					}
					c.Rep(tm)
					id, _ := c.ID(tm)
					c.Rewriter(avoid).ClassVariants(c.ClassOf(id))
				}
				if len(c.Classes()) != wantClasses {
					t.Error("frozen partition changed")
					return
				}
			}
		}()
	}
	wg.Wait()
}
