package backchase

import (
	"sync"
	"testing"

	"cnb/internal/chase"
	"cnb/internal/congruence"
	"cnb/internal/core"
)

// chasedProjDept returns the universal plan of the running example.
func chasedProjDept(tb testing.TB) *core.Query {
	tb.Helper()
	chased, err := chase.Chase(projDeptQuery(), projDeptDeps(), chase.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return chased.Query
}

// removalSet returns the binding variables of q selected by mask.
func removalSet(q *core.Query, mask int) map[string]bool {
	removed := map[string]bool{}
	for i, b := range q.Bindings {
		if mask&(1<<i) != 0 {
			removed[b.Var] = true
		}
	}
	return removed
}

// frozenClone returns a frozen copy of cc.
func frozenClone(cc *congruence.Closure) *congruence.Closure {
	cl := cc.Clone()
	cl.Freeze()
	return cl
}

// TestSubqueryOnClonedRootClosure: the engine's construction — every
// candidate built over one frozen root closure, shared across every
// removal set — and construction over a Clone of that closure, frozen
// again, both yield exactly what Subquery builds from scratch, for every
// subset of the ProjDept universal plan's bindings.
func TestSubqueryOnClonedRootClosure(t *testing.T) {
	root := chasedProjDept(t)
	cc := rootClosure(root)
	n := len(root.Bindings)
	built := 0
	for mask := 0; mask < 1<<n; mask++ {
		removed := removalSet(root, mask)
		want, wantOK := Subquery(root, removed)
		for _, path := range []struct {
			name string
			cc   *congruence.Closure
		}{{"shared", cc}, {"clone", frozenClone(cc)}} {
			got, _, gotOK := subqueryFrom(root, path.cc, positions(root, removed))
			if gotOK != wantOK {
				t.Fatalf("mask %b: %s ok=%v, rebuild ok=%v", mask, path.name, gotOK, wantOK)
			}
			if wantOK && got.String() != want.String() {
				t.Fatalf("mask %b: %s built\n%s\nrebuild built\n%s", mask, path.name, got, want)
			}
		}
		if wantOK {
			built++
		}
	}
	if built == 0 {
		t.Fatal("no removal set produced a subquery")
	}
}

// TestConcurrentSubqueriesShareFrozenClosure runs every candidate
// construction of the ProjDept universal plan from several goroutines
// over one SubqueryBuilder (one frozen root closure) under the race
// detector, and checks each against the serial construction.
func TestConcurrentSubqueriesShareFrozenClosure(t *testing.T) {
	root := chasedProjDept(t)
	n := len(root.Bindings)
	want := make([]string, 1<<n)
	for mask := range want {
		if sub, ok := Subquery(root, removalSet(root, mask)); ok {
			want[mask] = sub.String()
		}
	}
	b := NewSubqueryBuilder(root)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the lattice from a different offset, so
			// the same closure is read by several constructions at once.
			for i := 0; i < len(want); i++ {
				mask := (i + w*len(want)/4) % len(want)
				got := ""
				if sub, ok := b.Subquery(removalSet(root, mask)); ok {
					got = sub.String()
				}
				if got != want[mask] {
					t.Errorf("worker %d, mask %b: built\n%s\nwant\n%s", w, mask, got, want[mask])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkSubqueryProjDept: one candidate construction on the chased
// ProjDept root, removing its first binding. "rebuild" is the exported
// Subquery, which interns the root's terms, merges its conditions and
// freezes the closure first; "shared" is the engine's path, which reads
// one frozen closure built once.
func BenchmarkSubqueryProjDept(b *testing.B) {
	root := chasedProjDept(b)
	removed := removalSet(root, 1)
	if _, ok := Subquery(root, removed); !ok {
		b.Fatal("removing the first binding builds no subquery")
	}
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Subquery(root, removed)
		}
	})
	b.Run("shared", func(b *testing.B) {
		sb := NewSubqueryBuilder(root)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sb.Subquery(removed)
		}
	})
}
