package backchase

import (
	"context"
	"strings"
	"testing"

	"cnb/internal/chase"
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

// TestSubqueryOnClonedRootClosure: the engine's construction — a Clone
// of one root closure per candidate, reused across every removal set —
// yields exactly what Subquery builds from scratch, for every subset of
// the ProjDept universal plan's bindings.
func TestSubqueryOnClonedRootClosure(t *testing.T) {
	root := chasedProjDept(t)
	cc := rootClosure(root)
	n := len(root.Bindings)
	built := 0
	for mask := 0; mask < 1<<n; mask++ {
		removed := removalSet(root, mask)
		want, wantOK := Subquery(root, removed)
		got, gotOK := subqueryFrom(root, cc.Clone(), removed)
		if gotOK != wantOK {
			t.Fatalf("mask %b: clone ok=%v, rebuild ok=%v", mask, gotOK, wantOK)
		}
		if !wantOK {
			continue
		}
		built++
		if got.String() != want.String() {
			t.Fatalf("mask %b: clone built\n%s\nrebuild built\n%s", mask, got, want)
		}
	}
	if built == 0 {
		t.Fatal("no removal set produced a subquery")
	}
}

// BenchmarkSubqueryProjDept: one candidate construction on the chased
// ProjDept root, removing its first binding. "rebuild" is the exported
// Subquery, which interns the root's terms and merges its conditions
// first; "clone" is the engine's path, which clones a closure built once.
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
	b.Run("clone", func(b *testing.B) {
		cc := rootClosure(root)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			subqueryFrom(root, cc.Clone(), removed)
		}
	})
}

// TestWorkerPanicFailsRun: a panic inside a worker goroutine ends the
// enumeration with the panic as its error instead of killing the
// process. The root is cleared after the engine is built, so the first
// state processed dereferences a nil query.
func TestWorkerPanicFailsRun(t *testing.T) {
	for _, par := range []int{1, 4} {
		e, err := newEngine(context.Background(), chasedProjDept(t), projDeptDeps(), Options{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		e.root = nil
		res, err := e.enumerate(context.Background(), par)
		if err == nil || !strings.Contains(err.Error(), "worker panic") || res != nil {
			t.Fatalf("parallelism %d: enumerate = %v, %v; want a worker panic error", par, res, err)
		}
	}
}
