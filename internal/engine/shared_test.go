package engine

import (
	"context"
	"sync"
	"testing"

	"cnb/internal/core"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/workload"
)

// projDeptJoin is the non-selective Proj ⋈ depts join: a hash join whose
// build and probe sides both scan an installed relation.
func projDeptJoin() *core.Query {
	return &core.Query{
		Out: core.Struct(
			core.SF("PN", core.Prj(core.V("p"), "PName")),
			core.SF("PB", core.Prj(core.V("p"), "Budg")),
			core.SF("DN", core.Prj(core.V("d"), "DName")),
		),
		Bindings: []core.Binding{
			{Var: "p", Range: core.Name("Proj")},
			{Var: "d", Range: core.Name("depts")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("p"), "PDept"), R: core.Prj(core.V("d"), "DName")}},
	}
}

// TestSharedInstanceConcurrentRuns runs the same plans from 8 goroutines
// against one freshly generated ProjDept instance, so the goroutines'
// first Elems/Domain calls race to fill the collections' cached key
// order. Every run must return the reference result, computed on an
// identical instance generated separately so its caches stay cold here.
func TestSharedInstanceConcurrentRuns(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.GenOptions{NumDepts: 40, ProjsPerDept: 5, CitiBankShare: 0.3, Seed: 21}
	domScan := &core.Query{
		Out: core.Prj(core.Lk(core.Name("Dept"), core.V("dd")), "DName"),
		Bindings: []core.Binding{
			{Var: "dd", Range: core.Dom(core.Name("Dept"))},
			{Var: "s", Range: core.Prj(core.Lk(core.Name("Dept"), core.V("dd")), "DProjs")},
		},
	}
	plans := []*core.Query{projDeptJoin(), pd.Q, domScan}
	ref := pd.Generate(gen)
	want := make([]*instance.Set, len(plans))
	for i, q := range plans {
		if want[i], err = eval.QueryEager(q, ref); err != nil {
			t.Fatalf("plan %d: eval: %v", i, err)
		}
	}

	shared := pd.Generate(gen)
	const workers = 8
	errs := make([]error, workers)
	results := make([][]*instance.Set, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, q := range plans {
				p, err := CompileStream(q, shared, StreamOptions{Buffer: w % 2})
				if err != nil {
					errs[w] = err
					return
				}
				out, err := p.Run(context.Background())
				if err != nil {
					errs[w] = err
					return
				}
				results[w] = append(results[w], out)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i, got := range results[w] {
			if !got.Equal(want[i]) || got.Key() != want[i].Key() {
				t.Fatalf("worker %d plan %d: result differs from eval", w, i)
			}
		}
	}
}

// BenchmarkStreamScan100k runs the Proj ⋈ depts join over 10^5 Proj rows
// (20 000 depts × 5), compile plus run, on one installed instance: the
// engine half of the scan_exec workload.
func BenchmarkStreamScan100k(b *testing.B) {
	pd, err := workload.NewProjDept()
	if err != nil {
		b.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 20000, ProjsPerDept: 5, NumCustomers: 5, CitiBankShare: 0.3, Seed: 1})
	q := projDeptJoin()
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		out, err := StreamExecute(ctx, q, in, StreamOptions{Buffer: 2})
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() != 100000 {
			b.Fatalf("rows = %d, want 100000", out.Len())
		}
	}
}
