package engine

import (
	"context"
	"errors"
	"testing"

	"cnb/internal/core"
	"cnb/internal/eval"
	"cnb/internal/instance"
)

// chainInstance builds a two-level dictionary chain: IDX maps a constant
// to a set of rows, HOP maps row keys onward — with deliberate holes so a
// non-failing lookup mid-chain can come up empty.
func chainInstance() *instance.Instance {
	in := instance.NewInstance()
	rows := instance.NewSet(
		instance.StructOf("K", instance.Int(1), "A", instance.Int(10)),
		instance.StructOf("K", instance.Int(2), "A", instance.Int(20)),
		instance.StructOf("K", instance.Int(3), "A", instance.Int(30)),
	)
	idx := instance.NewDict()
	idx.Put(instance.Str("hit"), rows)
	idx.Put(instance.Str("empty"), instance.NewSet())
	in.Bind("IDX", idx)

	hop := instance.NewDict()
	// Key 2 is missing, key 3 maps to an empty bucket.
	hop.Put(instance.Int(1), instance.NewSet(
		instance.StructOf("B", instance.Int(100)),
		instance.StructOf("B", instance.Int(101)),
	))
	hop.Put(instance.Int(3), instance.NewSet())
	in.Bind("HOP", hop)
	return in
}

// TestEmptyLookupMidChain: a non-failing lookup in the middle of a chain
// that returns no rows (missing key or empty bucket) must simply produce
// nothing for that outer row and let the scan continue with the next one.
func TestEmptyLookupMidChain(t *testing.T) {
	in := chainInstance()
	q := &core.Query{
		Out: core.Prj(core.V("h"), "B"),
		Bindings: []core.Binding{
			{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
			{Var: "h", Range: core.LkNF(core.Name("HOP"), core.Prj(core.V("r"), "K"))},
		},
	}
	got, err := StreamExecute(context.Background(), q, in, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Only r.K=1 reaches a non-empty HOP bucket: rows 100 and 101.
	if got.Len() != 2 {
		t.Fatalf("got %d rows, want 2: %s", got.Len(), got)
	}
	for _, want := range []int64{100, 101} {
		if !got.Contains(instance.Int(want)) {
			t.Errorf("missing output %d in %s", want, got)
		}
	}
	checkAgainstEval(t, q, in)
}

// TestEmptyLookupAtChainHead: a non-failing lookup over an empty bucket
// as the outermost binding terminates immediately with an empty result.
func TestEmptyLookupAtChainHead(t *testing.T) {
	in := chainInstance()
	for _, key := range []string{"empty", "absent"} {
		q := &core.Query{
			Out: core.Prj(core.V("r"), "A"),
			Bindings: []core.Binding{
				{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C(key))},
			},
		}
		got, err := StreamExecute(context.Background(), q, in, StreamOptions{})
		if err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		if got.Len() != 0 {
			t.Errorf("key %q: got %d rows, want 0", key, got.Len())
		}
		checkAgainstEval(t, q, in)
	}
}

// TestFailingLookupMidChainErrors: the failing form M[k] must surface
// ErrLookupFailed when an outer row's key is absent, rather than skipping
// the row (the guarded dom-loop is the only sound way to iterate it) —
// exactly as the reference evaluator does.
func TestFailingLookupMidChainErrors(t *testing.T) {
	in := chainInstance()
	q := &core.Query{
		Out: core.Prj(core.V("h"), "B"),
		Bindings: []core.Binding{
			{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
			{Var: "h", Range: core.Lk(core.Name("HOP"), core.Prj(core.V("r"), "K"))},
		},
	}
	var lf *eval.ErrLookupFailed
	if _, err := eval.Query(q, in); !errors.As(err, &lf) {
		t.Fatalf("eval: want ErrLookupFailed, got %v", err)
	}
	if _, err := StreamExecute(context.Background(), q, in, StreamOptions{}); !errors.As(err, &lf) {
		t.Fatalf("engine: want ErrLookupFailed, got %v", err)
	}
}

// TestRunRepeatsAfterReOpen: Run re-Opens the operator tree, so a second
// Run of the same StreamPlan yields an equal (deduplicated) result and a
// fresh Measure — no state leaks across executions.
func TestRunRepeatsAfterReOpen(t *testing.T) {
	in := chainInstance()
	// A self-join that produces duplicate output rows to exercise set
	// deduplication.
	q := &core.Query{
		Out: core.Prj(core.V("a"), "A"),
		Bindings: []core.Binding{
			{Var: "a", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
			{Var: "b", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
		},
	}
	want, err := eval.Query(q, in)
	if err != nil {
		t.Fatal(err)
	}
	for vi, opts := range streamVariants() {
		p, err := CompileStream(q, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		first, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m1 := p.Measure()
		second, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m2 := p.Measure()
		if !first.Equal(want) || !second.Equal(want) {
			t.Errorf("variant %d: runs %s, %s differ from eval %s", vi, first, second, want)
		}
		// 3x3 join rows dedup to 3 distinct outputs.
		if first.Len() != 3 {
			t.Errorf("variant %d: got %d distinct rows, want 3", vi, first.Len())
		}
		if m1 != m2 {
			t.Errorf("variant %d: re-Open did not reset counters: %+v vs %+v", vi, m1, m2)
		}
		if m1.OutRows != 9 {
			t.Errorf("variant %d: OutRows = %d, want 9 pre-dedup join rows", vi, m1.OutRows)
		}
	}
}

// TestMeasureCountsProbesAndRows pins the counter semantics the E14
// calibration relies on: one Eval per range evaluation (a probe for
// lookups), one Row per emitted binding row, and for a hash join one
// Eval per build row keyed and per probe row.
func TestMeasureCountsProbesAndRows(t *testing.T) {
	joined := chainInstance()
	joined.Bind("R", instance.NewSet(
		instance.StructOf("K", instance.Int(1)),
		instance.StructOf("K", instance.Int(2)),
		instance.StructOf("K", instance.Int(3)),
	))
	joined.Bind("S", instance.NewSet(
		instance.StructOf("K", instance.Int(1), "B", instance.Int(10)),
		instance.StructOf("K", instance.Int(1), "B", instance.Int(11)),
		instance.StructOf("K", instance.Int(2), "B", instance.Int(20)),
		instance.StructOf("K", instance.Int(4), "B", instance.Int(40)),
	))
	cases := []struct {
		name string
		q    *core.Query
		want Measure
	}{
		{
			// IDX probed once (3 rows emitted), HOP probed once per
			// outer row (3 probes, 2 rows emitted).
			name: "lookup chain",
			q: &core.Query{
				Out: core.Prj(core.V("h"), "B"),
				Bindings: []core.Binding{
					{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
					{Var: "h", Range: core.LkNF(core.Name("HOP"), core.Prj(core.V("r"), "K"))},
				},
			},
			want: Measure{Counters: Counters{Evals: 4, Rows: 5}, OutRows: 2},
		},
		{
			// R scanned once (1 Eval, 3 rows); S hashed once (1 range
			// Eval + 4 build rows keyed) and probed by each R row (3
			// Evals), emitting 2+1+0 matches.
			name: "hash join",
			q: &core.Query{
				Out: core.Prj(core.V("s"), "B"),
				Bindings: []core.Binding{
					{Var: "r", Range: core.Name("R")},
					{Var: "s", Range: core.Name("S")},
				},
				Conds: []core.Cond{{L: core.Prj(core.V("s"), "K"), R: core.Prj(core.V("r"), "K")}},
			},
			want: Measure{Counters: Counters{Evals: 9, Rows: 6}, OutRows: 3},
		},
	}
	for _, tc := range cases {
		p, err := CompileStream(tc.q, joined, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if m := p.Measure(); m != tc.want {
			t.Errorf("%s: Measure = %+v, want %+v", tc.name, m, tc.want)
		}
		if c, want := p.Measure().Cost(), float64(tc.want.Evals+tc.want.Rows+tc.want.OutRows); c != want {
			t.Errorf("%s: Cost = %v, want %v", tc.name, c, want)
		}
	}
}

// TestDescribeGolden pins the exact EXPLAIN rendering of each operator
// kind: plans are first-class CI-tested artifacts, so their printed form
// must not drift silently.
func TestDescribeGolden(t *testing.T) {
	in := chainInstance()
	cases := []struct {
		name string
		q    *core.Query
		want string
	}{
		{
			name: "scan with pushdown",
			q: &core.Query{
				Out: core.Prj(core.V("r"), "A"),
				Bindings: []core.Binding{
					{Var: "r", Range: core.Name("R")},
				},
				Conds: []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.C(int64(10))}},
			},
			want: "Project r.A\n" +
				"  BatchScan R as r pushdown=[r.A = 10]\n",
		},
		{
			name: "lookup chain",
			q: &core.Query{
				Out: core.Prj(core.V("h"), "B"),
				Bindings: []core.Binding{
					{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
					{Var: "h", Range: core.Lk(core.Name("HOP"), core.Prj(core.V("r"), "K"))},
				},
			},
			want: "Project h.B\n" +
				"  BatchLookupScan HOP[r.K] as h\n" +
				"    BatchLookupScan(non-failing) IDX{\"hit\"} as r\n",
		},
		{
			name: "dom and path scans",
			q: &core.Query{
				Out: core.Prj(core.V("x"), "B"),
				Bindings: []core.Binding{
					{Var: "k", Range: core.Dom(core.Name("HOP"))},
					{Var: "x", Range: core.Lk(core.Name("HOP"), core.V("k"))},
					{Var: "p", Range: core.Prj(core.V("x"), "Subs")},
				},
			},
			want: "Project x.B\n" +
				"  BatchPathScan x.Subs as p\n" +
				"    BatchLookupScan HOP[k] as x\n" +
				"      BatchDomScan dom(HOP) as k\n",
		},
		{
			name: "hash join with pushdown and residual filter",
			q: &core.Query{
				Out: core.Prj(core.V("s"), "B"),
				Bindings: []core.Binding{
					{Var: "r", Range: core.Name("R")},
					{Var: "s", Range: core.Name("S")},
				},
				Conds: []core.Cond{
					{L: core.Prj(core.V("s"), "K"), R: core.Prj(core.V("r"), "K")},
					{L: core.Prj(core.V("s"), "B"), R: core.C(int64(10))},
					// One term mixing both variables: neither a build nor a
					// probe key, so it stays a filter above the join.
					{L: core.Struct(core.SF("A", core.Prj(core.V("s"), "K")), core.SF("B", core.Prj(core.V("r"), "K"))), R: core.V("r")},
				},
			},
			want: "Project s.B\n" +
				"  BatchFilter [struct(A: s.K, B: r.K) = r]\n" +
				"    HashJoin S as s build=[s.K] probe=[r.K] pushdown=[s.B = 10]\n" +
				"      BatchScan R as r\n",
		},
	}
	for _, tc := range cases {
		p, err := CompileStream(tc.q, in, StreamOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := p.Explain(); got != tc.want {
			t.Errorf("%s: Explain drifted\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}
