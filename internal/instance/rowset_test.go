package instance

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rowValue is the value a row of r's shape stands for, built the way a
// Set of query results holds it.
func rowValue(names []string, vals []Value) Value {
	if names == nil {
		return vals[0]
	}
	return NewStruct(names, slices.Clone(vals))
}

// checkRowSet compares a RowSet that was fed rows against a Set of the
// rows' values: Len, FirstN at the edges of the row count and Set.
func checkRowSet(t *testing.T, names []string, rows [][]Value, extraK ...int) {
	t.Helper()
	r := NewRowSet(names)
	ref := NewSet()
	for _, vals := range rows {
		added := r.Add(vals)
		want := !ref.Contains(rowValue(names, vals))
		ref.Add(rowValue(names, vals))
		if added != want {
			t.Fatalf("Add(%v) = %v, want %v", vals, added, want)
		}
	}
	n := ref.Len()
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	elems := ref.Elems()
	same := func(what string, got, want []Value) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range got {
			if !Equal(got[i], want[i]) || Hash(got[i]) != Hash(want[i]) || got[i].Key() != want[i].Key() {
				t.Fatalf("%s: row %d = %s, want %s", what, i, got[i], want[i])
			}
		}
	}
	for _, k := range append([]int{-1, 0, 1, 7, n - 1, n, n + 1}, extraK...) {
		want := elems
		if k >= 0 && k < n {
			want = elems[:k]
		}
		same(fmt.Sprintf("FirstN(%d)", k), r.FirstN(k), want)
		if k >= 0 && k < n {
			// The reference's own selection, before its order is cached.
			same(fmt.Sprintf("Set.FirstN(%d)", k), NewSet(ref.t.keys...).FirstN(k), want)
		}
	}
	s := r.Set()
	if s.Len() != n || !s.Equal(ref) || !ref.Equal(s) {
		t.Fatalf("Set() = %s, want %s", s, ref)
	}
	same("Set().Elems", s.Elems(), elems)
	for i, v := range s.t.keys {
		if !Equal(v, ref.t.keys[i]) {
			t.Fatalf("Set() member %d = %s, want %s in insertion order", i, v, ref.t.keys[i])
		}
	}
}

// TestRowSetMatchesSet is the differential test of the accumulator
// against a Set of the records (or scalars) its rows stand for.
func TestRowSetMatchesSet(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), 1.5, math.Inf(-1)}
	leaf := func() Value {
		switch r.Intn(5) {
		case 0:
			return Int(r.Intn(40) - 20)
		case 1:
			return Float(floats[r.Intn(len(floats))])
		case 2:
			return Str(fmt.Sprintf("s%d\"é", r.Intn(40)))
		case 3:
			return OID{TypeName: "Doid", Serial: r.Intn(8)}
		}
		return StructOf("A", Int(r.Intn(4)), "B", StructOf("C", Float(floats[r.Intn(len(floats))])))
	}
	rowsOf := func(n, width int, v func() Value) [][]Value {
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = make([]Value, width)
			for j := range rows[i] {
				rows[i][j] = v()
			}
		}
		return rows
	}
	three := []string{"PN", "PB", "In"}

	t.Run("records", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			checkRowSet(t, three, rowsOf(r.Intn(120), 3, leaf))
		}
	})
	t.Run("scalars", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			checkRowSet(t, nil, rowsOf(r.Intn(120), 1, leaf))
		}
	})
	t.Run("floats", func(t *testing.T) {
		// ±0 stay apart and every NaN is one row, in records and alone.
		f := func() Value { return Float(floats[r.Intn(4)]) }
		checkRowSet(t, []string{"X", "Y"}, rowsOf(64, 2, f))
		checkRowSet(t, nil, rowsOf(64, 1, f))
	})
	t.Run("collapsing", func(t *testing.T) {
		// 5000 rows over 6 distinct values, as a projection onto a
		// customer name.
		c := func() Value { return Str(fmt.Sprintf("C%d", r.Intn(6))) }
		checkRowSet(t, []string{"C"}, rowsOf(5000, 1, c))
	})
	t.Run("chunks", func(t *testing.T) {
		// Distinct rows past the doubling chunks and two full chunks,
		// inserted in random order.
		n := doublingRows + 2*maxChunkRows + 37
		rows := make([][]Value, 0, n+100)
		for _, i := range r.Perm(n) {
			rows = append(rows, []Value{Str(fmt.Sprintf("P%06d", i)), Int(i % 1000), Str(fmt.Sprintf("D%05d", i/5))})
		}
		rows = append(rows, rows[:100]...) // duplicates spread over every chunk
		checkRowSet(t, []string{"PN", "PB", "DN"}, rows, 1000)
	})
	t.Run("nofields", func(t *testing.T) {
		checkRowSet(t, []string{}, [][]Value{{}, {}, {}})
	})
	t.Run("empty", func(t *testing.T) {
		checkRowSet(t, three, nil)
		checkRowSet(t, nil, nil)
	})
}

// TestRowSetChunksNeverMove: row i stays where it was written, every
// chunk is filled in order before the next is allocated, and chunks stop
// growing at maxChunkRows.
func TestRowSetChunksNeverMove(t *testing.T) {
	r := NewRowSet(nil)
	const n = 5000
	first := make([]*Value, n)
	for i := 0; i < n; i++ {
		r.Add([]Value{Int(i)})
		first[i] = &r.row(i)[0]
		if c, off := locate(i); off == 0 && (c != len(r.chunks)-1 || len(r.chunks[c]) != chunkRows(c)) {
			t.Fatalf("row %d opens chunk %d of %d rows; %d chunks", i, c, len(r.chunks[c]), len(r.chunks))
		}
	}
	for i := 0; i < n; i++ {
		if p := &r.row(i)[0]; p != first[i] || *p != Int(i) {
			t.Fatalf("row %d moved or changed", i)
		}
	}
	if got := len(r.chunks[len(r.chunks)-1]); got != maxChunkRows {
		t.Errorf("last chunk holds %d rows, want %d", got, maxChunkRows)
	}
}

// TestRowSetFirstNAllocsBoundedByK: taking the first 1000 of 10^5 rows
// inserted in random order allocates in proportion to k, not n: the k
// records share two blocks, and only heap keys that outgrow the key
// they evict allocate.
func TestRowSetFirstNAllocsBoundedByK(t *testing.T) {
	const n, k = 100000, 1000
	r := rand.New(rand.NewSource(3))
	rs := NewRowSet([]string{"PN", "PB", "DN"})
	for _, i := range r.Perm(n) {
		rs.Add([]Value{Str(fmt.Sprintf("P%06d", i)), Int(int64(i % 1000)), Str(fmt.Sprintf("D%05d", i/5))})
	}
	var got []Value
	if allocs := testing.AllocsPerRun(2, func() { got = rs.FirstN(k) }); allocs > k {
		t.Errorf("FirstN(%d) over %d rows: %v allocs, want O(k)", k, n, allocs)
	}
	for i, v := range got {
		if want := fmt.Sprintf(`r{PN:s"P%06d",PB:i%d,DN:s"D%05d"}`, i, i%1000, i/5); v.Key() != want {
			t.Fatalf("row %d = %s, want key %s", i, v, want)
		}
	}
}

// FuzzRowSetMatchesSet checks the accumulator against a Set of the
// values its rows stand for: the rows, their field names (repeats
// included) and k come from the input.
func FuzzRowSetMatchesSet(f *testing.F) {
	f.Add([]byte{3, 20, 2, 1, 5, 1, 6, 0, 1, 0, 2, 4, 0, 4, 1, 1, 0, 1, 1})
	f.Add([]byte{0, 30, 1, 5, 1, 6, 1, 0, 1, 1, 5, 1, 0, 0, 7})
	f.Add([]byte{2, 40, 5, 2, 0, 0, 5, 1, 1, 5, 6, 3, 0, 1, 2, 3, 1, 1, 2, 2})
	f.Add([]byte{1, 200, 0, 1, 0, 2, 0, 3, 6, 4, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &valueDecoder{data: data}
		var names []string
		width := 1
		if w := int(d.next() % 5); w < 4 {
			names = make([]string, w)
			for j := range names {
				names[j] = fuzzNames[int(d.next())%len(fuzzNames)]
			}
			width = w
		}
		n := int(d.next())
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = make([]Value, width)
			for j := range rows[i] {
				rows[i][j] = d.value(1)
			}
		}
		checkRowSet(t, names, rows, int(d.next()%16))
	})
}

// BenchmarkRowSetFirstN takes the first 1000 of the 10^5 distinct rows
// of a Proj-like record output, as the default /query row cap does:
// the selection plus the 1000 records it builds.
func BenchmarkRowSetFirstN(b *testing.B) {
	rs := NewRowSet([]string{"PName", "CustName", "PDept", "Budg"})
	for i := 0; i < 100000; i++ {
		rs.Add([]Value{Str(fmt.Sprintf("P%06d", i)), Str(fmt.Sprintf("C%d", i%5)), Str(fmt.Sprintf("D%05d", i/5)), Int(i % 1000)})
	}
	b.ReportAllocs()
	for b.Loop() {
		sink = rs.FirstN(1000)
	}
}
