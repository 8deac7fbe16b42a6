package instance

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// valueDecoder draws values from fuzz input. Every domain is small, so
// two decoded values are often equal, and it holds the cases key
// equality is subtle on: ±0, NaNs with different payloads, Int(1)
// against Float(1) against Str("1"), oids, and records that differ
// only in field names (whose hashes collide). Field and oid type names
// are identifiers, as the parser and the generators produce; keys are
// injective only over such names.
type valueDecoder struct{ data []byte }

func (d *valueDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

var (
	fuzzFloats = []float64{0, math.Copysign(0, -1), 1, -1, 1.5, math.NaN(),
		math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1)}
	fuzzStrs  = []string{"", "1", "a", "b", `q"`, "é", "\x00", "P000123"}
	fuzzNames = []string{"A", "B", "C"}
)

func (d *valueDecoder) value(depth int) Value {
	kinds := byte(8)
	if depth >= 3 {
		kinds = 5 // base values only
	}
	b := d.next()
	switch b % kinds {
	case 0:
		return Int(int64(int8(d.next())) % 4)
	case 1:
		return Float(fuzzFloats[int(d.next())%len(fuzzFloats)])
	case 2:
		return Str(fuzzStrs[int(d.next())%len(fuzzStrs)])
	case 3:
		if d.next()%2 == 0 {
			return Bool(false)
		}
		return OID{TypeName: []string{"Doid", "Eoid"}[d.next()%2], Serial: int(d.next() % 3)}
	case 4:
		// Int(1), Float(1) and Str("1"): equal-looking, never Equal.
		return []Value{Int(1), Float(1), Str("1")}[d.next()%3]
	case 5:
		n := int(d.next() % 4)
		names := make([]string, n)
		vals := make([]Value, n)
		for i := range names {
			names[i] = fuzzNames[int(d.next())%len(fuzzNames)]
			vals[i] = d.value(depth + 1)
		}
		return NewStruct(names, vals)
	case 6:
		s := NewSet()
		for n := int(d.next() % 12); n > 0; n-- {
			s.Add(d.value(depth + 1))
		}
		return s
	default:
		m := NewDict()
		for n := int(d.next() % 12); n > 0; n-- {
			m.Put(d.value(depth+1), d.value(depth+1))
		}
		return m
	}
}

// FuzzEqualMatchesKey checks Equal and Hash against the canonical key
// they stand in for: Equal(a, b) exactly when a.Key() == b.Key(), equal
// values hash equal, and Set.Contains and Dict.Get agree with maps
// keyed by Key().
func FuzzEqualMatchesKey(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1})
	f.Add([]byte{1, 0, 1, 1})
	f.Add([]byte{1, 5, 1, 6})
	f.Add([]byte{4, 0, 4, 1, 4, 2})
	f.Add([]byte{5, 1, 0, 0, 7, 5, 1, 1, 0, 7})
	f.Add([]byte{6, 11, 0, 1, 0, 2, 0, 3, 2, 1, 2, 2, 1, 5, 1, 6, 4, 0, 4, 1, 4, 2, 3, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &valueDecoder{data: data}
		a, b := d.value(0), d.value(0)
		eq := Equal(a, b)
		if eq && Hash(a) != Hash(b) {
			t.Fatalf("Equal(%s, %s) but hashes differ", a, b)
		}
		if !Equal(a, a) || !Equal(b, b) || Equal(b, a) != eq {
			t.Fatalf("Equal is not reflexive and symmetric on %s, %s", a, b)
		}
		ka, kb := a.Key(), b.Key()
		if eq != (ka == kb) {
			t.Fatalf("Equal(%s, %s) = %v, but keys %q and %q", a, b, eq, ka, kb)
		}
		if got := string(AppendKey(nil, a)); got != ka {
			t.Fatalf("AppendKey = %q, Key = %q", got, ka)
		}
		if got, want := Str(data).Key(), "s"+strconv.Quote(string(data)); got != want {
			t.Fatalf("Str key %q, want %q", got, want)
		}

		// Collections against map references keyed by Key().
		set, dict := NewSet(), NewDict()
		setRef, dictRef := map[string]bool{}, map[string]Value{}
		for n := int(d.next() % 24); n > 0; n-- {
			v, w := d.value(1), d.value(2)
			set.Add(v)
			setRef[v.Key()] = true
			dict.Put(v, w)
			dictRef[v.Key()] = w
		}
		if set.Len() != len(setRef) || dict.Len() != len(dictRef) {
			t.Fatalf("sizes %d/%d, want %d/%d", set.Len(), dict.Len(), len(setRef), len(dictRef))
		}
		for _, v := range append([]Value{a, b}, set.Elems()...) {
			if set.Contains(v) != setRef[v.Key()] {
				t.Fatalf("Contains(%s) = %v, want %v", v, !setRef[v.Key()], setRef[v.Key()])
			}
			got, ok := dict.Get(v)
			want, wantOK := dictRef[v.Key()]
			if ok != wantOK || ok && got.Key() != want.Key() {
				t.Fatalf("Get(%s) = %v, %v; want %v, %v", v, got, ok, want, wantOK)
			}
		}
	})
}

// TestTableColumnsDouble pins the growth of a table's columns: each
// reallocation at least doubles the capacity, so 10^5 inserts move
// the columns at most about log2(10^5) times.
func TestTableColumnsDouble(t *testing.T) {
	s := NewSet()
	grows := [2]int{}
	for i := 0; i < 100000; i++ {
		before := [2]int{cap(s.t.keys), cap(s.t.hashes)}
		s.Add(Int(int64(i)))
		for c, after := range [2]int{cap(s.t.keys), cap(s.t.hashes)} {
			if after == before[c] {
				continue
			}
			grows[c]++
			if before[c] > 0 && after < 2*before[c] {
				t.Fatalf("column %d: capacity %d -> %d, want at least double", c, before[c], after)
			}
		}
	}
	if grows[0] > 16 || grows[1] > 16 {
		t.Errorf("%v reallocations for 10^5 inserts", grows)
	}
}

// TestStructHashCollisionsStayDistinct: records that differ only in
// their field names share a hash (names are not hashed), so sets and
// dictionaries holding them go through the equality check.
func TestStructHashCollisionsStayDistinct(t *testing.T) {
	var rows []Value
	for i := 0; i < 20; i++ {
		rows = append(rows, StructOf("A", Int(int64(i))), StructOf("B", Int(int64(i))))
	}
	if Hash(rows[0]) != Hash(rows[1]) || Equal(rows[0], rows[1]) {
		t.Fatal("records differing only in names should collide yet differ")
	}
	s := NewSet(rows...)
	d := NewDict()
	for i, r := range rows {
		d.Put(r, Int(int64(i)))
	}
	if s.Len() != len(rows) || d.Len() != len(rows) {
		t.Fatalf("Len = %d/%d, want %d", s.Len(), d.Len(), len(rows))
	}
	for i, r := range rows {
		probe := StructOf(r.(*Struct).names[0], r.(*Struct).vals[0])
		if !s.Contains(probe) {
			t.Errorf("Contains(%s) = false", probe)
		}
		if v, ok := d.Get(probe); !ok || v != Int(int64(i)) {
			t.Errorf("Get(%s) = %v, %v", probe, v, ok)
		}
	}
}

// TestStructKeyOneAlloc pins the first Key() of a record at exactly one
// allocation (the kept key), and later calls at none.
func TestStructKeyOneAlloc(t *testing.T) {
	names := []string{"PN", "PB", "DN", "In"}
	const runs = 100
	rows := make([]*Struct, runs+1)
	for i := range rows {
		inner := StructOf("DOID", OID{TypeName: "Doid", Serial: i}, "X", Float(0.5))
		rows[i] = NewStruct(names, []Value{Str(fmt.Sprintf("P%06d", i)), Int(int64(i)), Str("D00024"), inner})
	}
	i := 0
	if got := testing.AllocsPerRun(runs, func() { rows[i].Key(); i++ }); got != 1 {
		t.Errorf("first Key(): %v allocs, want 1", got)
	}
	if got := testing.AllocsPerRun(runs, func() { rows[0].Key() }); got != 0 {
		t.Errorf("kept Key(): %v allocs, want 0", got)
	}
	want := `r{PN:s"P000000",PB:i0,DN:s"D00024",In:r{DOID:oDoid#0,X:f0.5}}`
	if got := rows[0].Key(); got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

// TestDictGetNoAlloc pins a dictionary lookup by a Str key at zero
// allocations, below and above the size at which the slot index is
// built.
func TestDictGetNoAlloc(t *testing.T) {
	for _, n := range []int{smallTable, 1000} {
		d := NewDict()
		for i := 0; i < n; i++ {
			d.Put(Str(fmt.Sprintf("k%d", i)), Int(int64(i)))
		}
		var hit, miss Value = Str("k5"), Str("absent")
		if got := testing.AllocsPerRun(100, func() {
			if _, ok := d.Get(hit); !ok {
				t.Fatal("k5 missing")
			}
			if _, ok := d.Get(miss); ok {
				t.Fatal("absent present")
			}
		}); got != 0 {
			t.Errorf("n=%d: Get made %v allocs, want 0", n, got)
		}
	}
}

// TestFirstNAllocsBoundedByK: taking the first 1000 of 10^5 scalar rows
// inserted in random order allocates in proportion to k, not n — each
// candidate's key is rendered into one reused buffer. Record rows are
// TestRowSetFirstNAllocsBoundedByK's.
func TestFirstNAllocsBoundedByK(t *testing.T) {
	const n, k = 100000, 1000
	r := rand.New(rand.NewSource(3))
	rows := NewRowSet(nil)
	for _, i := range r.Perm(n) {
		rows.Add([]Value{Str(fmt.Sprintf("P%06d", i))})
	}
	var got []Value
	if allocs := testing.AllocsPerRun(2, func() { got = rows.FirstN(k) }); allocs > k {
		t.Errorf("FirstN(%d) over %d rows: %v allocs, want O(k)", k, n, allocs)
	}
	for i, v := range got {
		if v != Str(fmt.Sprintf("P%06d", i)) {
			t.Fatalf("row %d = %s, want P%06d", i, v, i)
		}
	}
}

// TestConcurrentFirstStructKey: goroutines racing on a shared record's
// first Key() all get its key (run under -race).
func TestConcurrentFirstStructKey(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := StructOf("A", Int(int64(trial)), "B", StructOf("C", Str("x")))
		want := fmt.Sprintf(`r{A:i%d,B:r{C:s"x"}}`, trial)
		keys := make([]string, 8)
		var wg sync.WaitGroup
		for w := range keys {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				keys[w] = r.Key()
			}(w)
		}
		wg.Wait()
		for _, k := range keys {
			if k != want {
				t.Fatalf("Key() = %q, want %q", k, want)
			}
		}
	}
}
