package instance

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestKeyGolden pins the literal key bytes of every value kind. Elems
// order, dictionary order and the capped result prefix all sort by these
// bytes, so a rendering change would reorder results.
func TestKeyGolden(t *testing.T) {
	d := NewDict()
	d.Put(Str("k2"), NewSet(Int(3), Int(-1)))
	d.Put(OID{TypeName: "Doid", Serial: 7}, StructOf("A", Float(0.5)))
	d.Put(Int(1), Bool(true))
	cases := []struct {
		v    Value
		want string
	}{
		{Int(0), `i0`},
		{Int(-42), `i-42`},
		{Int(math.MaxInt64), `i9223372036854775807`},
		{Float(1.5), `f1.5`},
		{Float(0), `f0`},
		{Float(math.Copysign(0, -1)), `f-0`},
		{Float(1e21), `f1e+21`},
		{Float(3), `f3`},
		{Float(1e-7), `f1e-07`},
		{Float(math.Inf(1)), `f+Inf`},
		{Float(math.NaN()), `fNaN`},
		{Str(""), `s""`},
		{Str(`a"b\c`), `s"a\"b\\c"`},
		{Str("café 日本\n\t\x00"), `s"café 日本\n\t\x00"`},
		{Bool(true), `bT`},
		{Bool(false), `bF`},
		{OID{TypeName: "Doid", Serial: 12}, `oDoid#12`},
		{StructOf("DName", Str(`d"1`), "DProjs", NewSet(Str("p2"), Str("p1"), Int(5)), "N", Int(3)),
			`r{DName:s"d\"1",DProjs:S[i5;s"p1";s"p2"],N:i3}`},
		{NewSet(), `S[]`},
		{NewSet(StructOf("A", Int(1)), Str("x"), Float(2.5)), `S[f2.5;r{A:i1};s"x"]`},
		{d, `D[i1->bT;oDoid#7->r{A:f0.5};s"k2"->S[i-1;i3]]`},
		{NewDict(), `D[]`},
	}
	for _, c := range cases {
		if got := c.v.Key(); got != c.want {
			t.Errorf("%s: Key() = %q, want %q", c.v, got, c.want)
		}
		if got := string(AppendKey([]byte("pre"), c.v)); got != "pre"+c.want {
			t.Errorf("%s: AppendKey = %q, want %q", c.v, got, "pre"+c.want)
		}
	}
}

// randomValue draws an Int, a Str or a record nesting a small set, from
// small domains so that sets see duplicates.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(3) {
	case 0:
		return Int(r.Intn(200) - 100)
	case 1:
		return Str(fmt.Sprintf("s%d\"é", r.Intn(200)))
	}
	inner := NewSet()
	for i := r.Intn(3); i > 0; i-- {
		inner.Add(Int(r.Intn(5)))
	}
	return StructOf("A", Int(r.Intn(20)), "B", Str(fmt.Sprint(r.Intn(4))), "C", inner)
}

// TestFirstNMatchesElemsPrefix checks FirstN against its definition,
// Elems()[:min(k, Len())], on random sets — each probed before its key
// order is cached, so FirstN takes the heap-selection path.
func TestFirstNMatchesElemsPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(60)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r)
		}
		ref := NewSet(elems...)
		want := ref.Elems()
		size := len(want)
		for _, k := range []int{-1, 0, 1, size - 1, size, size + 5} {
			got := NewSet(elems...).FirstN(k)
			prefix := want
			if k >= 0 && k < size {
				prefix = want[:k]
			}
			if len(got) != len(prefix) {
				t.Fatalf("trial %d k=%d: len %d, want %d", trial, k, len(got), len(prefix))
			}
			for i := range got {
				if got[i].Key() != prefix[i].Key() {
					t.Fatalf("trial %d k=%d: row %d = %s, want %s", trial, k, i, got[i], prefix[i])
				}
			}
		}
	}
}

// TestKeySortMemoryBoundedByKeys: sorting a set, in full or only its
// first k members, allocates in proportion to the total length of the
// member keys, however unevenly that length is spread. The sets are
// sets of sets, one member holding thousands of ints (a key tens of KB
// long) among thousands of one-element sets, with the long key first in
// insertion order and with it in the middle.
func TestKeySortMemoryBoundedByKeys(t *testing.T) {
	const small, wide, k = 2000, 5000, 1000
	big := NewSet()
	for i := 0; i < wide; i++ {
		big.Add(Int(int64(i)))
	}
	members := []Value{big}
	for i := 0; i < small; i++ {
		members = append(members, NewSet(Int(int64(-i))))
	}
	for _, v := range members {
		v.Key() // caches each member's own order outside the measurement
	}
	for _, bigFirst := range []bool{true, false} {
		build := func() *Set {
			s := NewSet()
			if bigFirst {
				s.Add(big)
			}
			for i, v := range members[1:] {
				s.Add(v)
				if !bigFirst && i == small/2 {
					s.Add(big)
				}
			}
			return s
		}
		total := 0
		for _, v := range build().Elems() {
			total += len(v.Key())
		}
		// Each key is rendered through a growing buffer into a string
		// (a set's Key) and copied into a slab that grows by doubling,
		// about 8 bytes per key byte; the rest is a few words per member.
		// The bound leaves twice that.
		bound := uint64(16*total + 128*(small+1))
		for _, tc := range []struct {
			name string
			run  func(*Set)
		}{
			{"Elems", func(s *Set) { s.Elems() }},
			{"FirstN", func(s *Set) { s.FirstN(k) }},
		} {
			s := build()
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			tc.run(s)
			runtime.ReadMemStats(&m1)
			if got := m1.TotalAlloc - m0.TotalAlloc; got > bound {
				t.Errorf("bigFirst=%v %s: allocated %d bytes for %d bytes of keys, want <= %d", bigFirst, tc.name, got, total, bound)
			}
		}
	}
}

// TestOrderCacheInvalidation: Add and Put drop the cached order, Domain
// and Entries, so a collection still under construction stays correct.
func TestOrderCacheInvalidation(t *testing.T) {
	s := NewSet(Int(2))
	if s.Key() != `S[i2]` || len(s.Elems()) != 1 {
		t.Fatal("initial set wrong")
	}
	s.Add(Int(1))
	if got := s.Key(); got != `S[i1;i2]` {
		t.Errorf("after Add: Key = %s", got)
	}
	if es := s.Elems(); len(es) != 2 || es[0] != Int(1) {
		t.Errorf("after Add: Elems = %v", es)
	}
	if got := s.FirstN(1); len(got) != 1 || got[0] != Int(1) {
		t.Errorf("after Add: FirstN(1) = %v", got)
	}

	d := NewDict().Put(Str("b"), Int(2))
	if d.Domain().Len() != 1 || len(d.Entries()) != 1 {
		t.Fatal("initial dict wrong")
	}
	d.Put(Str("a"), Int(1))
	if dom := d.Domain(); dom.Len() != 2 || !dom.Contains(Str("a")) || dom.Elems()[0] != Str("a") {
		t.Errorf("after Put: Domain = %s", dom)
	}
	if es := d.Entries(); len(es) != 2 || es[0][0] != Str("a") {
		t.Errorf("after Put: Entries = %v", es)
	}
	if d.Domain() != d.Domain() {
		t.Error("Domain must be built once and shared")
	}
}

// TestConcurrentFirstReads: goroutines racing on a collection's first
// Elems/Entries/Domain/Key calls all see the same order (run under -race).
func TestConcurrentFirstReads(t *testing.T) {
	s := NewSet()
	d := NewDict()
	for i := 0; i < 500; i++ {
		s.Add(Int(i))
		d.Put(Int(i), Str(fmt.Sprint(i)))
	}
	wantSet := NewSet(s.Elems()...).Key()
	var wg sync.WaitGroup
	keys := make([]string, 8)
	for w := range keys {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			es := s.Elems()
			_ = d.Entries()
			_ = d.Domain().Elems()
			keys[w] = fmt.Sprint(len(es), s.Key(), d.Key())
		}(w)
	}
	wg.Wait()
	for _, k := range keys {
		if k != keys[0] {
			t.Fatal("concurrent first reads disagree")
		}
	}
	if s.Key() != wantSet {
		t.Error("set key changed")
	}
}

// installedProj builds a 10^5-element set of Proj-like records.
func installedProj() *Set {
	s := NewSet()
	for i := 0; i < 100000; i++ {
		s.Add(StructOf("PName", Str(fmt.Sprintf("P%06d", i)), "CustName", Str(fmt.Sprintf("C%d", i%5)),
			"PDept", Str(fmt.Sprintf("D%05d", i/5)), "Budg", Int(i%1000)))
	}
	return s
}

// sink keeps benchmarked results alive.
var sink []Value

// BenchmarkSetElemsInstalled scans an installed 10^5-element set, as a
// relation scan does on every query.
func BenchmarkSetElemsInstalled(b *testing.B) {
	s := installedProj()
	s.Elems()
	b.ReportAllocs()
	for b.Loop() {
		sink = s.Elems()
	}
}

// BenchmarkNewStruct builds one result row of the Proj ⋈ depts join.
func BenchmarkNewStruct(b *testing.B) {
	names := []string{"PN", "PB", "DN"}
	b.ReportAllocs()
	var v Value
	for i := 0; b.Loop(); i++ {
		v = NewStruct(names, []Value{Str("P000123"), Int(int64(i)), Str("D00024")})
	}
	sink = []Value{v}
}

// BenchmarkSetFirstN takes the first 1000 elements of a 10^5-element
// result set whose key order has not been computed, as the default
// /query row cap does. FirstN caches nothing, so every iteration pays
// the full selection.
func BenchmarkSetFirstN(b *testing.B) {
	s := installedProj()
	b.ReportAllocs()
	for b.Loop() {
		sink = s.FirstN(1000)
	}
}
