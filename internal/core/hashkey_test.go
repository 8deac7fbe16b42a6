package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHashKeyGolden pins the rendered keys byte for byte: plan ordering,
// deduplication and every tie-break sort on them, so memoizing a key must
// never change it.
func TestHashKeyGolden(t *testing.T) {
	cases := []struct {
		t    *Term
		want string
	}{
		{V("x"), "?x"},
		{Name("Proj"), "!Proj"},
		{C("a\"b\\c"), "#string:a\"b\\c"},
		{C(42), "#int64:42"},
		{C(-7), "#int64:-7"},
		{C(2.5), "#float64:2.5"},
		{C(1e21), "#float64:1e+21"},
		{C(true), "#bool:true"},
		{C(false), "#bool:false"},
		{Lk(Name("Dept"), V("d")), "!Dept[?d]"},
		{LkNF(Name("SI"), Prj(V("r"), "B")), "!SI{?r.B}"},
		{Dom(Name("Dept")), "dom(!Dept)"},
		{
			Struct(SF("PN", V("s")), SF("D", Struct(SF("N", Prj(Lk(Name("Dept"), V("d")), "DName")), SF("C", C(-7))))),
			"struct(PN:?s,D:struct(N:!Dept[?d].DName,C:#int64:-7))",
		},
		{Struct(), "struct()"},
	}
	for _, c := range cases {
		if got := c.t.HashKey(); got != c.want {
			t.Errorf("HashKey() = %q, want %q", got, c.want)
		}
		// The second call is served from the memo.
		if got := c.t.HashKey(); got != c.want {
			t.Errorf("memoized HashKey() = %q, want %q", got, c.want)
		}
	}
	var nilTerm *Term
	if got := nilTerm.HashKey(); got != "<nil>" {
		t.Errorf("nil HashKey() = %q, want <nil>", got)
	}
}

// TestHashKeyLiteral: a composite literal, whose memo starts empty like
// every other term's, renders the same key as the constructor-built term.
func TestHashKeyLiteral(t *testing.T) {
	built := Struct(SF("A", LkNF(Name("SI"), Prj(V("r"), "B"))), SF("K", C("CitiBank")))
	lit := &Term{Kind: KStruct, Fields: []StructField{
		{Name: "A", Term: &Term{
			Kind:       KLookup,
			Base:       &Term{Kind: KName, Name: "SI"},
			Key:        &Term{Kind: KProj, Name: "B", Base: &Term{Kind: KVar, Name: "r"}},
			NonFailing: true,
		}},
		{Name: "K", Term: &Term{Kind: KConst, Val: "CitiBank"}},
	}}
	if lit.HashKey() != built.HashKey() {
		t.Fatalf("literal key %q != constructor key %q", lit.HashKey(), built.HashKey())
	}
}

// deepTerm builds a fresh chain of n nested lookups through projections,
// and independently the key it must render.
func deepTerm(n int) (*Term, string) {
	tm, want := V("x"), "?x"
	for i := 0; i < n; i++ {
		tm = Lk(Name("D"), Prj(tm, "a"))
		want = "!D[" + want + ".a]"
	}
	tm = Struct(SF("F", tm), SF("G", Dom(Name("D"))))
	return tm, "struct(F:" + want + ",G:dom(!D))"
}

// TestHashKeyConcurrentFirstUse: goroutines racing to render the key of
// one fresh, deep, shared term all get the golden string (run under
// -race by make race).
func TestHashKeyConcurrentFirstUse(t *testing.T) {
	for round := 0; round < 20; round++ {
		tm, want := deepTerm(60)
		const goroutines = 8
		got := make([]string, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				got[g] = tm.HashKey()
			}(g)
		}
		close(start)
		wg.Wait()
		for g, k := range got {
			if k != want {
				t.Fatalf("round %d goroutine %d: key %q, want %q", round, g, k, want)
			}
		}
	}
}

// randomTerm builds a random term of bounded depth over variables x0..x3.
func randomTerm(rng *rand.Rand, depth int) *Term {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return Name([]string{"M", "N"}[rng.Intn(2)])
		case 1:
			return C(int64(rng.Intn(3)))
		default:
			return V([]string{"x0", "x1", "x2", "x3"}[rng.Intn(4)])
		}
	}
	switch rng.Intn(5) {
	case 0:
		return Prj(randomTerm(rng, depth-1), []string{"A", "B"}[rng.Intn(2)])
	case 1:
		return Dom(randomTerm(rng, depth-1))
	case 2:
		return Lk(randomTerm(rng, depth-1), randomTerm(rng, depth-1))
	case 3:
		return LkNF(randomTerm(rng, depth-1), randomTerm(rng, depth-1))
	default:
		fs := make([]StructField, 1+rng.Intn(3))
		for i := range fs {
			fs[i] = SF(string(rune('P'+i)), randomTerm(rng, depth-1))
		}
		return Struct(fs...)
	}
}

// substRebuild is the from-scratch substitution: every interior node is
// copied, whether or not anything below it changed.
func substRebuild(t *Term, sub map[string]*Term) *Term {
	switch t.Kind {
	case KVar:
		if r, ok := sub[t.Name]; ok {
			return r
		}
		return t
	case KProj:
		return &Term{Kind: KProj, Name: t.Name, Base: substRebuild(t.Base, sub)}
	case KDom:
		return &Term{Kind: KDom, Base: substRebuild(t.Base, sub)}
	case KLookup:
		return &Term{Kind: KLookup, Base: substRebuild(t.Base, sub), Key: substRebuild(t.Key, sub), NonFailing: t.NonFailing}
	case KStruct:
		fs := make([]StructField, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = StructField{Name: f.Name, Term: substRebuild(f.Term, sub)}
		}
		return &Term{Kind: KStruct, Fields: fs}
	}
	return t
}

// TestSubstSharingProperty: over random terms and substitutions, Subst
// equals the from-scratch rebuild, renders the same key, and returns the
// receiver itself when the substitution touches none of its variables.
func TestSubstSharingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []string{"x0", "x1", "x2", "x3"}
	for i := 0; i < 2000; i++ {
		tm := randomTerm(rng, 4)
		sub := map[string]*Term{}
		for _, v := range vars {
			if rng.Intn(3) == 0 {
				sub[v] = randomTerm(rng, 2)
			}
		}
		got, want := tm.Subst(sub), substRebuild(tm, sub)
		if !got.Equal(want) || got.HashKey() != want.HashKey() {
			t.Fatalf("Subst(%s) = %s, rebuild gives %s", tm, got, want)
		}
		touched := false
		for v := range tm.Vars() {
			if _, ok := sub[v]; ok {
				touched = true
			}
		}
		if !touched && got != tm {
			t.Fatalf("Subst(%s) with no variable of the term replaced returned a copy", tm)
		}
	}
}

// TestHashConsSharesEqualSubterms: terms passed through one table come
// back Equal to their inputs, with equal subterms pointer-identical, and
// the inputs untouched.
func TestHashConsSharesEqualSubterms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewHashCons()
	byKey := map[string]*Term{}
	var walk func(*Term)
	walk = func(u *Term) {
		if prev, ok := byKey[u.HashKey()]; ok && prev != u {
			t.Fatalf("two nodes for %s after hash-consing", u)
		}
		byKey[u.HashKey()] = u
		switch u.Kind {
		case KProj, KDom:
			walk(u.Base)
		case KLookup:
			walk(u.Base)
			walk(u.Key)
		case KStruct:
			for _, f := range u.Fields {
				walk(f.Term)
			}
		}
	}
	for i := 0; i < 500; i++ {
		in := randomTerm(rng, 4)
		before := in.String()
		base := in.Base
		out := h.Term(in)
		if !out.Equal(in) || out.HashKey() != in.HashKey() {
			t.Fatalf("HashCons.Term(%s) = %s", in, out)
		}
		if in.String() != before || in.Base != base {
			t.Fatalf("HashCons.Term modified its input %s", before)
		}
		walk(out)
	}
	if h.Term(nil) != nil {
		t.Fatal("HashCons.Term(nil) != nil")
	}

	// A term over the table's own nodes is kept as is.
	x := h.Term(Prj(V("x"), "A"))
	top := Dom(x)
	if h.Term(top) != top {
		t.Fatal("a term whose children are already shared was copied")
	}
}

// TestHashConsQuery: a hash-consed query renders like its input, shares
// terms with other queries of the same table, and leaves its input's
// slices alone.
func TestHashConsQuery(t *testing.T) {
	q1 := &Query{Out: Prj(Lk(Name("Dept"), V("d")), "DName"),
		Bindings: []Binding{{Var: "d", Range: Dom(Name("Dept"))}},
		Conds:    []Cond{{L: Prj(Lk(Name("Dept"), V("d")), "DName"), R: C("x")}}}
	q2 := &Query{Out: Prj(Lk(Name("Dept"), V("d")), "DName"),
		Bindings: []Binding{{Var: "d", Range: Dom(Name("Dept"))}}}
	h := NewHashCons()
	o1, o2 := h.Query(q1), h.Query(q2)
	if o1.String() != q1.String() || o2.String() != q2.String() {
		t.Fatalf("hash-consed queries render differently:\n%s\n%s", o1, o2)
	}
	if o1 == q1 || &o1.Bindings[0] == &q1.Bindings[0] {
		t.Fatal("HashCons.Query must build a new query")
	}
	if o1.Out != o2.Out || o1.Out != o1.Conds[0].L || o1.Bindings[0].Range != o2.Bindings[0].Range {
		t.Fatal("equal terms across hash-consed queries are not shared")
	}
	if h.Query(nil) != nil || h.Queries(nil) != nil {
		t.Fatal("nil query or slice must stay nil")
	}
}

// TestHashConsSharesEqualQueries: Equal queries come back as one query,
// a query differing only in binding order shares its condition slice,
// and different queries stay apart.
func TestHashConsSharesEqualQueries(t *testing.T) {
	mk := func(order []int, k string) *Query {
		bs := []Binding{{Var: "a", Range: Name("R")}, {Var: "b", Range: Name("S")}}
		q := &Query{Out: Prj(V("a"), "A"), Conds: []Cond{{L: Prj(V("a"), "B"), R: C(k)}}}
		for _, i := range order {
			q.Bindings = append(q.Bindings, bs[i])
		}
		return q
	}
	h := NewHashCons()
	q1 := h.Query(mk([]int{0, 1}, "x"))
	if h.Query(mk([]int{0, 1}, "x")) != q1 {
		t.Fatal("Equal queries came back as two queries")
	}
	q2 := h.Query(mk([]int{1, 0}, "x"))
	if q2 == q1 || q2.String() != mk([]int{1, 0}, "x").String() {
		t.Fatalf("reordered query = %s, want a query of its own", q2)
	}
	if &q2.Conds[0] != &q1.Conds[0] {
		t.Fatal("equal condition lists are not one slice")
	}
	if q3 := h.Query(mk([]int{0, 1}, "y")); q3 == q1 || &q3.Bindings[0] != &q1.Bindings[0] || q3.Conds[0].R.Equal(q1.Conds[0].R) {
		t.Fatal("a query with another constant must share only its binding list")
	}
}

// benchTerm is a ProjDept-shaped output term.
func benchTerm() *Term {
	return Struct(
		SF("PN", Prj(V("s"), "PName")),
		SF("PB", Prj(Lk(Name("Proj"), Prj(V("s"), "PName")), "Budg")),
		SF("DN", Prj(Lk(Name("Dept"), V("d")), "DName")),
		SF("CB", LkNF(Name("SI"), C("CitiBank"))),
	)
}

// BenchmarkTermHashKey: a key rendered on a node never rendered before
// (every node of the term fresh) versus on a node that already holds it.
func BenchmarkTermHashKey(b *testing.B) {
	want := benchTerm().HashKey()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if benchTerm().HashKey() != want {
				b.Fatal("key changed")
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		tm := benchTerm()
		tm.HashKey()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tm.HashKey() != want {
				b.Fatal("key changed")
			}
		}
	})
}

// deepCopy copies every node of t, so the copy renders its key from
// scratch.
func deepCopy(t *Term) *Term {
	cp := &Term{Kind: t.Kind, Name: t.Name, Val: t.Val, NonFailing: t.NonFailing}
	if t.Base != nil {
		cp.Base = deepCopy(t.Base)
	}
	if t.Key != nil {
		cp.Key = deepCopy(t.Key)
	}
	for _, f := range t.Fields {
		cp.Fields = append(cp.Fields, StructField{Name: f.Name, Term: deepCopy(f.Term)})
	}
	return cp
}

// FuzzHashKeyMatchesFresh: for random terms whose subterms are shared
// and memoized in random order, the memoized HashKey equals a fresh
// render of a deep copy, at every node; so does the key of the node a
// HashCons returns, which may carry a key stored on a copy, and a deep
// copy passed through the same table comes back as that node.
func FuzzHashKeyMatchesFresh(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		// Later terms reuse earlier ones as subterms, so one node is
		// reached, and memoized, through several parents.
		pool := []*Term{randomTerm(rng, 1+int(shape%4))}
		for i := 0; i < 1+int(shape/4%8); i++ {
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			switch rng.Intn(4) {
			case 0:
				pool = append(pool, Prj(a, "A"))
			case 1:
				pool = append(pool, Lk(a, b))
			case 2:
				pool = append(pool, Struct(SF("P", a), SF("Q", b)))
			default:
				pool = append(pool, randomTerm(rng, 3))
			}
		}
		// Memoize a random subset first.
		for _, tm := range pool {
			if rng.Intn(2) == 0 {
				tm.HashKey()
			}
		}
		h := NewHashCons()
		for _, tm := range pool {
			for _, sub := range tm.Subterms() {
				fresh := deepCopy(sub).HashKey()
				if got := sub.HashKey(); got != fresh {
					t.Fatalf("memoized key %q, fresh render %q", got, fresh)
				}
				hc := h.Term(sub)
				if got := hc.HashKey(); got != fresh {
					t.Fatalf("hash-consed key %q, fresh render %q", got, fresh)
				}
				if h.Term(deepCopy(sub)) != hc {
					t.Fatalf("a deep copy of %s hash-conses to another node", sub)
				}
			}
		}
	})
}
