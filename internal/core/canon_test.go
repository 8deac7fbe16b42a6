package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// --- random query generation -------------------------------------------

// randomQuery builds a random well-formed query in one of three families:
// star (fact binding joined to k dimension bindings, some over the SAME
// dimension name so canonicalization faces alpha-equivalent range ties),
// snowflake (star with dependent-path outriggers), and chain (dependent
// joins x1 -> x1.F -> ...). Shapes are chosen so that same-range ties,
// dependent ranges, constants and struct outputs all occur.
func randomQuery(rng *rand.Rand) *Query {
	switch rng.Intn(3) {
	case 0:
		return randomStar(rng, false)
	case 1:
		return randomStar(rng, true)
	default:
		return randomChain(rng)
	}
}

func randomStar(rng *rand.Rand, snowflake bool) *Query {
	dims := 1 + rng.Intn(3)
	q := &Query{Bindings: []Binding{{Var: "f", Range: Name("Fact")}}}
	outFields := []StructField{SF("K", Prj(V("f"), "K"))}
	for i := 0; i < dims; i++ {
		v := fmt.Sprintf("d%d", i)
		// Half the dimensions share one table name, so several bindings
		// have alpha-equivalent ranges and the tie-break matters.
		table := "Dim"
		if rng.Intn(2) == 0 {
			table = fmt.Sprintf("Dim%d", i)
		}
		q.Bindings = append(q.Bindings, Binding{Var: v, Range: Name(table)})
		q.Conds = append(q.Conds, Cond{
			L: Prj(V("f"), fmt.Sprintf("FK%d", rng.Intn(2))),
			R: Prj(V(v), "ID"),
		})
		if rng.Intn(2) == 0 {
			q.Conds = append(q.Conds, Cond{L: Prj(V(v), "Grp"), R: C(int64(rng.Intn(3)))})
		}
		if snowflake {
			ov := fmt.Sprintf("o%d", i)
			q.Bindings = append(q.Bindings, Binding{Var: ov, Range: Prj(V(v), "Sub")})
			outFields = append(outFields, SF(fmt.Sprintf("O%d", i), Prj(V(ov), "Name")))
		}
		if rng.Intn(2) == 0 {
			outFields = append(outFields, SF(fmt.Sprintf("D%d", i), Prj(V(v), "Name")))
		}
	}
	q.Out = Struct(outFields...)
	return q
}

func randomChain(rng *rand.Rand) *Query {
	n := 2 + rng.Intn(4)
	q := &Query{Bindings: []Binding{{Var: "x0", Range: Name("R")}}}
	for i := 1; i < n; i++ {
		prev := fmt.Sprintf("x%d", i-1)
		v := fmt.Sprintf("x%d", i)
		if rng.Intn(3) == 0 {
			// A parallel scan of the same relation — a same-range tie.
			q.Bindings = append(q.Bindings, Binding{Var: v, Range: Name("R")})
			q.Conds = append(q.Conds, Cond{L: Prj(V(prev), "A"), R: Prj(V(v), "B")})
		} else {
			q.Bindings = append(q.Bindings, Binding{Var: v, Range: Prj(V(prev), "Next")})
		}
	}
	q.Out = Prj(V(fmt.Sprintf("x%d", n-1)), "A")
	return q
}

// scrambled returns an isomorphic variant of q: an arbitrary-order alpha
// rename (fresh names whose lexicographic order is a random permutation
// of the original order), a random dependency-valid binding shuffle, and
// a random condition reorder with random flips.
func scrambled(q *Query, rng *rand.Rand) *Query {
	// Alpha rename with shuffled name order.
	vars := make([]string, 0, len(q.Bindings))
	for _, b := range q.Bindings {
		vars = append(vars, b.Var)
	}
	perm := rng.Perm(len(vars))
	names := make(map[string]string, len(vars))
	for i, v := range vars {
		names[v] = fmt.Sprintf("z%03d", perm[i])
	}
	r := q.RenameVars(func(v string) string { return names[v] })

	// Random valid binding order: repeatedly pick a random binding whose
	// range variables are already introduced.
	var order []Binding
	introduced := map[string]bool{}
	remaining := append([]Binding(nil), r.Bindings...)
	for len(remaining) > 0 {
		var avail []int
		for i, b := range remaining {
			ok := true
			for v := range b.Range.Vars() {
				if !introduced[v] {
					ok = false
					break
				}
			}
			if ok {
				avail = append(avail, i)
			}
		}
		pick := avail[rng.Intn(len(avail))]
		b := remaining[pick]
		order = append(order, b)
		introduced[b.Var] = true
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	r.Bindings = order

	// Condition reorder + random flips.
	rng.Shuffle(len(r.Conds), func(i, j int) { r.Conds[i], r.Conds[j] = r.Conds[j], r.Conds[i] })
	for i := range r.Conds {
		if rng.Intn(2) == 0 {
			r.Conds[i] = Cond{L: r.Conds[i].R, R: r.Conds[i].L}
		}
	}
	return r
}

// --- property suite ----------------------------------------------------

func TestCanonicalSignatureInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		q := randomQuery(rng)
		if err := q.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid query: %v\n%s", trial, err, q)
		}
		want := q.CanonicalSignature()
		for variant := 0; variant < 4; variant++ {
			s := scrambled(q, rng)
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d: scrambler produced invalid query: %v\n%s", trial, err, s)
			}
			if got := s.CanonicalSignature(); got != want {
				t.Fatalf("trial %d variant %d: canonical signature not invariant\noriginal: %s\nsig:      %s\nvariant:  %s\nsig:      %s",
					trial, variant, q, want, s, got)
			}
		}
	}
}

func TestCanonicalSignatureSeparatesDistinctQueries(t *testing.T) {
	// Invariance alone is trivially satisfied by a constant function; the
	// signature must still separate genuinely different queries.
	rng := rand.New(rand.NewSource(43))
	seen := map[string]bool{}
	distinct := 0
	for trial := 0; trial < 100; trial++ {
		sig := randomQuery(rng).CanonicalSignature()
		if !seen[sig] {
			seen[sig] = true
			distinct++
		}
	}
	if distinct < 20 {
		t.Fatalf("only %d distinct signatures over 100 random queries — canonicalization collapsed", distinct)
	}
}

// --- brute-force differential ------------------------------------------

// bruteForceCanonical enumerates every dependency-valid binding order and
// returns the minimum Signature — the specification the search must meet.
func bruteForceCanonical(q *Query) string {
	n := len(q.Bindings)
	best := ""
	var rec func(order []Binding, used []bool, introduced map[string]bool)
	rec = func(order []Binding, used []bool, introduced map[string]bool) {
		if len(order) == n {
			sig := (&Query{Out: q.Out, Bindings: append([]Binding(nil), order...), Conds: q.Conds}).Signature()
			if best == "" || sig < best {
				best = sig
			}
			return
		}
		for i, b := range q.Bindings {
			if used[i] {
				continue
			}
			ok := true
			for v := range b.Range.Vars() {
				if !introduced[v] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			used[i] = true
			introduced[b.Var] = true
			rec(append(order, b), used, introduced)
			used[i] = false
			delete(introduced, b.Var)
		}
	}
	rec(nil, make([]bool, n), map[string]bool{})
	return best
}

func TestCanonicalSignatureMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 150; trial++ {
		q := randomQuery(rng)
		if len(q.Bindings) > 6 {
			continue
		}
		want := bruteForceCanonical(q)
		if got := q.CanonicalSignature(); got != want {
			t.Fatalf("trial %d: refinement canonicalizer diverges from brute-force minimum\nquery: %s\nwant:  %s\ngot:   %s",
				trial, q, want, got)
		}
	}
}

// --- targeted regressions ----------------------------------------------

// TestCanonicalSignatureOrderReversingRename pins the PR 5 defect: an
// asymmetric self-join whose two bindings range over the same relation.
// The seed tie-break ordered them by raw variable name, so renaming r/s
// to names sorting the other way produced a different signature — a
// missed plan-cache hit and a missed singleflight coalesce for a query
// that is equivalent by construction.
func TestCanonicalSignatureOrderReversingRename(t *testing.T) {
	q := &Query{
		Out: Struct(SF("C1", Prj(V("r"), "C")), SF("C2", Prj(V("s"), "C"))),
		Bindings: []Binding{
			{Var: "r", Range: Name("R")},
			{Var: "s", Range: Name("R")},
		},
		Conds: []Cond{{L: Prj(V("r"), "A"), R: Prj(V("s"), "B")}},
	}
	// Order-reversing rename: r -> z (now largest), s -> a (now smallest).
	rev := q.RenameVars(func(v string) string {
		return map[string]string{"r": "z", "s": "a"}[v]
	})
	if q.CanonicalSignature() != rev.CanonicalSignature() {
		t.Fatalf("order-reversing alpha-rename changed the canonical signature:\n%s\nvs\n%s",
			q.CanonicalSignature(), rev.CanonicalSignature())
	}
	// The normalized queries must be isomorphic orderings of each other,
	// and normalization must be idempotent on the order.
	n := q.NormalizeBindingOrder()
	if err := n.Validate(); err != nil {
		t.Fatalf("normalized query invalid: %v", err)
	}
	if n.NormalizeBindingOrder().Signature() != n.Signature() {
		t.Fatal("NormalizeBindingOrder is not idempotent")
	}
}

// TestCanonicalSignatureCyclicResidue pins the silent-fallback fix: a
// query with a cyclic binding dependency (invalid — Validate rejects it)
// used to be returned in input order with no canonicalization at all, so
// two isomorphic cyclic queries could silently get distinct signatures.
// The residue is now canonicalized deterministically.
func TestCanonicalSignatureCyclicResidue(t *testing.T) {
	cyclic := func(a, b string) *Query {
		return &Query{
			Out: C(true),
			Bindings: []Binding{
				{Var: a, Range: Prj(V(b), "F")},
				{Var: b, Range: Prj(V(a), "G")},
			},
		}
	}
	q1 := cyclic("x", "y")
	q2 := cyclic("q", "p") // reversed name order
	if q1.Validate() == nil {
		t.Fatal("cyclic query unexpectedly validates — test premise broken")
	}
	if q1.CanonicalSignature() != q2.CanonicalSignature() {
		t.Fatalf("isomorphic cyclic queries canonicalize apart:\n%s\nvs\n%s",
			q1.CanonicalSignature(), q2.CanonicalSignature())
	}
	// Still invariant when the cycle is entered from a valid prefix.
	q3 := cyclic("x", "y")
	q3.Bindings = append([]Binding{{Var: "w", Range: Name("R")}}, q3.Bindings...)
	q4 := cyclic("b", "a")
	q4.Bindings = append(q4.Bindings, Binding{Var: "m", Range: Name("R")})
	if q3.CanonicalSignature() != q4.CanonicalSignature() {
		t.Fatalf("cyclic residue after valid prefix canonicalizes apart:\n%s\nvs\n%s",
			q3.CanonicalSignature(), q4.CanonicalSignature())
	}
	// And a structurally different cycle still separates.
	q5 := cyclic("x", "y")
	q5.Bindings[1].Range = Prj(V("x"), "H")
	if q1.CanonicalSignature() == q5.CanonicalSignature() {
		t.Fatal("different cyclic queries share a signature")
	}
}

// TestCanonicalSignatureSymmetricSelfJoinFast guards the automorphism
// pruning: many interchangeable bindings must not trigger a factorial
// search. Six identical scans plus a symmetric condition ring completes
// instantly when same-orbit candidates collapse to one branch.
func TestCanonicalSignatureSymmetricSelfJoinFast(t *testing.T) {
	const k = 6
	q := &Query{Out: C(true)}
	for i := 0; i < k; i++ {
		q.Bindings = append(q.Bindings, Binding{Var: fmt.Sprintf("v%d", i), Range: Name("R")})
	}
	for i := 0; i < k; i++ {
		q.Conds = append(q.Conds, Cond{
			L: Prj(V(fmt.Sprintf("v%d", i)), "K"),
			R: Prj(V(fmt.Sprintf("v%d", (i+1)%k)), "K"),
		})
	}
	rng := rand.New(rand.NewSource(53))
	want := q.CanonicalSignature()
	for i := 0; i < 5; i++ {
		s := scrambled(q, rng)
		if got := s.CanonicalSignature(); got != want {
			t.Fatalf("ring self-join variant %d canonicalizes apart:\n%s\nvs\n%s", i, want, got)
		}
	}
}

// TestRefineBindingColors sanity-checks the WL partition: structurally
// distinguishable bindings get distinct colors, interchangeable ones
// share a color, and the partition is renaming-invariant.
func TestRefineBindingColors(t *testing.T) {
	q := &Query{
		Out: Prj(V("r"), "C"),
		Bindings: []Binding{
			{Var: "r", Range: Name("R")},
			{Var: "s", Range: Name("R")},
			{Var: "t", Range: Name("T")},
		},
		Conds: []Cond{{L: Prj(V("r"), "A"), R: Prj(V("s"), "B")}},
	}
	colors := q.refineBindingColors()
	if colors[0] == colors[1] {
		t.Fatal("r and s are distinguishable (output mentions only r) but share a color")
	}
	if colors[0] == colors[2] || colors[1] == colors[2] {
		t.Fatal("T-binding must not share a color with R-bindings")
	}
	sym := &Query{
		Out: C(true),
		Bindings: []Binding{
			{Var: "a", Range: Name("R")},
			{Var: "b", Range: Name("R")},
		},
		Conds: []Cond{{L: Prj(V("a"), "K"), R: Prj(V("b"), "K")}},
	}
	sc := sym.refineBindingColors()
	if sc[0] != sc[1] {
		t.Fatal("interchangeable symmetric bindings must share a color")
	}
}

func TestSwapIsAutomorphism(t *testing.T) {
	sym := &Query{
		Out: C(true),
		Bindings: []Binding{
			{Var: "a", Range: Name("R")},
			{Var: "b", Range: Name("R")},
		},
		Conds: []Cond{{L: Prj(V("a"), "K"), R: Prj(V("b"), "K")}},
	}
	if !sym.swapIsAutomorphism("a", "b") {
		t.Fatal("symmetric self-join swap must be an automorphism")
	}
	asym := sym.Clone()
	asym.Out = Prj(V("a"), "C")
	if asym.swapIsAutomorphism("a", "b") {
		t.Fatal("output breaks the symmetry — swap must not be an automorphism")
	}
	asym2 := sym.Clone()
	asym2.Conds = []Cond{{L: Prj(V("a"), "K"), R: Prj(V("b"), "L")}}
	if asym2.swapIsAutomorphism("a", "b") {
		t.Fatal("asymmetric condition — swap must not be an automorphism")
	}
}

// TestCanonicalSignatureNoRawNames ensures the canonical signature never
// leaks an original variable name: every variable occurrence must be a
// positional b<k> name.
func TestCanonicalSignatureNoRawNames(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 50; trial++ {
		q := randomQuery(rng)
		sig := q.CanonicalSignature()
		for _, b := range q.Bindings {
			if strings.Contains(sig, "?"+b.Var+".") || strings.HasSuffix(sig, "?"+b.Var) {
				t.Fatalf("canonical signature leaks raw variable %q: %s", b.Var, sig)
			}
		}
	}
}

// --- shape key -----------------------------------------------------------

// withDuplicatedCond returns q with one of its conditions appended again,
// flipped at random: Signature deduplicates conditions, so the copy is
// isomorphic to q.
func withDuplicatedCond(q *Query, rng *rand.Rand) *Query {
	d := q.Clone()
	if len(d.Conds) == 0 {
		return d
	}
	c := d.Conds[rng.Intn(len(d.Conds))]
	if rng.Intn(2) == 0 {
		c = Cond{L: c.R, R: c.L}
	}
	d.Conds = append(d.Conds, c)
	return d
}

// TestShapeKeyInvariance: alpha-renaming, binding shuffles, condition
// reorders and flips (scrambled) and a duplicated condition never change
// the shape key — every variant the canonical signature equates keeps
// its key.
func TestShapeKeyInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		q := randomQuery(rng)
		want := q.ShapeKey()
		for variant := 0; variant < 4; variant++ {
			s := scrambled(q, rng)
			if got := s.ShapeKey(); got != want {
				t.Fatalf("trial %d variant %d: shape key changed\noriginal: %s\nvariant:  %s", trial, variant, q, s)
			}
		}
		d := withDuplicatedCond(scrambled(q, rng), rng)
		if d.CanonicalSignature() != q.CanonicalSignature() {
			t.Fatalf("trial %d: a duplicated condition changed the canonical signature\n%s", trial, d)
		}
		if got := d.ShapeKey(); got != want {
			t.Fatalf("trial %d: a duplicated condition changed the shape key\noriginal: %s\nvariant:  %s", trial, q, d)
		}
	}
}

// TestShapeKeyFollowsCanonicalSignature: over a corpus of random
// queries, equal canonical signatures imply equal shape keys, and the
// key still separates most distinct shapes (a constant key would pass
// the invariance test and send every plan to the canonical search).
func TestShapeKeyFollowsCanonicalSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	keyOf := map[string]uint64{}
	sigsOf := map[uint64]int{}
	for trial := 0; trial < 200; trial++ {
		q := randomQuery(rng)
		if rng.Intn(2) == 0 {
			q = withDuplicatedCond(scrambled(q, rng), rng)
		}
		sig, key := q.CanonicalSignature(), q.ShapeKey()
		if k, ok := keyOf[sig]; ok {
			if k != key {
				t.Fatalf("trial %d: equal canonical signatures, shape keys %x and %x\n%s", trial, k, key, q)
			}
			continue
		}
		keyOf[sig] = key
		sigsOf[key]++
	}
	if len(sigsOf)*2 < len(keyOf) {
		t.Fatalf("%d shape keys for %d canonical signatures — the key barely separates shapes", len(sigsOf), len(keyOf))
	}
	t.Logf("%d canonical signatures, %d shape keys", len(keyOf), len(sigsOf))
}

// TestShapeKeySeparatesRigidParts: the key sees schema names, constants
// (by type and value), projected and struct field names and the lookup
// kind, but no variable name; every NaN constant hashes alike, as
// HashKey renders them alike.
func TestShapeKeySeparatesRigidParts(t *testing.T) {
	one := func(r, out *Term) *Query {
		return &Query{Out: out, Bindings: []Binding{{Var: "x", Range: r}}}
	}
	base := one(Name("R"), Prj(V("x"), "A"))
	for _, c := range []struct {
		name string
		q    *Query
	}{
		{"schema name", one(Name("S"), Prj(V("x"), "A"))},
		{"projected field", one(Name("R"), Prj(V("x"), "B"))},
		{"struct output", one(Name("R"), Struct(SF("A", Prj(V("x"), "A"))))},
		{"lookup kind", one(LkNF(Name("M"), C("k")), Prj(V("x"), "A"))},
		{"binding count", &Query{Out: Prj(V("x"), "A"), Bindings: []Binding{{Var: "x", Range: Name("R")}, {Var: "y", Range: Name("R")}}}},
	} {
		if c.q.ShapeKey() == base.ShapeKey() {
			t.Errorf("%s: shape key does not separate %s from %s", c.name, c.q, base)
		}
	}
	if one(Lk(Name("M"), C("k")), V("x")).ShapeKey() == one(LkNF(Name("M"), C("k")), V("x")).ShapeKey() {
		t.Error("failing and non-failing lookups share a shape key")
	}
	if one(Lk(Name("M"), C(1)), V("x")).ShapeKey() == one(Lk(Name("M"), C(1.0)), V("x")).ShapeKey() {
		t.Error("int and float constants share a shape key")
	}
	if one(Lk(Name("M"), C(1)), V("x")).ShapeKey() == one(Lk(Name("M"), C(2)), V("x")).ShapeKey() {
		t.Error("distinct constants share a shape key")
	}
	if one(Name("R"), Prj(V("y"), "A")).ShapeKey() != one(Name("R"), Prj(V("x"), "A")).ShapeKey() {
		t.Error("a variable name changed the shape key")
	}
	nan1, nan2 := math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())|1)
	a, b := one(Lk(Name("M"), C(nan1)), V("x")), one(Lk(Name("M"), C(nan2)), V("x"))
	if a.Signature() != b.Signature() || a.ShapeKey() != b.ShapeKey() {
		t.Error("NaN constants with different bits render alike but hash apart")
	}
}

// TestShapeKeyNoAlloc: the key is computed without allocating.
func TestShapeKeyNoAlloc(t *testing.T) {
	q := randomQuery(rand.New(rand.NewSource(71)))
	if n := testing.AllocsPerRun(100, func() { q.ShapeKey() }); n != 0 {
		t.Fatalf("ShapeKey allocates %v times per call", n)
	}
}
