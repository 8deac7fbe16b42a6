package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"cnb/internal/congruence"
	"cnb/internal/core"
)

// The reference homomorphism search: the algorithm the compiled search
// replaced. Each transported term is built with Subst and compared with
// Same, which interns it into the closure; targets are scanned linearly,
// re-resolving every class per candidate. It runs on a private clone of
// the canonical database so that its interning never shows elsewhere.

func refHoms(cn *Canon, bs []core.Binding, cs []core.Cond, init Hom, visit func(Hom) bool) {
	h := Hom{}
	for k, v := range init {
		h[k] = v
	}
	holds := func(c core.Cond) bool { return cn.CC.Same(h.Apply(c.L), h.Apply(c.R)) }
	assigned := func(t *core.Term) bool {
		for v := range t.Vars() {
			if _, ok := h[v]; !ok {
				return false
			}
		}
		return true
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(bs) {
			for _, c := range cs {
				if !holds(c) {
					return false
				}
			}
			return visit(h)
		}
		b := bs[i]
		want := h.Apply(b.Range)
		if got, pre := h[b.Var]; pre {
			for _, tb := range cn.Q.Bindings {
				if cn.CC.Same(tb.Range, want) && cn.CC.Same(core.V(tb.Var), got) {
					return rec(i + 1)
				}
			}
			return false
		}
		for _, tb := range cn.Q.Bindings {
			if cn.CC.Rep(tb.Range) != cn.CC.Rep(want) {
				continue
			}
			h[b.Var] = core.V(tb.Var)
			ok := true
			for _, c := range cs {
				if assigned(c.L) && assigned(c.R) && !holds(c) {
					ok = false
					break
				}
			}
			if ok && rec(i+1) {
				return true
			}
			delete(h, b.Var)
		}
		return false
	}
	rec(0)
}

// refHomKeys lists the keys of the reference's homomorphisms of src
// into a clone of cn, in order, keeping those whose output matches out
// when out is non-nil.
func refHomKeys(cn *Canon, src *core.Query, out *core.Term, init Hom) []string {
	ref := cn.clone()
	var keys []string
	refHoms(ref, src.Bindings, src.Conds, init, func(h Hom) bool {
		if out == nil || ref.CC.Same(h.Apply(src.Out), out) {
			keys = append(keys, h.Key())
		}
		return false
	})
	return keys
}

// compiledHomKeys is refHomKeys on the compiled search in mode m; void
// reports a pure search that met an ambiguous projection.
func compiledHomKeys(cn *Canon, src *core.Query, out *core.Term, init Hom, m mode) (keys []string, void bool) {
	cq := compileQuery(src.Bindings, src.Conds, src.Out, initVars(src.Bindings, init))
	collect := func(s *search) bool {
		keys = append(keys, s.hom().Key())
		return false
	}
	if out != nil {
		_, void = cn.queryHoms(cq, out, init, m, collect)
		return keys, void
	}
	s := cn.newSearch(cq.prog, cq.atoms, cq.conds, m)
	s.assignInit(init)
	s.fn = collect
	s.run(nil)
	return keys, s.void
}

// fuzzGen builds small random queries over the names R, S, M and the
// fields A, B: ranges that are names, projections of earlier variables,
// lookups and dom; conditions between variables, projections (with
// repeats), constants and struct constructors of one or two fields, so
// beta and constructors with shared fields in one class occur.
type fuzzGen struct {
	r *rand.Rand
}

func (g fuzzGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

func (g fuzzGen) term(vars []string, depth int) *core.Term {
	if len(vars) == 0 {
		return core.C(int64(g.r.Intn(2)))
	}
	v := core.V(vars[g.r.Intn(len(vars))])
	switch k := g.r.Intn(8); {
	case k < 2 || depth == 0:
		return v
	case k < 5:
		return core.Prj(g.term(vars, depth-1), g.pick("A", "B"))
	case k == 5:
		return core.C(g.pick("x", "y"))
	case k == 6:
		return core.Struct(core.SF("A", g.term(vars, depth-1)))
	default:
		return core.Struct(core.SF("A", g.term(vars, depth-1)), core.SF("B", g.term(vars, depth-1)))
	}
}

func (g fuzzGen) query(prefix string, nb, nc int) *core.Query {
	q := &core.Query{}
	var vars []string
	for i := 0; i < nb; i++ {
		var rng *core.Term
		switch k := g.r.Intn(6); {
		case k < 2 || len(vars) == 0:
			rng = core.Name(g.pick("R", "S"))
		case k < 4:
			rng = core.Prj(core.V(vars[g.r.Intn(len(vars))]), g.pick("A", "B"))
		case k == 4:
			rng = core.Dom(core.Name("M"))
		default:
			rng = core.Lk(core.Name("M"), core.V(vars[g.r.Intn(len(vars))]))
		}
		v := fmt.Sprintf("%s%d", prefix, i)
		q.Bindings = append(q.Bindings, core.Binding{Var: v, Range: rng})
		vars = append(vars, v)
	}
	for i := 0; i < nc; i++ {
		q.Conds = append(q.Conds, core.Cond{L: g.term(vars, 2), R: g.term(vars, 2)})
	}
	q.Out = g.term(vars, 1)
	return q
}

// checkCompiledMatchesReference runs every comparison for one input.
func checkCompiledMatchesReference(t *testing.T, target, src *core.Query, init Hom) {
	t.Helper()
	// Homomorphisms, in order, without and with the output match.
	for _, out := range []*core.Term{nil, target.Out} {
		want := refHomKeys(NewCanon(target), src, out, init)
		for _, m := range []mode{modeLookup, modeIntern} {
			got, _ := compiledHomKeys(NewCanon(target), src, out, init, m)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("mode %d, out %v: homs\n got  %v\n want %v\ntarget %s\nsource %s\ninit %v", m, out, got, want, target, src, init)
			}
		}
		if out == nil {
			continue
		}
		// The read-only containment test: the reference's answer, and the
		// closure does not move.
		cn := NewCanon(target)
		n, ver := cn.CC.Len(), cn.CC.Version()
		var got bool
		if init == nil {
			got = cn.MapsCompiledInto(CompileQuery(src), out, nil)
		} else {
			got = cn.MapsQueryInto(src, out, init)
		}
		if got != (len(want) > 0) {
			t.Fatalf("containment %v, reference %v\ntarget %s\nsource %s", got, len(want) > 0, target, src)
		}
		if cn.CC.Len() != n || cn.CC.Version() != ver {
			t.Fatalf("read-only containment test moved the closure: len %d -> %d, version %d -> %d", n, cn.CC.Len(), ver, cn.CC.Version())
		}
	}
}

// FuzzCompiledHomsMatchReference is the differential oracle of the
// compiled homomorphism search: on random small queries (projections,
// lookups, dom, constructors with beta, constants, repeated variables)
// it must yield the reference's homomorphisms in the reference's order,
// in the lookup and the interning mode, and the read-only containment
// test must give the reference's answer without changing the closure.
func FuzzCompiledHomsMatchReference(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		g := fuzzGen{r: rand.New(rand.NewSource(seed))}
		target := g.query("t", 2+int(shape%3), 1+int(shape/3%3))
		// Sources share some variable names with the target half the
		// time: slots must not capture them.
		prefix := "s"
		if shape&0x40 != 0 {
			prefix = "t"
		}
		src := g.query(prefix, 1+int(shape/9%3), int(shape/27%3))
		if shape&0x80 != 0 {
			// A repeated source variable: its second binding is a
			// membership witness test.
			src.Bindings = append(src.Bindings, core.Binding{Var: src.Bindings[0].Var, Range: target.Bindings[0].Range})
		}
		checkCompiledMatchesReference(t, target, src, nil)
		// The identity on a subquery of the target, as the backchase's
		// certificate tests try it.
		sub := &core.Query{Out: target.Out, Bindings: target.Bindings[:1+int(shape)%len(target.Bindings)]}
		id := Hom{}
		for _, b := range sub.Bindings {
			id[b.Var] = core.V(b.Var)
		}
		if sub.Out.Vars()[sub.Bindings[0].Var] || len(sub.Out.Vars()) == 0 {
			checkCompiledMatchesReference(t, target, sub, id)
		}
	})
}

// TestAmbiguousProjectionFallsBackToClone: r's class holds two
// constructors with field A, in different classes (s and t), and no
// node r.A. Interning r.A would merge s and t, so a read-only lookup of
// r.A has no answer: the containment test must rerun on a private clone
// (and find the mapping the merge creates) rather than guess, and must
// leave the shared closure as it was.
func TestAmbiguousProjectionFallsBackToClone(t *testing.T) {
	v, n, prj, sf := core.V, core.Name, core.Prj, core.SF
	target := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "r", Range: n("R")},
			{Var: "s", Range: n("S")},
			{Var: "t", Range: n("T")},
		},
		Conds: []core.Cond{
			{L: v("r"), R: core.Struct(sf("A", v("s")), sf("B", v("t")))},
			{L: v("r"), R: core.Struct(sf("A", v("t")))},
		},
	}
	src := &core.Query{
		Out: core.C(true),
		Bindings: []core.Binding{
			{Var: "x", Range: n("R")},
			{Var: "y", Range: n("S")},
			{Var: "z", Range: n("T")},
		},
		Conds: []core.Cond{{L: prj(v("x"), "A"), R: v("y")}, {L: v("y"), R: v("z")}},
	}
	cn := NewCanon(target)
	cn.CC.Freeze()
	rep := func(t *core.Term) int {
		r, _ := cn.CC.LookupLeaf(t)
		return r
	}
	if _, st := cn.CC.Lookup(congruence.OpOf(prj(v("r"), "A")), []int{rep(v("r"))}); st != congruence.Ambiguous {
		t.Fatalf("lookup of r.A = %v, want Ambiguous", st)
	}
	if cn.CC.Same(v("s"), v("t")) {
		t.Fatal("s and t must start in different classes")
	}
	n0, ver := cn.CC.Len(), cn.CC.Version()
	if _, void := cn.queryHoms(CompileQuery(src), target.Out, nil, modePure, nil); !void {
		t.Fatal("a pure search through r.A must be void, not guess")
	}
	if !cn.MapsCompiledInto(CompileQuery(src), target.Out, nil) {
		t.Fatal("x.A = y, y = z maps in once r.A merges s and t; the fallback missed it")
	}
	if len(refHomKeys(NewCanon(target), src, target.Out, nil)) == 0 {
		t.Fatal("the reference must find the mapping too")
	}
	if cn.CC.Len() != n0 || cn.CC.Version() != ver || cn.CC.Same(v("s"), v("t")) {
		t.Fatal("the fallback changed the shared closure")
	}
	checkCompiledMatchesReference(t, target, src, nil)
}
