package backchase

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/workload"
)

// latticeStates builds every state of q's subquery lattice: Subquery for
// each removal mask, keyed by the set its cascade grew to, in the order
// the masks first reach them.
func latticeStates(sb *SubqueryBuilder) ([]posSet, map[posSet]*core.Query) {
	n := len(sb.q.Bindings)
	var keys []posSet
	states := map[posSet]*core.Query{}
	for mask := 0; mask < 1<<n; mask++ {
		sub, full, ok := sb.subquery(positions(sb.q, removalSet(sb.q, mask)))
		if !ok {
			continue
		}
		if _, seen := states[full]; !seen {
			keys = append(keys, full)
			states[full] = sub
		}
	}
	return keys, states
}

// TestFastCertificateImpliesCanon: over every strict T ⊂ S pair of
// subqueries of every valid scenario root of TestSubqueryMatchesReference
// with at most 9 bindings, identityResolves never accepts a pair whose
// identity mapping the unchased canonical database of S rejects.
func TestFastCertificateImpliesCanon(t *testing.T) {
	labels, roots, _ := rewriteScenarios(t)
	var pairs, fast, fellBack int
	for i, q := range roots {
		if len(q.Bindings) > 9 || q.Validate() != nil {
			continue
		}
		sb := NewSubqueryBuilder(q)
		keys, states := latticeStates(sb)
		compiled := map[posSet]*chase.CompiledQuery{}
		for _, s := range keys {
			rw := sb.rewriter(s)
			var maps func(*chase.CompiledQuery) bool
			for _, tk := range keys {
				if tk == s || !s.subsetOf(tk) {
					continue
				}
				pairs++
				if !identityResolves(rw, states[tk], states[s]) {
					fellBack++
					continue
				}
				fast++
				if maps == nil {
					maps = identityMaps(states[s])
				}
				if compiled[tk] == nil {
					compiled[tk] = chase.CompileQuery(states[tk])
				}
				if !maps(compiled[tk]) {
					t.Errorf("%s: root closure accepts T into S, the canonical database does not\nT = %s\nS = %s", labels[i], states[tk], states[s])
				}
			}
		}
	}
	t.Logf("%d pairs: %d decided on the root closure, %d left to the canonical database", pairs, fast, fellBack)
	if fast == 0 {
		t.Fatal("the root closure decided no pair")
	}
}

// certGen builds small random roots with constructor-typed variables,
// typed so that every variable has a finite type (an untyped generator
// soon equates a variable with a constructor over itself, where the
// rewriting's search grows exponentially). Variables range over the
// record sets R and S or over M[k], a dictionary of records; a record
// has base-valued fields A and B. Conditions equate base terms
// (projections, constants) or record terms (variables, lookups, and
// constructors of one or two base fields), so that a variable equals a
// constructor and projections of it occur: Resolve's Hit and Beta cases
// run, with the rewriter's rebuild and inverse beta under them, and two
// constructors of different shapes in one class make projections of it
// ambiguous.
type certGen struct{ rewriteGen }

func (g certGen) base(vars []string) *core.Term {
	if g.r.Intn(4) == 0 {
		return core.C(g.pick("x", "y"))
	}
	return core.Prj(core.V(vars[g.r.Intn(len(vars))]), g.pick("A", "B"))
}

func (g certGen) record(vars []string) *core.Term {
	switch g.r.Intn(4) {
	case 0:
		return core.Lk(core.Name("M"), g.base(vars))
	case 1:
		return core.Struct(core.SF("A", g.base(vars)))
	case 2:
		return core.Struct(core.SF("A", g.base(vars)), core.SF("B", g.base(vars)))
	}
	return core.V(vars[g.r.Intn(len(vars))])
}

func (g certGen) query(nb, nc int) *core.Query {
	q := &core.Query{}
	var vars []string
	for i := 0; i < nb; i++ {
		rng := core.Name(g.pick("R", "S"))
		if len(vars) > 0 && g.r.Intn(3) == 0 {
			rng = core.Lk(core.Name("M"), g.base(vars))
		}
		v := fmt.Sprintf("v%d", i)
		q.Bindings = append(q.Bindings, core.Binding{Var: v, Range: rng})
		vars = append(vars, v)
	}
	for i := 0; i < nc; i++ {
		if g.r.Intn(2) == 0 {
			q.Conds = append(q.Conds, core.Cond{L: g.base(vars), R: g.base(vars)})
		} else {
			q.Conds = append(q.Conds, core.Cond{L: core.V(vars[g.r.Intn(nb)]), R: g.record(vars)})
		}
	}
	q.Out = core.Struct(core.SF("A", g.base(vars)), core.SF("B", g.base(vars)))
	return q
}

// term returns a random base or record term over vars.
func (g certGen) term(vars []string) *core.Term {
	if g.r.Intn(2) == 0 {
		return g.base(vars)
	}
	return g.record(vars)
}

// FuzzFastCertificateMatchesCanon is the soundness oracle of the
// certificates' fast path on random roots with constructor-typed
// variables: for a random pair of removal masks T ⊂ S, identityResolves
// accepting T into S implies that the identity maps T into S's unchased
// canonical database; and for random terms over all of the root's
// variables, removed ones included, Rewriter.Equates under S implies
// that S's canonical database equates them. It also holds S to the
// construction's own guarantee, root ⊑ S by the identity (see
// TestCandidatesContainRoot).
func FuzzFastCertificateMatchesCanon(f *testing.F) {
	for seed := int64(0); seed < 256; seed++ {
		f.Add(seed, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		g := certGen{rewriteGen{r: rand.New(rand.NewSource(seed))}}
		q := g.query(2+int(shape%4), 1+int(shape/4%6))
		if q.Validate() != nil {
			return
		}
		n := len(q.Bindings)
		sb := NewSubqueryBuilder(q)
		sMask := g.r.Intn(1 << n)
		sub, s, ok := sb.subquery(positions(q, removalSet(q, sMask)))
		if !ok {
			return
		}
		if !rootMaps(q)(sub) {
			t.Fatalf("the identity does not map S into the root's canonical database\nroot %s\nS = %s", q, sub)
		}
		rw := sb.rewriter(s)
		if tq, tk, ok := sb.subquery(positions(q, removalSet(q, sMask|g.r.Intn(1<<n)))); ok && tk != s && s.subsetOf(tk) {
			if identityResolves(rw, tq, sub) && !identityMaps(sub)(chase.CompileQuery(tq)) {
				t.Fatalf("root closure accepts T into S, the canonical database does not\nroot %s\nT = %s\nS = %s", q, tq, sub)
			}
		}
		var vars []string
		for _, b := range q.Bindings {
			vars = append(vars, b.Var)
		}
		cn := chase.NewCanon(sub)
		for k := 0; k < 8; k++ {
			a, b := g.term(vars), g.term(vars)
			if rw.Equates(a, b) && !cn.CC.Same(a, b) {
				t.Fatalf("Equates(%s, %s) under S, S's canonical database does not equate them\nroot %s\nS = %s", a, b, q, sub)
			}
		}
	})
}

// certifiedStates returns the states one ProjDept run certified, with
// the engine that ran it: the accepted states the seed dives did not
// chase and some seed proves.
func certifiedStates(tb testing.TB) (*engine, []posSet) {
	pd, err := workload.NewProjDept()
	if err != nil {
		tb.Fatal(err)
	}
	u, err := chase.Chase(pd.Q, pd.AllDeps(), chase.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := newEngine(context.Background(), u.Query, pd.AllDeps(), Options{Goal: pd.Q}.withDefaults())
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.dive(context.Background()); err != nil {
		tb.Fatal(err)
	}
	dived := map[posSet]bool{}
	for key := range e.eq {
		dived[key] = true
	}
	res, err := e.enumerate(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	var out []posSet
	for key, eq := range e.eq {
		if eq && !dived[key] && e.certify(key, e.cachedSubquery(key).sub) {
			out = append(out, key)
		}
	}
	if len(out) != res.Certified {
		tb.Fatalf("replayed %d certificates, the run certified %d", len(out), res.Certified)
	}
	slices.Sort(out)
	return e, out
}

// BenchmarkCertifyProjDept runs the certificates of one ProjDept run
// (199 states): on the frozen root closure, as certify decides them, and
// by the canonical database of each state, the reference
// (canonCertifies).
func BenchmarkCertifyProjDept(b *testing.B) {
	e, states := certifiedStates(b)
	subs := make([]*core.Query, len(states))
	for i, s := range states {
		subs[i] = e.cachedSubquery(s).sub
	}
	b.Run("root-closure", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, s := range states {
				if !e.certify(s, subs[j]) {
					b.Fatal("certificate lost")
				}
			}
		}
	})
	compiled := compiledSeeds(e)
	b.Run("canon", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, s := range states {
				if !canonCertifies(e, compiled, s, subs[j]) {
					b.Fatal("certificate lost")
				}
			}
		}
	})
}

// identityMaps returns the reference the fast path is held to: whether
// the identity on t's variables maps t into s's unchased canonical
// database, built once, with s's output.
func identityMaps(s *core.Query) func(t *chase.CompiledQuery) bool {
	cn := chase.NewCanon(s)
	id := make(chase.Hom, len(s.Bindings))
	for _, b := range s.Bindings {
		id[b.Var] = core.V(b.Var)
	}
	return func(t *chase.CompiledQuery) bool { return cn.MapsCompiledInto(t, s.Out, id) }
}

// canonCertifies is the reference certify is held to: the same
// certificate decided on sub's unchased canonical database, built once,
// with each seed below sub (compiled holds them in e.seeds' order)
// tried by the identity mapping.
func canonCertifies(e *engine, compiled []*chase.CompiledQuery, removed posSet, sub *core.Query) bool {
	var maps func(*chase.CompiledQuery) bool
	for i := range e.seeds {
		if !e.seeds[i].below(removed) {
			continue
		}
		if maps == nil {
			maps = identityMaps(sub)
		}
		if maps(compiled[i]) {
			return true
		}
	}
	return false
}

// compiledSeeds compiles e's seeds, for canonCertifies.
func compiledSeeds(e *engine) []*chase.CompiledQuery {
	out := make([]*chase.CompiledQuery, len(e.seeds))
	for i, sd := range e.seeds {
		out[i] = chase.CompileQuery(sd.q)
	}
	return out
}

// TestProjDeptCertificatesOnRootClosure: every certificate of the
// paper's example is decided on the frozen root closure; the canonical
// database, the reference, agrees on each.
func TestProjDeptCertificatesOnRootClosure(t *testing.T) {
	e, states := certifiedStates(t)
	compiled := compiledSeeds(e)
	fast := 0
	for _, s := range states {
		sub := e.cachedSubquery(s).sub
		if e.certify(s, sub) {
			fast++
		}
		if !canonCertifies(e, compiled, s, sub) {
			t.Errorf("the canonical database rejects a certified state:\n%s", sub)
		}
	}
	t.Logf("%d certified states, %d decided on the root closure", len(states), fast)
	if fast != len(states) {
		t.Errorf("%d of %d certificates decided on the root closure, want all", fast, len(states))
	}
}

// rootMaps returns the guarantee subqueryFrom's construction gives every
// candidate (see equivalentToRoot): whether the identity on s's
// variables maps s, with its output, into root's unchased canonical
// database, built once, with the root's output.
func rootMaps(root *core.Query) func(s *core.Query) bool {
	cn := chase.NewCanon(root)
	return func(s *core.Query) bool {
		id := make(chase.Hom, len(s.Bindings))
		for _, b := range s.Bindings {
			id[b.Var] = core.V(b.Var)
		}
		return cn.MapsCompiledInto(chase.CompileQuery(s), root.Out, id)
	}
}

// TestCandidatesContainRoot: root ⊑ S by the identity, with no
// dependencies, for every candidate S that subqueryFrom builds from the
// 614 roots of TestSubqueryMatchesReference. The engine relies on it
// instead of testing root ⊑ S per candidate. On the ProjDept universal
// plan every removal mask is checked, and a backtracking containment
// search on a fresh canon agrees.
func TestCandidatesContainRoot(t *testing.T) {
	labels, roots, _ := rewriteScenarios(t)
	candidates := 0
	for i, q := range roots {
		maps := rootMaps(q)
		keys, states := latticeStates(NewSubqueryBuilder(q))
		for _, k := range keys {
			candidates++
			if !maps(states[k]) {
				t.Errorf("%s: the identity does not map S into the root\nroot %s\nS = %s", labels[i], q, states[k])
			}
		}
	}
	t.Logf("%d candidates over %d roots", candidates, len(roots))

	u := chasedProjDept(t)
	sb := NewSubqueryBuilder(u)
	maps := rootMaps(u)
	built := 0
	for mask := 1; mask < 1<<len(u.Bindings); mask++ {
		sub, ok := sb.Subquery(removalSet(u, mask))
		if !ok || len(sub.Bindings) == 0 {
			continue
		}
		built++
		if !maps(sub) || !chase.NewCanon(u).MapsCompiledInto(chase.CompileQuery(sub), u.Out, nil) {
			t.Errorf("ProjDept mask %b: S does not map into the root\nS = %s", mask, sub)
		}
	}
	if built < 100 {
		t.Fatalf("only %d ProjDept candidates built", built)
	}
}
