package backchase

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cnb/internal/chase"
	"cnb/internal/congruence"
	"cnb/internal/core"
	"cnb/internal/workload"
)

// This file holds the string-keyed term rewriting the backchase used
// before congruence.Rewriter: every step renders or looks up terms by
// HashKey, rescans classes through ClassMembers and tracks its cycle
// guard in a map. It is the reference the class-id construction is
// checked against, byte for byte, and is written over the closure's
// exported API only.

// mentionsAny reports whether any of the variables occurs in t.
func mentionsAny(t *core.Term, vars map[string]bool) bool {
	for v := range vars {
		if t.MentionsVar(v) {
			return true
		}
	}
	return false
}

// closureLen counts the terms interned in c: its node ids are 0 to
// closureLen(c)-1.
func closureLen(c *congruence.Closure) int {
	n := 0
	for _, class := range c.Classes() {
		n += len(class)
	}
	return n
}

// refRewrite produces a term congruent to t that mentions none of the
// avoided variables, preferring an interned class member, then a rebuild
// of t or of a class member over rewritten children, then inverse beta.
// busy holds the HashKeys of the terms being rewritten higher up.
func refRewrite(c *congruence.Closure, t *core.Term, avoid, busy map[string]bool) (*core.Term, bool) {
	if !mentionsAny(t, avoid) {
		return t, true
	}
	key := t.HashKey()
	if busy[key] {
		return nil, false
	}
	busy[key] = true
	defer delete(busy, key)

	if c.Contains(t) {
		for _, m := range c.ClassMembers(t) {
			if !mentionsAny(m, avoid) {
				return m, true
			}
		}
	}
	if r, ok := refRebuildChildren(c, t, avoid, busy); ok {
		return r, true
	}
	if c.Contains(t) {
		for _, m := range c.ClassMembers(t) {
			if m.HashKey() == key {
				continue
			}
			if r, ok := refRebuildChildren(c, m, avoid, busy); ok {
				return r, true
			}
		}
	}
	if tid, ok := c.ID(t); ok {
		tr := c.Find(tid)
		for id, size := 0, closureLen(c); id < size; id++ {
			n := c.Term(id)
			if n.Kind != core.KStruct {
				continue
			}
			for _, f := range n.Fields {
				if fid, _ := c.ID(f.Term); c.Find(fid) != tr {
					continue
				}
				for _, m := range c.ClassMembers(n) {
					if m.Kind == core.KStruct {
						continue
					}
					if r, ok := refRewrite(c, m, avoid, busy); ok {
						return core.Prj(r, f.Name), true
					}
				}
			}
		}
	}
	return nil, false
}

// refRebuildChildren reconstructs t with every child rewritten.
func refRebuildChildren(c *congruence.Closure, t *core.Term, avoid, busy map[string]bool) (*core.Term, bool) {
	switch t.Kind {
	case core.KVar:
		if avoid[t.Name] {
			return nil, false
		}
		return t, true
	case core.KConst, core.KName:
		return t, true
	case core.KProj, core.KDom:
		b, ok := refRewrite(c, t.Base, avoid, busy)
		if !ok {
			return nil, false
		}
		if t.Kind == core.KDom {
			return core.Dom(b), true
		}
		return core.Prj(b, t.Name), true
	case core.KLookup:
		b, ok := refRewrite(c, t.Base, avoid, busy)
		if !ok {
			return nil, false
		}
		k, ok := refRewrite(c, t.Key, avoid, busy)
		if !ok {
			return nil, false
		}
		return &core.Term{Kind: core.KLookup, Base: b, Key: k, NonFailing: t.NonFailing}, true
	case core.KStruct:
		fs := make([]core.StructField, len(t.Fields))
		for i, f := range t.Fields {
			ft, ok := refRewrite(c, f.Term, avoid, busy)
			if !ok {
				return nil, false
			}
			fs[i] = core.StructField{Name: f.Name, Term: ft}
		}
		return core.Struct(fs...), true
	}
	return nil, false
}

// refRewriteVariants returns the distinct terms congruent to t that
// avoid the variables, sorted by HashKey: t and its free class members,
// its rewrite, and its structural rebuild.
func refRewriteVariants(c *congruence.Closure, t *core.Term, avoid map[string]bool) []*core.Term {
	seen := map[string]bool{}
	var out []*core.Term
	add := func(u *core.Term) {
		if k := u.HashKey(); !seen[k] {
			seen[k] = true
			out = append(out, u)
		}
	}
	if !mentionsAny(t, avoid) {
		add(t)
	}
	if c.Contains(t) {
		for _, m := range c.ClassMembers(t) {
			if !mentionsAny(m, avoid) {
				add(m)
			}
		}
	}
	if r, ok := refRewrite(c, t, avoid, map[string]bool{}); ok {
		add(r)
	}
	if r, ok := refRebuildChildren(c, t, avoid, map[string]bool{t.HashKey(): true}); ok {
		add(r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HashKey() < out[j].HashKey() })
	return out
}

// refSubquery is subqueryFrom over the string-keyed rewriting.
func refSubquery(q *core.Query, cc *congruence.Closure, removedVars map[string]bool) (*core.Query, bool) {
	removed := map[string]bool{}
	for v := range removedVars {
		removed[v] = true
	}
	var survivors []core.Binding
	for grown := true; grown; {
		survivors, grown = survivors[:0], false
		for _, b := range q.Bindings {
			if removed[b.Var] {
				continue
			}
			rng, ok := refRewrite(cc, b.Range, removed, map[string]bool{})
			if !ok {
				removed[b.Var], grown = true, true
				break
			}
			survivors = append(survivors, core.Binding{Var: b.Var, Range: rng})
		}
	}
	if len(survivors) == 0 {
		return nil, false
	}
	out, ok := refRewrite(cc, q.Out, removed, map[string]bool{})
	if !ok {
		return nil, false
	}
	var conds []core.Cond
	condSeen := map[string]bool{}
	for _, class := range cc.Classes() {
		var reps []*core.Term
		repSeen := map[string]bool{}
		for _, m := range class {
			for _, r := range refRewriteVariants(cc, m, removed) {
				if k := r.HashKey(); !repSeen[k] {
					repSeen[k] = true
					reps = append(reps, r)
				}
			}
		}
		for _, r := range reps[min(1, len(reps)):] {
			k1, k2 := reps[0].HashKey(), r.HashKey()
			if k1 > k2 {
				k1, k2 = k2, k1
			}
			if !reps[0].Equal(r) && !condSeen[k1+"="+k2] {
				condSeen[k1+"="+k2] = true
				conds = append(conds, core.Cond{L: reps[0], R: r})
			}
		}
	}
	surviving := map[string]bool{}
	for _, s := range survivors {
		surviving[s.Var] = true
	}
	okVars := func(t *core.Term) bool {
		for v := range t.Vars() {
			if !surviving[v] {
				return false
			}
		}
		return true
	}
	kept := conds[:0]
	for _, c := range conds {
		if okVars(c.L) && okVars(c.R) {
			kept = append(kept, c)
		}
	}
	if !okVars(out) {
		return nil, false
	}
	sorted, ok := topoSortBindings(survivors)
	if !ok {
		return nil, false
	}
	sub := &core.Query{Out: out, Bindings: sorted, Conds: kept}
	if sub.Validate() != nil {
		return nil, false
	}
	return sub, true
}

// refNormalizeTerm is normalizeTerm over the string-keyed rewriting:
// the smallest of every class member's variants.
func refNormalizeTerm(t *core.Term, cn *chase.Canon, own map[string]bool) *core.Term {
	if t.Kind == core.KStruct {
		fs := make([]core.StructField, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = core.StructField{Name: f.Name, Term: refNormalizeTerm(f.Term, cn, own)}
		}
		return core.Struct(fs...)
	}
	if !cn.CC.Contains(t) {
		return t
	}
	avoid := map[string]bool{}
	for v := range cn.Q.BoundVars() {
		if !own[v] {
			avoid[v] = true
		}
	}
	best := t
	for _, m := range cn.CC.ClassMembers(t) {
		for _, r := range refRewriteVariants(cn.CC, m, avoid) {
			if !refOwnVars(r, own) {
				continue
			}
			if r.Size() < best.Size() || (r.Size() == best.Size() && r.HashKey() < best.HashKey()) {
				best = r
			}
		}
	}
	return best
}

func refOwnVars(t *core.Term, own map[string]bool) bool {
	for v := range t.Vars() {
		if !own[v] {
			return false
		}
	}
	return true
}

// checkRewriteMatchesReference builds q's subquery for removed over the
// class-id construction and over the reference, on one shared frozen
// root closure, and fails unless both agree byte for byte. When the
// subquery exists its output is then normalized against the canon of
// its own chase, frozen, by normalizeTerm and by the reference.
func checkRewriteMatchesReference(t *testing.T, label string, q *core.Query, cc *congruence.Closure, removed map[string]bool, ix *chase.DepIndex) {
	t.Helper()
	got, _, gotOK := subqueryFrom(q, cc, positions(q, removed))
	want, wantOK := refSubquery(q, cc, removed)
	if gotOK != wantOK || (wantOK && got.String() != want.String()) {
		t.Fatalf("%s, removed %v: subquery (ok=%v)\n%v\nreference (ok=%v)\n%v\nroot %s", label, removed, gotOK, got, wantOK, want, q)
	}
	if !wantOK || ix == nil {
		return
	}
	res, err := chase.ChaseIndexed(context.Background(), got, ix, chase.Options{})
	if err != nil || res.Inconsistent {
		return
	}
	cn := ix.NewCanon(res.Query, nil)
	cn.CC.Freeze()
	own := got.BoundVars()
	if g, w := normalizeTerm(got.Out, cn, own), refNormalizeTerm(got.Out, cn, own); g.HashKey() != w.HashKey() {
		t.Fatalf("%s, removed %v: normalizeTerm(%s) = %s, reference %s", label, removed, got.Out, g, w)
	}
}

// rewriteGen builds small random path-conjunctive queries over the names
// R, S and the dictionary M with fields A and B: ranges that are names,
// projections of earlier variables, lookups and dom; conditions between
// variables, projections, lookups, constants and struct constructors of
// one or two fields, so beta and inverse beta occur; an output of the
// same terms. Constructors are never nested: a variable equated to a
// constructor over itself has no finite type, and on such inputs the
// rewriting's search (the reference's as well) grows exponentially.
type rewriteGen struct{ r *rand.Rand }

func (g rewriteGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

func (g rewriteGen) term(vars []string, depth int, structs bool) *core.Term {
	v := core.V(vars[g.r.Intn(len(vars))])
	switch k := g.r.Intn(9); {
	case k < 2 || depth == 0:
		return v
	case k < 5:
		return core.Prj(g.term(vars, depth-1, false), g.pick("A", "B"))
	case k == 5:
		return core.C(g.pick("x", "y"))
	case k == 6 || !structs:
		return core.Lk(core.Name("M"), g.term(vars, depth-1, false))
	case k == 7:
		return core.Struct(core.SF("A", g.term(vars, depth-1, false)))
	default:
		return core.Struct(core.SF("A", g.term(vars, depth-1, false)), core.SF("B", g.term(vars, depth-1, false)))
	}
}

func (g rewriteGen) query(nb, nc int) *core.Query {
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
		v := fmt.Sprintf("v%d", i)
		q.Bindings = append(q.Bindings, core.Binding{Var: v, Range: rng})
		vars = append(vars, v)
	}
	for i := 0; i < nc; i++ {
		q.Conds = append(q.Conds, core.Cond{L: g.term(vars, 2, true), R: g.term(vars, 2, true)})
	}
	q.Out = g.term(vars, 2, true)
	return q
}

// FuzzRewriteMatchesReference is the differential oracle of the class-id
// rewriting: on a random small query and a random removal mask,
// subqueryFrom over the frozen root closure and normalizeTerm over the
// subquery's frozen canon must return exactly what the string-keyed
// reference returns.
func FuzzRewriteMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		g := rewriteGen{r: rand.New(rand.NewSource(seed))}
		q := g.query(2+int(shape%4), int(shape/4%4))
		cc := rootClosure(q)
		removed := removalSet(q, g.r.Intn(1<<len(q.Bindings)))
		checkRewriteMatchesReference(t, fmt.Sprintf("seed %d shape %d", seed, shape), q, cc, removed, chase.NewDepIndex(nil))
	})
}

// rewriteScenarios are the roots of the table test: ProjDept, chain
// n=3..5, the three E13 star/snowflake workloads and 300 random queries
// of the Enumerate ≡ BruteForceMinimal suite, each as given and as its
// universal plan — 614 roots.
func rewriteScenarios(t *testing.T) (labels []string, roots []*core.Query, deps [][]*core.Dependency) {
	add := func(label string, q *core.Query, ds []*core.Dependency) {
		res, err := chase.Chase(q, ds, chase.Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		labels = append(labels, label, label+" (universal plan)")
		roots = append(roots, q, res.Query)
		deps = append(deps, ds, ds)
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	add("ProjDept", pd.Q, pd.AllDeps())
	for _, n := range []int{3, 4, 5} {
		c, err := workload.NewChain(n, n-1)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("chain n=%d", n), c.Q, c.Deps)
	}
	base := workload.StarConfig{Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true, Select: true, SelectA: 3, FKConstraints: true}
	twoViews, snow := base, base
	twoViews.Views = 2
	snow.Snowflake = true
	for i, cfg := range []workload.StarConfig{base, twoViews, snow} {
		s, err := workload.NewStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("E13 workload %d", i), s.Q, s.Deps)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		add(fmt.Sprintf("random %d", i), randomQuery(r), randomDeps(r))
	}
	return labels, roots, deps
}

// TestSubqueryMatchesReference: on every removal set of every scenario
// root, the class-id construction builds exactly the reference's
// subquery, and normalizeTerm picks exactly the reference's output on
// each subquery's chased canon.
func TestSubqueryMatchesReference(t *testing.T) {
	labels, roots, deps := rewriteScenarios(t)
	if len(roots) != 614 {
		t.Fatalf("%d scenario roots, want 614", len(roots))
	}
	sets := 0
	for i, q := range roots {
		cc := rootClosure(q)
		ix := chase.NewDepIndex(deps[i])
		for mask := 0; mask < 1<<len(q.Bindings); mask++ {
			checkRewriteMatchesReference(t, labels[i], q, cc, removalSet(q, mask), ix)
			sets++
		}
	}
	t.Logf("%d removal sets over %d roots", sets, len(roots))
}
