// Package baseline implements the prior approach the paper positions
// itself against (§4, §6): answering queries using views for
// conjunctive relational queries, in the style of the bucket algorithm
// (Levy/Mendelzon/Sagiv/Srivastava). BucketRewrite collects, for each
// query subgoal, the views that can supply it, combines one view choice
// per subgoal, and keeps the combinations equivalent to the query. It
// is views-only: it cannot express index lookups, which is the
// limitation §4 discusses (plan P is discarded because Q is a subquery
// of P).
//
// The E10 experiment compares the chase & backchase plan space against
// BucketRewrite's on the §4 scenario.
package baseline

import (
	"fmt"

	"cnb/internal/backchase"
	"cnb/internal/chase"
	"cnb/internal/core"
)

// RelView is a named conjunctive view over relations (no dictionaries):
// V = select Out from Bindings where Conds.
type RelView struct {
	Name string
	Def  *core.Query
}

// BucketRewrite enumerates the rewritings of q that use only the given
// views (every binding ranges over a view name). It returns the distinct
// equivalent rewritings found, checked by chase-based equivalence under
// the view dependencies.
//
// The query and views must be relational conjunctive queries: bindings
// over plain names, no dictionary operations.
func BucketRewrite(q *core.Query, views []RelView, opts chase.Options) ([]*core.Query, error) {
	if err := checkRelational(q); err != nil {
		return nil, fmt.Errorf("baseline: query: %w", err)
	}
	for _, v := range views {
		if err := checkRelational(v.Def); err != nil {
			return nil, fmt.Errorf("baseline: view %s: %w", v.Name, err)
		}
	}

	deps := viewDeps(views)

	// Bucket phase: for each query binding, the views whose definition
	// contains a binding over the same relation.
	buckets := make([][]RelView, len(q.Bindings))
	for i, b := range q.Bindings {
		for _, v := range views {
			for _, vb := range v.Def.Bindings {
				if vb.Range.Equal(b.Range) {
					buckets[i] = append(buckets[i], v)
					break
				}
			}
		}
		if len(buckets[i]) == 0 {
			return nil, nil // some subgoal is not covered by any view
		}
	}

	// Combination phase: one view choice per subgoal; deduplicate view
	// multisets (a view used for several subgoals is scanned once per
	// distinct subgoal in candidate construction below, then minimized).
	var out []*core.Query
	seen := map[string]bool{}
	var choose func(i int, chosen []RelView) error
	choose = func(i int, chosen []RelView) error {
		if i == len(buckets) {
			cand := buildCandidate(q, chosen)
			if cand == nil {
				return nil
			}
			eq, err := backchase.Equivalent(cand, q, deps, opts)
			if err != nil {
				if _, budget := err.(*chase.ErrBudget); budget {
					return nil
				}
				return err
			}
			if !eq {
				return nil
			}
			// Minimize: merge redundant view scans.
			min, err := backchase.MinimizeOne(cand, deps, backchase.Options{Chase: opts})
			if err != nil {
				return err
			}
			sig := min.CanonicalSignature()
			if !seen[sig] {
				seen[sig] = true
				out = append(out, min)
			}
			return nil
		}
		for _, v := range buckets[i] {
			if err := choose(i+1, append(chosen, v)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := choose(0, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// buildCandidate constructs the rewriting that scans chosen[i] in place of
// query binding i: variables of the query are re-expressed through the
// view outputs when possible. The construction follows the classical
// bucket-algorithm candidate: join all chosen views and equate their
// output fields with the query's variables via the chase machinery — here
// we build it syntactically and let the equivalence check filter.
func buildCandidate(q *core.Query, chosen []RelView) *core.Query {
	// For each query binding i, scan the chosen view with a fresh
	// variable; the original binding variable is defined as that view
	// row when the view outputs the whole subgoal row, which requires the
	// view output to be a struct whose fields cover the query's use.
	//
	// General field-level reconstruction: replace every use of the query
	// variable x_i by (view row).F when the view's output has a field F
	// equal (in the view's own canonical database) to the corresponding
	// base-row field.
	projMaps := map[string]map[string]*core.Term{}
	cand := &core.Query{}
	for i, b := range q.Bindings {
		v := chosen[i]
		vVar := fmt.Sprintf("v%d", i)
		cand.Bindings = append(cand.Bindings, core.Binding{Var: vVar, Range: core.Name(v.Name)})
		// Map x_i.F -> vVar.G for each view output field G congruent to
		// (base binding).F, where the base binding is the view binding
		// over the same relation.
		cn := chase.NewCanon(v.Def)
		var base *core.Binding
		for j := range v.Def.Bindings {
			if v.Def.Bindings[j].Range.Equal(b.Range) {
				base = &v.Def.Bindings[j]
				break
			}
		}
		if base == nil {
			return nil
		}
		if v.Def.Out.Kind != core.KStruct {
			return nil
		}
		// Build a per-variable field substitution applied lazily below.
		fieldMap := map[string]*core.Term{}
		for _, f := range v.Def.Out.Fields {
			// Which base-row fields does this output field equal?
			for _, rowField := range rowFields(q, b.Var) {
				if cn.CC.Same(f.Term, core.Prj(core.V(base.Var), rowField)) {
					if _, done := fieldMap[rowField]; !done {
						fieldMap[rowField] = core.Prj(core.V(vVar), f.Name)
					}
				}
			}
		}
		projMaps[b.Var] = fieldMap
	}

	for _, c := range q.Conds {
		l := substProj(projMaps, c.L)
		r := substProj(projMaps, c.R)
		if l == nil || r == nil {
			return nil
		}
		cand.Conds = append(cand.Conds, core.Cond{L: l, R: r})
	}
	cand.Out = substProj(projMaps, q.Out)
	if cand.Out == nil {
		return nil
	}
	if err := cand.Validate(); err != nil {
		return nil
	}
	return cand
}

// rowFields lists the fields of the query that are projected from the
// given variable.
func rowFields(q *core.Query, v string) []string {
	fields := map[string]bool{}
	var walk func(t *core.Term)
	walk = func(t *core.Term) {
		if t == nil {
			return
		}
		switch t.Kind {
		case core.KProj:
			if t.Base.Kind == core.KVar && t.Base.Name == v {
				fields[t.Name] = true
			}
			walk(t.Base)
		case core.KDom:
			walk(t.Base)
		case core.KLookup:
			walk(t.Base)
			walk(t.Key)
		case core.KStruct:
			for _, f := range t.Fields {
				walk(f.Term)
			}
		}
	}
	for _, c := range q.Conds {
		walk(c.L)
		walk(c.R)
	}
	walk(q.Out)
	out := make([]string, 0, len(fields))
	for f := range fields {
		out = append(out, f)
	}
	return out
}

// substProj rewrites x.F through projMaps, the field map of each query
// variable x a view scan replaces; it returns nil when t uses such a
// variable other than through a mapped field.
func substProj(projMaps map[string]map[string]*core.Term, t *core.Term) *core.Term {
	switch t.Kind {
	case core.KVar:
		if _, tracked := projMaps[t.Name]; tracked {
			return nil // bare variable use cannot be re-expressed
		}
		return t
	case core.KConst, core.KName:
		return t
	case core.KProj:
		if t.Base.Kind == core.KVar {
			if m, tracked := projMaps[t.Base.Name]; tracked {
				if r, ok := m[t.Name]; ok {
					return r
				}
				return nil
			}
		}
		b := substProj(projMaps, t.Base)
		if b == nil {
			return nil
		}
		return core.Prj(b, t.Name)
	case core.KDom:
		b := substProj(projMaps, t.Base)
		if b == nil {
			return nil
		}
		return core.Dom(b)
	case core.KLookup:
		b := substProj(projMaps, t.Base)
		k := substProj(projMaps, t.Key)
		if b == nil || k == nil {
			return nil
		}
		return &core.Term{Kind: core.KLookup, Base: b, Key: k, NonFailing: t.NonFailing}
	case core.KStruct:
		fs := make([]core.StructField, len(t.Fields))
		for i, f := range t.Fields {
			ft := substProj(projMaps, f.Term)
			if ft == nil {
				return nil
			}
			fs[i] = core.StructField{Name: f.Name, Term: ft}
		}
		return core.Struct(fs...)
	}
	return nil
}

// viewDeps compiles the forward and inverse constraints of each view (the
// same ΦV/ΦV' the chase uses).
func viewDeps(views []RelView) []*core.Dependency {
	var deps []*core.Dependency
	for _, v := range views {
		def := v.Def.RenameVars(func(s string) string { return "vw_" + s })
		vVar := "vw_self"
		deps = append(deps,
			&core.Dependency{
				Name:            "Phi" + v.Name,
				Premise:         def.Bindings,
				PremiseConds:    def.Conds,
				Conclusion:      []core.Binding{{Var: vVar, Range: core.Name(v.Name)}},
				ConclusionConds: []core.Cond{{L: core.V(vVar), R: def.Out}},
			},
			&core.Dependency{
				Name:            "Phi" + v.Name + "Inv",
				Premise:         []core.Binding{{Var: vVar, Range: core.Name(v.Name)}},
				Conclusion:      def.Bindings,
				ConclusionConds: append(append([]core.Cond(nil), def.Conds...), core.Cond{L: core.V(vVar), R: def.Out}),
			})
	}
	return deps
}

func checkRelational(q *core.Query) error {
	for _, b := range q.Bindings {
		if b.Range.Kind != core.KName {
			return fmt.Errorf("binding %s ranges over %s: only relation scans allowed", b.Var, b.Range)
		}
	}
	check := func(t *core.Term) error {
		for _, s := range t.Subterms() {
			if s.Kind == core.KLookup || s.Kind == core.KDom {
				return fmt.Errorf("term %s uses dictionary operations", t)
			}
		}
		return nil
	}
	for _, c := range q.Conds {
		if err := check(c.L); err != nil {
			return err
		}
		if err := check(c.R); err != nil {
			return err
		}
	}
	return check(q.Out)
}
