// Package eval is the reference evaluator for path-conjunctive queries
// over in-memory instances: straightforward nested-loop semantics with
// set (distinct) output, exactly following the denotational reading of the
// language in Deutsch, Popa, Tannen (VLDB 1999). It also checks whether an
// instance satisfies an EPCD, which the workload generators and the
// soundness tests use to certify that generated data respects the
// constraint sets.
//
// The engine package provides the optimized executor; eval is the simple,
// obviously-correct baseline both are tested against.
package eval

import (
	"fmt"

	"cnb/internal/core"
	"cnb/internal/instance"
)

// Env is an evaluation environment binding query variables to values.
type Env map[string]instance.Value

// Clone returns a copy of the environment with room for one more binding.
func (e Env) Clone() Env {
	n := make(Env, len(e)+1)
	for k, v := range e {
		n[k] = v
	}
	return n
}

// ErrLookupFailed is returned when a failing lookup M[k] is applied to a
// key outside dom(M).
type ErrLookupFailed struct {
	Term *core.Term
	Key  instance.Value
}

// Error implements error, naming the lookup term and the missing key.
func (e *ErrLookupFailed) Error() string {
	return fmt.Sprintf("eval: lookup %s failed: key %s not in domain", e.Term, e.Key)
}

// Term evaluates a path term under an environment and instance.
func Term(t *core.Term, env Env, in *instance.Instance) (instance.Value, error) {
	switch t.Kind {
	case core.KVar:
		v, ok := env[t.Name]
		if !ok {
			return nil, fmt.Errorf("eval: unbound variable %q", t.Name)
		}
		return v, nil
	case core.KConst:
		switch c := t.Val.(type) {
		case int64:
			return instance.Int(c), nil
		case float64:
			return instance.Float(c), nil
		case string:
			return instance.Str(c), nil
		case bool:
			return instance.Bool(c), nil
		}
		return nil, fmt.Errorf("eval: bad constant %v", t.Val)
	case core.KName:
		v, ok := in.Lookup(t.Name)
		if !ok {
			return nil, fmt.Errorf("eval: schema name %q unbound in instance", t.Name)
		}
		return v, nil
	case core.KProj:
		base, err := Term(t.Base, env, in)
		if err != nil {
			return nil, err
		}
		st, ok := base.(*instance.Struct)
		if !ok {
			return nil, fmt.Errorf("eval: projection %s on non-record %s", t, base)
		}
		f, ok := st.Field(t.Name)
		if !ok {
			return nil, fmt.Errorf("eval: record %s has no field %q", st, t.Name)
		}
		return f, nil
	case core.KDom:
		base, err := Term(t.Base, env, in)
		if err != nil {
			return nil, err
		}
		d, ok := base.(*instance.Dict)
		if !ok {
			return nil, fmt.Errorf("eval: dom of non-dictionary %s", base)
		}
		return d.Domain(), nil
	case core.KLookup:
		base, err := Term(t.Base, env, in)
		if err != nil {
			return nil, err
		}
		d, ok := base.(*instance.Dict)
		if !ok {
			return nil, fmt.Errorf("eval: lookup into non-dictionary %s", base)
		}
		key, err := Term(t.Key, env, in)
		if err != nil {
			return nil, err
		}
		v, ok := d.Get(key)
		if !ok {
			if t.NonFailing {
				// M{k}: empty set instead of failure (footnote 4).
				return instance.NewSet(), nil
			}
			return nil, &ErrLookupFailed{Term: t, Key: key}
		}
		return v, nil
	case core.KStruct:
		names := make([]string, len(t.Fields))
		vals := make([]instance.Value, len(t.Fields))
		for i, f := range t.Fields {
			v, err := Term(f.Term, env, in)
			if err != nil {
				return nil, err
			}
			names[i] = f.Name
			vals[i] = v
		}
		return instance.NewStruct(names, vals), nil
	}
	return nil, fmt.Errorf("eval: cannot evaluate term %s", t)
}

// Query evaluates a PC query over the instance, returning the result set
// (set semantics: duplicates are collapsed).
func Query(q *core.Query, in *instance.Instance) (*instance.Set, error) {
	out := instance.NewSet()
	var rec func(i int, env Env) error
	rec = func(i int, env Env) error {
		if i == len(q.Bindings) {
			for _, c := range q.Conds {
				l, err := Term(c.L, env, in)
				if err != nil {
					return err
				}
				r, err := Term(c.R, env, in)
				if err != nil {
					return err
				}
				if !instance.Equal(l, r) {
					return nil
				}
			}
			v, err := Term(q.Out, env, in)
			if err != nil {
				return err
			}
			out.Add(v)
			return nil
		}
		b := q.Bindings[i]
		rng, err := Term(b.Range, env, in)
		if err != nil {
			return err
		}
		set, ok := rng.(*instance.Set)
		if !ok {
			return fmt.Errorf("eval: range %s of %q is not a set: %s", b.Range, b.Var, rng)
		}
		for _, elem := range set.Elems() {
			env[b.Var] = elem
			if err := rec(i+1, env); err != nil {
				return err
			}
		}
		delete(env, b.Var)
		return nil
	}
	if err := rec(0, Env{}); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryEager is Query with eager condition filtering: conditions are
// checked as soon as all their variables are bound, pruning the nested
// loops early. Semantically identical to Query, it is the data-scale
// reference the streaming engine's results are checked against (E19,
// E20 and the engine, service, greedy and optimizer tests), where
// Query's filtering after the last binding would enumerate whole cross
// products.
func QueryEager(q *core.Query, in *instance.Instance) (*instance.Set, error) {
	out := instance.NewSet()
	// For each condition, the binding index after which it can be checked.
	readyAt := make([]int, len(q.Conds))
	pos := map[string]int{}
	for i, b := range q.Bindings {
		pos[b.Var] = i
	}
	for ci, c := range q.Conds {
		last := -1
		for v := range c.L.Vars() {
			if p, ok := pos[v]; ok && p > last {
				last = p
			}
		}
		for v := range c.R.Vars() {
			if p, ok := pos[v]; ok && p > last {
				last = p
			}
		}
		readyAt[ci] = last
	}
	check := func(level int, env Env) (bool, error) {
		for ci, c := range q.Conds {
			if readyAt[ci] != level {
				continue
			}
			l, err := Term(c.L, env, in)
			if err != nil {
				return false, err
			}
			r, err := Term(c.R, env, in)
			if err != nil {
				return false, err
			}
			if !instance.Equal(l, r) {
				return false, nil
			}
		}
		return true, nil
	}
	var rec func(i int, env Env) error
	rec = func(i int, env Env) error {
		if i == len(q.Bindings) {
			v, err := Term(q.Out, env, in)
			if err != nil {
				return err
			}
			out.Add(v)
			return nil
		}
		b := q.Bindings[i]
		rng, err := Term(b.Range, env, in)
		if err != nil {
			return err
		}
		set, ok := rng.(*instance.Set)
		if !ok {
			return fmt.Errorf("eval: range %s of %q is not a set: %s", b.Range, b.Var, rng)
		}
		for _, elem := range set.Elems() {
			env[b.Var] = elem
			ok, err := check(i, env)
			if err != nil {
				return err
			}
			if ok {
				if err := rec(i+1, env); err != nil {
					return err
				}
			}
		}
		delete(env, b.Var)
		return nil
	}
	// Conditions with no variables (constant comparisons) check at -1.
	ok, err := check(-1, Env{})
	if err != nil {
		return nil, err
	}
	if !ok {
		return out, nil
	}
	if err := rec(0, Env{}); err != nil {
		return nil, err
	}
	return out, nil
}

// Satisfies reports whether the instance satisfies the dependency: for
// every premise assignment with the premise conditions true, some
// conclusion assignment makes the conclusion conditions true.
func Satisfies(d *core.Dependency, in *instance.Instance) (bool, error) {
	holds := true
	var premise func(i int, env Env) error
	var conclusion func(i int, env Env) (bool, error)

	checkConds := func(conds []core.Cond, env Env) (bool, error) {
		for _, c := range conds {
			l, err := Term(c.L, env, in)
			if err != nil {
				return false, err
			}
			r, err := Term(c.R, env, in)
			if err != nil {
				return false, err
			}
			if !instance.Equal(l, r) {
				return false, nil
			}
		}
		return true, nil
	}

	conclusion = func(i int, env Env) (bool, error) {
		if i == len(d.Conclusion) {
			return checkConds(d.ConclusionConds, env)
		}
		b := d.Conclusion[i]
		rng, err := Term(b.Range, env, in)
		if err != nil {
			return false, err
		}
		set, ok := rng.(*instance.Set)
		if !ok {
			return false, fmt.Errorf("eval: dependency range %s is not a set", b.Range)
		}
		for _, elem := range set.Elems() {
			env[b.Var] = elem
			found, err := conclusion(i+1, env)
			if err != nil {
				return false, err
			}
			if found {
				delete(env, b.Var)
				return true, nil
			}
		}
		delete(env, b.Var)
		return false, nil
	}

	premise = func(i int, env Env) error {
		if !holds {
			return nil
		}
		if i == len(d.Premise) {
			ok, err := checkConds(d.PremiseConds, env)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			found, err := conclusion(0, env.Clone())
			if err != nil {
				return err
			}
			if !found {
				holds = false
			}
			return nil
		}
		b := d.Premise[i]
		rng, err := Term(b.Range, env, in)
		if err != nil {
			return err
		}
		set, ok := rng.(*instance.Set)
		if !ok {
			return fmt.Errorf("eval: dependency range %s is not a set", b.Range)
		}
		for _, elem := range set.Elems() {
			env[b.Var] = elem
			if err := premise(i+1, env); err != nil {
				return err
			}
			if !holds {
				break
			}
		}
		delete(env, b.Var)
		return nil
	}

	if err := premise(0, Env{}); err != nil {
		return false, err
	}
	return holds, nil
}

// SatisfiesAll checks a whole dependency set, returning the first violated
// dependency's name (empty when all hold). It is a test oracle: no product
// path calls it; the test suites use it to check that generated instances
// satisfy the dependencies the optimizer assumes.
func SatisfiesAll(deps []*core.Dependency, in *instance.Instance) (string, error) {
	for _, d := range deps {
		ok, err := Satisfies(d, in)
		if err != nil {
			return d.Name, err
		}
		if !ok {
			return d.Name, nil
		}
	}
	return "", nil
}
