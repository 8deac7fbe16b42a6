package core

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Dependency is an embedded path-conjunctive dependency (EPCD, §5):
//
//	∀(x1 ∈ P1, ..., xn ∈ Pn)  B1(x̄)  →  ∃(y1 ∈ P1', ..., yk ∈ Pk')  B2(x̄, ȳ)
//
// Each premise range Pi may refer to x1..x_{i-1}; each conclusion range
// Pj' may refer to all premise variables and y1..y_{j-1} (an EPCD is not a
// first-order formula). An EPCD with no existential bindings is an EGD
// (equality-generating dependency); functional dependencies such as the
// paper's KEY constraints are EGDs.
//
// Like a Term, a dependency must not be modified once built and must not
// be copied by value: it memoizes its String.
type Dependency struct {
	// Name identifies the dependency in traces and error messages
	// (e.g. "RIC1", "ΦSI", "ΦV'").
	Name string

	Premise      []Binding
	PremiseConds []Cond

	Conclusion      []Binding
	ConclusionConds []Cond

	// str memoizes String. It is filled on first use, so composite
	// literals need not set it; concurrent first uses render the same
	// string and either store wins.
	str atomic.Pointer[string]
}

// IsEGD reports whether the dependency has no existential bindings, i.e.
// it only asserts equalities among premise paths.
func (d *Dependency) IsEGD() bool { return len(d.Conclusion) == 0 }

// IsFull reports whether the dependency is full in the sense of the
// bounded-chase theorem: every conclusion binding variable is forced equal
// to a premise path by the conclusion conditions. Chasing with full
// dependencies terminates with a polynomial-size result.
func (d *Dependency) IsFull() bool {
	if d.IsEGD() {
		return true
	}
	premVars := make(map[string]bool)
	for _, b := range d.Premise {
		premVars[b.Var] = true
	}
	// A conclusion variable y is "determined" if some conclusion condition
	// equates y with a path over premise variables (or previously
	// determined conclusion variables).
	determined := make(map[string]bool)
	changed := true
	for changed {
		changed = false
		for _, b := range d.Conclusion {
			if determined[b.Var] {
				continue
			}
			for _, c := range d.ConclusionConds {
				var other *Term
				if c.L.Kind == KVar && c.L.Name == b.Var {
					other = c.R
				} else if c.R.Kind == KVar && c.R.Name == b.Var {
					other = c.L
				} else {
					continue
				}
				ok := true
				for v := range other.Vars() {
					if !premVars[v] && !determined[v] {
						ok = false
						break
					}
				}
				if ok {
					determined[b.Var] = true
					changed = true
					break
				}
			}
		}
	}
	for _, b := range d.Conclusion {
		if !determined[b.Var] {
			return false
		}
	}
	return true
}

// String renders the dependency in the assertion syntax of the paper, e.g.
//
//	∀(p ∈ Proj, i ∈ dom(I)) i = p.PName and I[i] = p → ...
//
// The string is rendered on the first call and kept on the dependency:
// later calls cost one atomic load.
func (d *Dependency) String() string {
	if s := d.str.Load(); s != nil {
		return *s
	}
	s := d.render()
	d.str.Store(&s)
	return s
}

// render builds the String of d.
func (d *Dependency) render() string {
	var b strings.Builder
	if d.Name != "" {
		b.WriteString(d.Name)
		b.WriteString(": ")
	}
	b.WriteString("forall (")
	for i, bd := range d.Premise {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(bd.Var + " in " + bd.Range.String())
	}
	b.WriteString(")")
	if len(d.PremiseConds) > 0 {
		b.WriteString(" ")
		for i, c := range d.PremiseConds {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(c.String())
		}
	}
	b.WriteString(" -> ")
	if len(d.Conclusion) > 0 {
		b.WriteString("exists (")
		for i, bd := range d.Conclusion {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(bd.Var + " in " + bd.Range.String())
		}
		b.WriteString(")")
	}
	if len(d.ConclusionConds) > 0 {
		b.WriteString(" ")
		for i, c := range d.ConclusionConds {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(c.String())
		}
	}
	return b.String()
}

// Validate checks well-formedness: premise variables distinct and ranges
// properly scoped; conclusion likewise (conclusion may use premise vars);
// conclusion conditions may use all variables.
func (d *Dependency) Validate() error {
	scope := make(map[string]bool)
	for i, b := range d.Premise {
		if b.Var == "" {
			return fmt.Errorf("core: dependency %s premise binding %d has empty var", d.Name, i)
		}
		if scope[b.Var] {
			return fmt.Errorf("core: dependency %s duplicate premise var %q", d.Name, b.Var)
		}
		for v := range b.Range.Vars() {
			if !scope[v] {
				return fmt.Errorf("core: dependency %s premise range of %q mentions unbound %q", d.Name, b.Var, v)
			}
		}
		scope[b.Var] = true
	}
	for _, c := range d.PremiseConds {
		for v := range c.L.Vars() {
			if !scope[v] {
				return fmt.Errorf("core: dependency %s premise cond %s mentions unbound %q", d.Name, c, v)
			}
		}
		for v := range c.R.Vars() {
			if !scope[v] {
				return fmt.Errorf("core: dependency %s premise cond %s mentions unbound %q", d.Name, c, v)
			}
		}
	}
	for i, b := range d.Conclusion {
		if b.Var == "" {
			return fmt.Errorf("core: dependency %s conclusion binding %d has empty var", d.Name, i)
		}
		if scope[b.Var] {
			return fmt.Errorf("core: dependency %s duplicate var %q", d.Name, b.Var)
		}
		for v := range b.Range.Vars() {
			if !scope[v] {
				return fmt.Errorf("core: dependency %s conclusion range of %q mentions unbound %q", d.Name, b.Var, v)
			}
		}
		scope[b.Var] = true
	}
	for _, c := range d.ConclusionConds {
		for v := range c.L.Vars() {
			if !scope[v] {
				return fmt.Errorf("core: dependency %s conclusion cond %s mentions unbound %q", d.Name, c, v)
			}
		}
		for v := range c.R.Vars() {
			if !scope[v] {
				return fmt.Errorf("core: dependency %s conclusion cond %s mentions unbound %q", d.Name, c, v)
			}
		}
	}
	return nil
}

// PremiseQuery views the premise of the dependency as a boolean-valued
// query (select true from premise where premiseConds). Chasing this query
// and checking that the conclusion holds is how constraint implication is
// decided (§3, "constraints are viewed as boolean-valued queries").
func (d *Dependency) PremiseQuery() *Query {
	return &Query{
		Out:      C(true),
		Bindings: append([]Binding(nil), d.Premise...),
		Conds:    append([]Cond(nil), d.PremiseConds...),
	}
}

// RenameVars returns a copy of the dependency with all bound variables
// renamed by the function.
func (d *Dependency) RenameVars(rename func(string) string) *Dependency {
	sub := make(map[string]*Term)
	for _, b := range d.Premise {
		sub[b.Var] = V(rename(b.Var))
	}
	for _, b := range d.Conclusion {
		sub[b.Var] = V(rename(b.Var))
	}
	nd := &Dependency{Name: d.Name}
	for _, b := range d.Premise {
		nd.Premise = append(nd.Premise, Binding{Var: sub[b.Var].Name, Range: b.Range.Subst(sub)})
	}
	for _, c := range d.PremiseConds {
		nd.PremiseConds = append(nd.PremiseConds, Cond{L: c.L.Subst(sub), R: c.R.Subst(sub)})
	}
	for _, b := range d.Conclusion {
		nd.Conclusion = append(nd.Conclusion, Binding{Var: sub[b.Var].Name, Range: b.Range.Subst(sub)})
	}
	for _, c := range d.ConclusionConds {
		nd.ConclusionConds = append(nd.ConclusionConds, Cond{L: c.L.Subst(sub), R: c.R.Subst(sub)})
	}
	return nd
}

// Names returns all schema names mentioned by the dependency.
func (d *Dependency) Names() map[string]bool {
	ns := make(map[string]bool)
	collect := func(t *Term) {
		for n := range t.Names() {
			ns[n] = true
		}
	}
	for _, b := range d.Premise {
		collect(b.Range)
	}
	for _, c := range d.PremiseConds {
		collect(c.L)
		collect(c.R)
	}
	for _, b := range d.Conclusion {
		collect(b.Range)
	}
	for _, c := range d.ConclusionConds {
		collect(c.L)
		collect(c.R)
	}
	return ns
}
