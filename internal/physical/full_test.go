package physical

import (
	"testing"

	"cnb/internal/core"
)

// isFull reports whether d is full in the sense of the bounded-chase
// theorem: every conclusion binding variable is forced equal to a
// premise path by the conclusion conditions. Chasing with full
// dependencies terminates with a polynomial-size result, which is why
// the constraints this package emits for primary indexes and views must
// be full.
func isFull(d *core.Dependency) bool {
	premVars := make(map[string]bool)
	for _, b := range d.Premise {
		premVars[b.Var] = true
	}
	// A conclusion variable is determined once some conclusion condition
	// equates it with a path over premise variables or previously
	// determined conclusion variables.
	determined := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, b := range d.Conclusion {
			if determined[b.Var] {
				continue
			}
			for _, c := range d.ConclusionConds {
				var other *core.Term
				if c.L.Kind == core.KVar && c.L.Name == b.Var {
					other = c.R
				} else if c.R.Kind == core.KVar && c.R.Name == b.Var {
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

func TestDependencyEGDAndFull(t *testing.T) {
	// KEY1: forall (d in depts, d' in depts) d.DName = d'.DName -> d = d'
	key := &core.Dependency{
		Name: "KEY1",
		Premise: []core.Binding{
			{Var: "d", Range: core.Name("depts")},
			{Var: "d2", Range: core.Name("depts")},
		},
		PremiseConds:    []core.Cond{{L: core.Prj(core.V("d"), "DName"), R: core.Prj(core.V("d2"), "DName")}},
		ConclusionConds: []core.Cond{{L: core.V("d"), R: core.V("d2")}},
	}
	if !key.IsEGD() || !isFull(key) {
		t.Error("KEY must be an EGD and full")
	}

	// ΦV for a view V = select A:r.A from R r: forall (r in R) exists
	// (v in V) v = struct(A: r.A) — full because v is determined.
	phiV := &core.Dependency{
		Name:            "PhiV",
		Premise:         []core.Binding{{Var: "r", Range: core.Name("R")}},
		Conclusion:      []core.Binding{{Var: "v", Range: core.Name("V")}},
		ConclusionConds: []core.Cond{{L: core.V("v"), R: core.Struct(core.SF("A", core.Prj(core.V("r"), "A")))}},
	}
	if !isFull(phiV) {
		t.Error("view tgd with determined existential must be full")
	}

	// RIC1: forall (d in depts, s in d.DProjs) exists (p in Proj)
	// s = p.PName is not full: p is not determined by equalities.
	ric1 := &core.Dependency{
		Name: "RIC1",
		Premise: []core.Binding{
			{Var: "d", Range: core.Name("depts")},
			{Var: "s", Range: core.Prj(core.V("d"), "DProjs")},
		},
		Conclusion:      []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		ConclusionConds: []core.Cond{{L: core.V("s"), R: core.Prj(core.V("p"), "PName")}},
	}
	if isFull(ric1) {
		t.Error("RIC1 is not full: p is not determined by equalities")
	}
}
