package chase

import (
	"cnb/internal/congruence"
	"cnb/internal/core"
)

// Compiled patterns. A homomorphism search tests transported source terms
// (a premise range under the partial homomorphism, a condition side, a
// query output) against the canonical database thousands of times per
// backchase. Building each transported term with Subst, rendering it with
// HashKey and interning it only to ask for its class is most of that
// work, so sources are compiled once into pattern programs over numbered
// variable slots: a term is a tree of pattern nodes whose variable leaves
// name slots, and evaluating it against a closure under a slot assignment
// yields a class id by lookups keyed by (operator, child class ids) —
// E-matching over the congruence closure (de Moura and Bjørner,
// "Efficient E-matching for SMT Solvers", CADE 2007). A term is built
// only when a step fires, or when a premise search meets a signature with
// no node yet and must intern it (see incremental.go, item 2).

// pnode is one node of a compiled term.
type pnode struct {
	term *core.Term // the source subterm, for materializing
	op   int        // a compound node's operator, an index into program.ops
	// slot is the slot of a variable leaf bound by the source, else -1.
	slot int
	args []int // child node indexes
	// hasSlot reports whether a slot variable occurs in the subterm; one
	// that has none materializes as term itself.
	hasSlot bool
}

// program is the node table of one compiled source and its slot naming.
type program struct {
	nodes []pnode
	kids  []int           // the slab every node's args are cut from
	ops   []congruence.Op // the compound nodes' operators, which leaves lack
	vars  []string        // slot -> variable name
}

// atom is a compiled source binding: its variable's slot and its range.
type atom struct {
	slot int
	rng  int
}

// pcond is a compiled source condition. slots lists the slots its sides
// mention; free marks a side mentioning a variable no slot binds, which
// makes the condition checkable only once every binding is assigned.
type pcond struct {
	l, r  int
	slots []int
	free  bool
}

// compiler builds one program.
type compiler struct {
	p      *program
	slotOf map[string]int
}

// newCompiler returns a compiler with room for the counted nodes.
func newCompiler(n sizes) *compiler {
	return &compiler{
		p: &program{
			nodes: make([]pnode, 0, n.nodes),
			kids:  make([]int, 0, n.nodes),
			ops:   make([]congruence.Op, 0, n.ops),
		},
		slotOf: map[string]int{},
	}
}

// sizes counts the nodes a compilation takes, and the compound ones
// among them, which carry an operator.
type sizes struct{ nodes, ops int }

// add counts the bindings' ranges and the conditions.
func (n *sizes) add(bs []core.Binding, cs []core.Cond) {
	for _, b := range bs {
		n.term(b.Range)
	}
	for _, c := range cs {
		n.term(c.L)
		n.term(c.R)
	}
}

// term counts t's nodes.
func (n *sizes) term(t *core.Term) {
	n.nodes++
	switch t.Kind {
	case core.KVar, core.KConst, core.KName:
		return
	case core.KProj, core.KDom:
		n.term(t.Base)
	case core.KLookup:
		n.term(t.Base)
		n.term(t.Key)
	case core.KStruct:
		for _, f := range t.Fields {
			n.term(f.Term)
		}
	}
	n.ops++
}

// bind returns the slot of v, numbering it if new.
func (c *compiler) bind(v string) int {
	if s, ok := c.slotOf[v]; ok {
		return s
	}
	s := len(c.p.vars)
	c.slotOf[v] = s
	c.p.vars = append(c.p.vars, v)
	return s
}

// term compiles t; variables without a slot compile as plain leaves.
func (c *compiler) term(t *core.Term) int {
	n := pnode{term: t, slot: -1}
	switch t.Kind {
	case core.KVar:
		if s, ok := c.slotOf[t.Name]; ok {
			n.slot, n.hasSlot = s, true
		}
	case core.KConst, core.KName:
	default:
		n.op = len(c.p.ops)
		c.p.ops = append(c.p.ops, congruence.OpOf(t))
		var args [2]int
		var kids []int
		switch t.Kind {
		case core.KProj, core.KDom:
			kids = append(args[:0], c.term(t.Base))
		case core.KLookup:
			b := c.term(t.Base)
			kids = append(args[:0], b, c.term(t.Key))
		case core.KStruct:
			kids = make([]int, len(t.Fields))
			for i, f := range t.Fields {
				kids[i] = c.term(f.Term)
			}
		}
		start := len(c.p.kids)
		c.p.kids = append(c.p.kids, kids...)
		n.args = c.p.kids[start:len(c.p.kids):len(c.p.kids)]
		for _, a := range n.args {
			n.hasSlot = n.hasSlot || c.p.nodes[a].hasSlot
		}
	}
	c.p.nodes = append(c.p.nodes, n)
	return len(c.p.nodes) - 1
}

// atoms binds the bindings' variables in order (a repeated variable
// keeps its slot), then the extra variables, and compiles the ranges.
// Every variable is bound before any range compiles, as Subst would
// replace a range's mention of a later binding's variable once that
// binding is assigned.
func (c *compiler) atoms(bs []core.Binding, extra []string) []atom {
	out := make([]atom, len(bs))
	for i, b := range bs {
		out[i].slot = c.bind(b.Var)
	}
	for _, v := range extra {
		c.bind(v)
	}
	for i, b := range bs {
		out[i].rng = c.term(b.Range)
	}
	return out
}

func (c *compiler) conds(cs []core.Cond) []pcond {
	out := make([]pcond, len(cs))
	for i, cd := range cs {
		pc := &out[i]
		pc.l, pc.r = c.term(cd.L), c.term(cd.R)
		c.condVars(pc, pc.l)
		c.condVars(pc, pc.r)
	}
	return out
}

// condVars records the variables of compiled node i in pc.
func (c *compiler) condVars(pc *pcond, i int) {
	n := &c.p.nodes[i]
	if n.slot >= 0 {
		for _, s := range pc.slots {
			if s == n.slot {
				return
			}
		}
		pc.slots = append(pc.slots, n.slot)
		return
	}
	if n.term.Kind == core.KVar {
		pc.free = true
	}
	for _, a := range n.args {
		c.condVars(pc, a)
	}
}

// depProg is a dependency compiled over one slot numbering: the premise
// variables first, then the conclusion's.
type depProg struct {
	d       *core.Dependency
	prog    *program
	premise []atom
	pconds  []pcond
	concl   []atom
	cconds  []pcond
	// bits holds, per node of the premise part, the features of its
	// source subterm within the index's universe (nil without one). A
	// premise lookup that resolves a compound term to an existing class
	// without interning it adds them to that class, so the class carries
	// the features interning would have given it.
	bits []congruence.FeatureSet
	// premiseAt and conclAt schedule the premise conditions (no slot
	// preset) and the conclusion conditions (the premise's slots preset).
	premiseAt, conclAt []int
}

func compileDep(d *core.Dependency, u *congruence.Features) *depProg {
	var n sizes
	n.add(d.Premise, d.PremiseConds)
	n.add(d.Conclusion, d.ConclusionConds)
	c := newCompiler(n)
	dp := &depProg{d: d, prog: c.p}
	dp.premise = c.atoms(d.Premise, nil)
	dp.pconds = c.conds(d.PremiseConds)
	if u != nil {
		dp.bits = make([]congruence.FeatureSet, len(c.p.nodes))
		for i, n := range c.p.nodes {
			if len(n.args) > 0 {
				dp.bits[i] = u.TermBits(n.term)
			}
		}
	}
	np := len(c.p.vars)
	dp.concl = c.atoms(d.Conclusion, nil)
	dp.cconds = c.conds(d.ConclusionConds)
	dp.premiseAt = schedule(dp.premise, dp.pconds, len(c.p.vars), nil)
	preset := make([]bool, len(c.p.vars))
	for i := 0; i < np; i++ {
		preset[i] = true
	}
	dp.conclAt = schedule(dp.concl, dp.cconds, len(c.p.vars), preset)
	return dp
}

// CompiledQuery is a query compiled for containment-mapping search: its
// bindings, conditions and output as pattern programs over variable
// slots. Compile a query once and test it against many canonical
// databases (the backchase compiles its goal once per run). Immutable and
// safe for concurrent use.
type CompiledQuery struct {
	prog  *program
	atoms []atom
	conds []pcond
	out   int
	// checkAt schedules the conditions of a search without init.
	checkAt []int
}

// CompileQuery compiles q.
func CompileQuery(q *core.Query) *CompiledQuery {
	return compileQuery(q.Bindings, q.Conds, q.Out, nil)
}

// compileQuery compiles a source; extra names the variables an init
// homomorphism assigns beyond the bindings', and out may be nil.
func compileQuery(bs []core.Binding, cs []core.Cond, out *core.Term, extra []string) *CompiledQuery {
	var n sizes
	n.add(bs, cs)
	if out != nil {
		n.term(out)
	}
	c := newCompiler(n)
	cq := &CompiledQuery{prog: c.p}
	cq.atoms = c.atoms(bs, extra)
	cq.conds = c.conds(cs)
	cq.out = -1
	if out != nil {
		cq.out = c.term(out)
	}
	cq.checkAt = schedule(cq.atoms, cq.conds, len(c.p.vars), nil)
	return cq
}
