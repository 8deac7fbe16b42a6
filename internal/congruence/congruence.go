// Package congruence implements congruence closure over path terms.
//
// The chase and backchase reason about a query through its canonical
// database: the terms occurring in the query, grouped into congruence
// classes according to the equalities of the where clause (§3 of Deutsch,
// Popa, Tannen, VLDB 1999). This package maintains those classes under
// three axiom schemes:
//
//  1. Congruence: if the children of two nodes with the same operator are
//     pairwise equal, the nodes are equal (covers P.A, dom(P), P[k] —
//     so k = k' implies M[k] = M[k'], the functional reading of
//     dictionaries).
//  2. Constructor injectivity: struct(A: s, B: t) = struct(A: s', B: t')
//     implies s = s' and t = t'.
//  3. Beta: if x = struct(..., A: t, ...) then x.A = t.
//
// The closure is monotone: terms can be added and equalities asserted, but
// never retracted. Build a fresh closure per query.
//
// # Concurrency
//
// A mutable Closure is NOT safe for concurrent use, not even for
// apparently read-only queries: Same, Rep, Contains-then-query sequences
// and ClassMembers intern their argument terms, and find performs path
// compression. Give each goroutine that extends one closure its own
// Clone; Clone only reads, so concurrent Clones of a closure no
// goroutine mutates are safe.
//
// Lookups never intern: Lookup, LookupLeaf and a Probe resolve a term,
// given as an operator over child class ids (virtual ids for terms the
// closure lacks), to the class it would join, without building or
// rendering it. Interning happens only through Add, Merge, Same, Rep and
// ClassMembers, which the chase calls when a step fires, when a premise
// search meets a signature with no node yet, and for the one term no
// lookup can answer (see Ambiguous).
//
// A frozen Closure (see Freeze) is safe for any number of concurrent
// readers: every query on it only reads, and any operation that would
// intern a new term or merge two classes panics instead. The backchase
// freezes one closure of the root query and reads it for every
// candidate: read-only containment tests resolve terms through a Probe
// each, and every subquery is built by a Rewriter of its own — one pass
// over class and node ids with variable bitsets (the string-keyed
// rewrite it replaced is kept as a test reference in package backchase).
package congruence

import (
	"maps"
	"sort"

	"cnb/internal/core"
)

type node struct {
	term *core.Term
	// op is the operator tag of an interior node (see Op); empty for a
	// leaf, which takes no part in signatures: two leaves are congruent
	// only when they are the same term, hence the same node.
	op string
	// args are node ids of children, in order. A constructor's field
	// names are its term's, parallel to args.
	args []int
}

// Closure is a congruence closure over a growing set of terms.
type Closure struct {
	nodes  []node
	byKey  map[string]int // term HashKey -> node id
	parent []int
	rank   []int

	sigTable  map[sigKey]int // current signature -> node id
	parentsOf map[int][]int  // class rep -> ids of nodes with a child in the class
	structsIn map[int][]int  // class rep -> struct-constructor nodes in the class
	projsOn   map[int][]int  // class rep -> projection nodes whose base is in the class

	pending [][2]int

	// version counts unions performed. Class representatives are stable
	// between equal versions (path compression never changes them), which
	// is what lets the chase's rep-keyed target index detect staleness.
	version uint64

	// Feature tracking for the incremental chase (nil = disabled, the
	// default); see features.go.
	feats *featureState

	// frozen is set by Freeze; nil while the closure is mutable.
	frozen *frozenClasses
}

// frozenClasses is what Freeze computes once: the classes in Classes
// order, each node's index into them and each class's member node ids,
// the constructor nodes, and each node's variables as a bitset.
type frozenClasses struct {
	classes [][]*core.Term
	classOf []int   // node id -> index into classes
	members [][]int // class index -> member node ids, in class order
	structs []int   // struct-constructor node ids, ascending
	varBit  map[string]int
	words   int      // uint64 words per VarSet
	vars    []uint64 // node id -> its variables, words per node
}

// New returns an empty closure.
func New() *Closure { return NewSized(0) }

// NewSized returns an empty closure with room for about n terms.
func NewSized(n int) *Closure {
	return &Closure{
		nodes:     make([]node, 0, n),
		parent:    make([]int, 0, n),
		rank:      make([]int, 0, n),
		byKey:     make(map[string]int, n),
		sigTable:  make(map[sigKey]int, n/2),
		parentsOf: make(map[int][]int),
		structsIn: make(map[int][]int),
		projsOn:   make(map[int][]int),
	}
}

// Clone returns an independent deep copy of the closure: subsequent
// mutations (interning, merges, path compression) of either copy never
// affect the other. Terms themselves are immutable and shared, as are
// the per-node argument lists (never mutated after interning). The copy
// of a frozen closure is mutable.
//
// Clone only reads the receiver, so concurrent Clones of one closure are
// safe as long as no concurrent mutation runs; see the package comment.
func (c *Closure) Clone() *Closure {
	n := &Closure{
		version:   c.version,
		nodes:     append([]node(nil), c.nodes...),
		byKey:     maps.Clone(c.byKey),
		parent:    append([]int(nil), c.parent...),
		rank:      append([]int(nil), c.rank...),
		sigTable:  maps.Clone(c.sigTable),
		parentsOf: cloneIntSliceMap(c.parentsOf),
		structsIn: cloneIntSliceMap(c.structsIn),
		projsOn:   cloneIntSliceMap(c.projsOn),
		pending:   append([][2]int(nil), c.pending...),
	}
	if c.feats != nil {
		n.feats = c.feats.clone()
	}
	return n
}

func cloneIntSliceMap(m map[int][]int) map[int][]int {
	out := make(map[int][]int, len(m))
	for k, v := range m {
		out[k] = append([]int(nil), v...)
	}
	return out
}

// Add interns the term (and all its subterms) and returns its node id.
// Adding an already-present term is cheap and returns the existing id.
func (c *Closure) Add(t *core.Term) int {
	id := c.intern(t)
	c.drain()
	return id
}

func (c *Closure) intern(t *core.Term) int {
	key := t.HashKey()
	if id, ok := c.byKey[key]; ok {
		return id
	}
	if c.frozen != nil {
		panic("congruence: interning " + key + " into a frozen closure")
	}
	var n node
	n.term = t
	switch t.Kind {
	case core.KProj, core.KDom:
		n.args = []int{c.intern(t.Base)}
	case core.KLookup:
		n.args = []int{c.intern(t.Base), c.intern(t.Key)}
	case core.KStruct:
		n.args = make([]int, len(t.Fields))
		for i, f := range t.Fields {
			n.args[i] = c.intern(f.Term)
		}
	}
	if n.args != nil {
		n.op = opTag(t)
	}
	id := len(c.nodes)
	c.nodes = append(c.nodes, n)
	c.parent = append(c.parent, id)
	c.rank = append(c.rank, 0)
	c.byKey[key] = id
	if c.feats != nil {
		c.feats.noteNode(c, id)
	}

	// Register with parents-of lists and the signature table.
	for _, a := range n.args {
		ra := c.find(a)
		c.parentsOf[ra] = append(c.parentsOf[ra], id)
	}
	if n.args != nil {
		sig := c.signature(id)
		if other, ok := c.sigTable[sig]; ok && c.find(other) != id {
			c.pending = append(c.pending, [2]int{id, other})
		} else {
			c.sigTable[sig] = id
		}
	}

	// Axiom bookkeeping.
	if t.Kind == core.KStruct {
		r := c.find(id)
		c.structsIn[r] = append(c.structsIn[r], id)
		c.fireBeta(r)
	}
	if t.Kind == core.KProj {
		rb := c.find(n.args[0])
		c.projsOn[rb] = append(c.projsOn[rb], id)
		c.fireBeta(rb)
	}
	return id
}

// signature computes the current congruence signature of a node.
func (c *Closure) signature(id int) sigKey {
	n := &c.nodes[id]
	var k sigKey
	k.op = n.op
	for i, a := range n.args {
		k.setArg(i, c.find(a))
	}
	return k
}

func (c *Closure) find(x int) int {
	if c.frozen != nil {
		// Freeze compressed every path: parent is the representative.
		return c.parent[x]
	}
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

// fireBeta merges x.A with t whenever the class r contains both a struct
// constructor struct(..., A: t, ...) and is the base class of a projection
// x.A.
func (c *Closure) fireBeta(r int) {
	projs := c.projsOn[r]
	structs := c.structsIn[r]
	if len(projs) == 0 || len(structs) == 0 {
		return
	}
	for _, p := range projs {
		field := c.nodes[p].term.Name
		for _, s := range structs {
			sn := &c.nodes[s]
			for i, f := range sn.term.Fields {
				if f.Name == field {
					c.pending = append(c.pending, [2]int{p, sn.args[i]})
				}
			}
		}
	}
}

// union merges the classes of two node ids and enqueues consequences.
func (c *Closure) union(a, b int) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	if c.rank[ra] < c.rank[rb] {
		ra, rb = rb, ra
	}
	// rb is absorbed into ra.
	c.parent[rb] = ra
	if c.rank[ra] == c.rank[rb] {
		c.rank[ra]++
	}
	c.version++
	if c.feats != nil {
		c.feats.union(ra, rb)
	}

	// Recompute signatures of nodes that used a member of rb as a child.
	moved := c.parentsOf[rb]
	delete(c.parentsOf, rb)
	for _, p := range moved {
		sig := c.signature(p)
		if other, ok := c.sigTable[sig]; ok && c.find(other) != c.find(p) {
			c.pending = append(c.pending, [2]int{p, other})
		} else {
			c.sigTable[sig] = p
		}
	}
	c.parentsOf[ra] = append(c.parentsOf[ra], moved...)

	// Constructor injectivity across the merged class.
	sA := c.structsIn[ra]
	sB := c.structsIn[rb]
	delete(c.structsIn, rb)
	for _, x := range sA {
		for _, y := range sB {
			nx, ny := &c.nodes[x], &c.nodes[y]
			if nx.op == ny.op { // same field-name list
				for i := range nx.args {
					c.pending = append(c.pending, [2]int{nx.args[i], ny.args[i]})
				}
			}
		}
	}
	c.structsIn[ra] = append(sA, sB...)

	// Beta across the merged class.
	pB := c.projsOn[rb]
	delete(c.projsOn, rb)
	c.projsOn[ra] = append(c.projsOn[ra], pB...)
	c.fireBeta(ra)
}

func (c *Closure) drain() {
	for len(c.pending) > 0 {
		p := c.pending[len(c.pending)-1]
		c.pending = c.pending[:len(c.pending)-1]
		c.union(p[0], p[1])
	}
}

// Merge asserts the equality of two terms (interning them if needed) and
// propagates all consequences.
func (c *Closure) Merge(a, b *core.Term) {
	c.mustBeMutable("Merge")
	ia := c.intern(a)
	ib := c.intern(b)
	c.pending = append(c.pending, [2]int{ia, ib})
	c.drain()
}

// Same reports whether two terms are in the same congruence class. Both
// terms are interned if not yet present (which cannot change existing
// classes, only extend them with derived consequences of the axioms).
func (c *Closure) Same(a, b *core.Term) bool {
	ia := c.intern(a)
	ib := c.intern(b)
	c.drain()
	return c.find(ia) == c.find(ib)
}

// Contains reports whether the term has already been interned.
func (c *Closure) Contains(t *core.Term) bool {
	_, ok := c.byKey[t.HashKey()]
	return ok
}

// ID returns the node id of an interned term and whether it is present.
func (c *Closure) ID(t *core.Term) (int, bool) {
	id, ok := c.byKey[t.HashKey()]
	return id, ok
}

// Rep returns the class representative id for the term, interning it if
// necessary.
func (c *Closure) Rep(t *core.Term) int {
	id := c.intern(t)
	c.drain()
	return c.find(id)
}

// ClassMembers returns every interned term in the same class as t, sorted
// by HashKey for determinism. t itself is included. On a frozen closure
// the result is the shared precomputed class: callers must treat it as
// read-only.
func (c *Closure) ClassMembers(t *core.Term) []*core.Term {
	if c.frozen != nil {
		return c.frozen.classes[c.frozen.classOf[c.intern(t)]]
	}
	r := c.Rep(t)
	var out []*core.Term
	for id := range c.nodes {
		if c.find(id) == r {
			out = append(out, c.nodes[id].term)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HashKey() < out[j].HashKey() })
	return out
}

// Terms returns all interned terms in insertion order.
func (c *Closure) Terms() []*core.Term {
	out := make([]*core.Term, len(c.nodes))
	for i := range c.nodes {
		out[i] = c.nodes[i].term
	}
	return out
}

// Len returns the number of interned terms.
func (c *Closure) Len() int { return len(c.nodes) }

// Version returns the union counter. Two equal Versions guarantee every
// class representative is unchanged in between; any union (asserted or
// derived) increments it.
func (c *Closure) Version() uint64 { return c.version }

// Classes returns the congruence classes as slices of terms, each sorted
// by HashKey, the classes sorted by their first member. Useful for
// diagnostics and deterministic output. On a frozen closure the result
// is the shared precomputed partition: callers must treat it as
// read-only.
func (c *Closure) Classes() [][]*core.Term {
	if c.frozen != nil {
		return c.frozen.classes
	}
	groups := make(map[int][]*core.Term)
	for id := range c.nodes {
		r := c.find(id)
		groups[r] = append(groups[r], c.nodes[id].term)
	}
	out := make([][]*core.Term, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i].HashKey() < g[j].HashKey() })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].HashKey() < out[j][0].HashKey() })
	return out
}

// Freeze makes the closure read-only: it drains pending merges, fully
// compresses every union-find path, and computes once the class
// partition and each class's members, in the order Classes and
// ClassMembers return them, and what a Rewriter reads: member ids,
// constructor nodes and each node's variables. Afterwards find never
// writes, ClassMembers and Classes return the precomputed slices, and
// any operation that would intern a new term or merge two classes
// panics, so the closure may be shared by any number of concurrent
// readers. Freezing a frozen closure is a no-op.
func (c *Closure) Freeze() {
	if c.frozen != nil {
		return
	}
	c.drain()
	for id := range c.parent {
		c.parent[id] = c.find(id)
	}
	classes := c.Classes()
	f := &frozenClasses{classes: classes, classOf: make([]int, len(c.nodes)),
		members: make([][]int, len(classes)), varBit: map[string]int{}}
	for i, class := range classes {
		for _, t := range class {
			id := c.byKey[t.HashKey()]
			f.classOf[id], f.members[i] = i, append(f.members[i], id)
		}
	}
	for id, n := range c.nodes {
		switch n.term.Kind {
		case core.KVar:
			f.varBit[n.term.Name] = len(f.varBit)
		case core.KStruct:
			f.structs = append(f.structs, id)
		}
	}
	// Children are interned before their parents: one ascending pass.
	f.words = (len(f.varBit) + 63) / 64
	f.vars = make([]uint64, len(c.nodes)*f.words)
	for id, n := range c.nodes {
		if n.term.Kind == core.KVar {
			f.varsOf(id).add(f.varBit[n.term.Name])
		}
		for _, a := range n.args {
			for i, w := range f.varsOf(a) {
				f.vars[id*f.words+i] |= w
			}
		}
	}
	c.frozen = f
}

// mustBeMutable panics when the closure is frozen: a caller sharing a
// frozen closure that asks it to grow has a bug, not a bad input.
func (c *Closure) mustBeMutable(op string) {
	if c.frozen != nil {
		panic("congruence: " + op + " on a frozen closure")
	}
}

// ConstantClash returns a pair of distinct constants that have been forced
// into the same congruence class, if any. A clash means no instance
// satisfies the asserted equalities (the chase reports the query as
// unsatisfiable / empty).
func (c *Closure) ConstantClash() (a, b *core.Term, clash bool) {
	reps := make(map[int]*core.Term)
	for id := range c.nodes {
		t := c.nodes[id].term
		if t.Kind != core.KConst {
			continue
		}
		r := c.find(id)
		if prev, ok := reps[r]; ok {
			if !prev.Equal(t) {
				return prev, t, true
			}
			continue
		}
		reps[r] = t
	}
	return nil, nil, false
}
