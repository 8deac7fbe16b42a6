package congruence

import (
	"strings"

	"cnb/internal/core"
)

// Op is the congruence operator of a term: the tag its signature is keyed
// by, plus the projected field (for beta). Leaves use their full HashKey
// as tag; compound terms use "proj:<field>", "dom", "lk", "lknf" or
// "struct:<f1>,<f2>,...". Two nodes with equal tags and pairwise equal
// child classes are congruent.
type Op struct {
	Tag    string
	Field  string   // the field of a projection; empty otherwise
	Fields []string // the fields of a constructor; nil otherwise
}

// OpOf returns the operator of t's root node.
func OpOf(t *core.Term) Op {
	op := Op{Tag: opTag(t)}
	switch t.Kind {
	case core.KProj:
		op.Field = t.Name
	case core.KStruct:
		op.Fields = make([]string, len(t.Fields))
		for i, f := range t.Fields {
			op.Fields[i] = f.Name
		}
	}
	return op
}

func opTag(t *core.Term) string {
	switch t.Kind {
	case core.KProj:
		return "proj:" + t.Name
	case core.KDom:
		return "dom"
	case core.KLookup:
		if t.NonFailing {
			return "lknf"
		}
		return "lk"
	case core.KStruct:
		var b strings.Builder
		b.WriteString("struct:")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
		}
		return b.String()
	}
	return t.HashKey()
}

// sigKey is a congruence signature by value: the operator tag and the
// class ids of the children. The first three children are inline; a
// constructor with more fields packs the rest into rest, which is the one
// case a signature allocates.
type sigKey struct {
	op   string
	a    [3]int32
	rest string
}

func (k *sigKey) setArg(i, id int) {
	if i < len(k.a) {
		k.a[i] = int32(id)
		return
	}
	v := uint32(int32(id))
	k.rest += string([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// Status is the outcome of a Lookup.
type Status uint8

// The outcomes of a Lookup.
const (
	// Miss: no node has the signature and no axiom places the term in an
	// existing class. Interning it would create a class of its own.
	Miss Status = iota
	// Hit: a node with the signature exists; the term is in its class.
	Hit
	// Beta: no node has the signature, but the term is a projection x.F
	// and x's class holds constructors whose F fields all lie in one
	// class, which interning x.F would join.
	Beta
	// Ambiguous: the term is a projection x.F and x's class holds
	// constructors whose F fields lie in different classes. Interning x.F
	// would merge those classes, so no read-only answer exists.
	Ambiguous
)

// Find returns the class representative of a node id. On a mutable
// closure it compresses the path (a write); on a frozen one it only
// reads.
func (c *Closure) Find(id int) int { return c.find(id) }

// Term returns the term interned as node id.
func (c *Closure) Term(id int) *core.Term { return c.nodes[id].term }

// LookupLeaf returns the class of a leaf term (variable, constant or
// schema name) if it is interned. It renders nothing beyond the term's
// memoized HashKey and interns nothing.
func (c *Closure) LookupLeaf(t *core.Term) (int, bool) {
	id, ok := c.byKey[t.HashKey()]
	if !ok {
		return 0, false
	}
	return c.find(id), true
}

// Lookup resolves the term op(args...) to its class without interning or
// rendering it: args are the class representatives of the children, in
// order. See Status for the outcomes; rep is meaningful for Hit and Beta.
func (c *Closure) Lookup(op Op, args []int) (rep int, st Status) {
	if id, ok := c.sigNode(op.Tag, args); ok {
		return c.find(id), Hit
	}
	if op.Field == "" || len(args) != 1 {
		return 0, Miss
	}
	rep, st = 0, Miss
	for _, s := range c.structsIn[args[0]] {
		sn := &c.nodes[s]
		for i, f := range sn.term.Fields {
			if f.Name != op.Field {
				continue
			}
			r := c.find(sn.args[i])
			if st == Beta && r != rep {
				return 0, Ambiguous
			}
			rep, st = r, Beta
		}
	}
	return rep, st
}

// sigNode returns the node with signature tag(args...), if any.
func (c *Closure) sigNode(tag string, args []int) (int, bool) {
	var k sigKey
	k.op = tag
	for i, a := range args {
		k.setArg(i, a)
	}
	id, ok := c.sigTable[k]
	return id, ok
}

// Probe resolves terms against a closure for one read-only search. A
// term the closure has no class for gets a virtual id (negative), and two
// such terms with the same operator and the same child ids get the same
// virtual id, exactly as interning both would put them in one new class.
// A Probe never writes to the closure it reads except for the path
// compression of a mutable closure's find, so Probes of one frozen
// closure may run concurrently. Use one per search, resetting it between
// searches: virtual ids are only meaningful while the closure does not
// change.
type Probe struct {
	c    *Closure
	virt map[sigKey]int
	// structs holds the fields and field classes of each virtual
	// constructor, for beta on projections of it.
	structs map[int]virtStruct
}

type virtStruct struct {
	fields []string
	args   []int
}

// Reset forgets every virtual id and points the probe at c, keeping its
// storage.
func (p *Probe) Reset(c *Closure) {
	p.c = c
	clear(p.virt)
	clear(p.structs)
}

// Leaf returns the class of a leaf term, or its virtual id.
func (p *Probe) Leaf(t *core.Term) int {
	if r, ok := p.c.LookupLeaf(t); ok {
		return r
	}
	return p.virtual(sigKey{op: t.HashKey()})
}

// Apply returns the class of op(args...), where each arg is a class or
// a virtual id, or a virtual id when the closure has none. ok is false
// when the answer is Ambiguous: the caller must fall back to interning.
func (p *Probe) Apply(op Op, args []int) (id int, ok bool) {
	real := true
	for _, a := range args {
		if a < 0 {
			real = false
			break
		}
	}
	if real {
		r, st := p.c.Lookup(op, args)
		switch st {
		case Hit, Beta:
			return r, true
		case Ambiguous:
			return 0, false
		}
	}
	// No node can have a virtual child. A virtual class is a singleton,
	// so beta applies only when it is a virtual constructor's.
	if op.Field != "" && len(args) == 1 {
		if vs, ok := p.structs[args[0]]; ok {
			for i, f := range vs.fields {
				if f == op.Field {
					return vs.args[i], true
				}
			}
		}
	}
	var k sigKey
	k.op = op.Tag
	for i, a := range args {
		k.setArg(i, a)
	}
	id = p.virtual(k)
	if op.Fields != nil {
		if _, ok := p.structs[id]; !ok {
			if p.structs == nil {
				p.structs = map[int]virtStruct{}
			}
			p.structs[id] = virtStruct{fields: op.Fields, args: append([]int(nil), args...)}
		}
	}
	return id, true
}

func (p *Probe) virtual(k sigKey) int {
	if id, ok := p.virt[k]; ok {
		return id
	}
	if p.virt == nil {
		p.virt = make(map[sigKey]int, 4)
	}
	id := -1 - len(p.virt)
	p.virt[k] = id
	return id
}
