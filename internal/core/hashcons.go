package core

import (
	"encoding/binary"
	"strings"
)

// HashCons is a hash-consing table: it maps every distinct term (by
// HashKey) to one shared node, so equal subterms of the terms passed
// through it become pointer-identical. A stored plan set passes its
// queries through one table to keep a single copy of each subterm, and
// of each subterm's memoized key, however many plans repeat it. Queries
// are shared the same way: Equal queries come back as one query, and
// equal binding or condition lists as one slice.
//
// A HashCons is not safe for concurrent use. The nodes and queries it
// returns are immutable and may be shared freely; a caller that wants to
// change a query must Clone it.
type HashCons struct {
	terms map[string]*Term
	// ids numbers the table's nodes, so that a list of them has a short
	// key.
	ids     map[*Term]int
	binds   map[string][]Binding
	conds   map[string][]Cond
	queries map[string]*Query
}

// NewHashCons returns an empty table.
func NewHashCons() *HashCons {
	return &HashCons{
		terms:   map[string]*Term{},
		ids:     map[*Term]int{},
		binds:   map[string][]Binding{},
		conds:   map[string][]Cond{},
		queries: map[string]*Query{},
	}
}

// id writes the number of the table's node t to b.
func (h *HashCons) id(b *strings.Builder, t *Term) {
	n, ok := h.ids[t]
	if !ok {
		n = len(h.ids)
		h.ids[t] = n
	}
	var buf [binary.MaxVarintLen64]byte
	b.Write(buf[:binary.PutUvarint(buf[:], uint64(n))])
}

// Term returns the table's node Equal to t. On the first sight of t's key
// the node is t itself when its children are already the table's nodes,
// and otherwise a copy of t over the table's children; t is never
// modified. Term(nil) is nil.
func (h *HashCons) Term(t *Term) *Term {
	if t == nil {
		return nil
	}
	k := t.HashKey()
	if u, ok := h.terms[k]; ok {
		return u
	}
	u := t.mapChildren(h.Term)
	if u != t {
		u.key.Store(&k)
	}
	h.terms[k] = u
	return u
}

// Query returns the table's query Equal, binding for binding and
// condition for condition, to q, whose terms are the table's nodes: a
// new query the first time, the same one for every later Equal q. Its
// binding and condition slices are shared with the table's other
// queries that have equal lists. q is not modified. Query(nil) is nil.
func (h *HashCons) Query(q *Query) *Query {
	if q == nil {
		return nil
	}
	var key strings.Builder
	bs := make([]Binding, len(q.Bindings))
	for i, b := range q.Bindings {
		bs[i] = Binding{Var: b.Var, Range: h.Term(b.Range)}
		key.WriteString(b.Var)
		key.WriteByte(0)
		h.id(&key, bs[i].Range)
	}
	bkey := key.String()
	if prev, ok := h.binds[bkey]; ok {
		bs = prev
	} else {
		h.binds[bkey] = bs
	}
	key.Reset()
	cs := make([]Cond, len(q.Conds))
	for i, c := range q.Conds {
		cs[i] = Cond{L: h.Term(c.L), R: h.Term(c.R)}
		h.id(&key, cs[i].L)
		h.id(&key, cs[i].R)
	}
	ckey := key.String()
	if prev, ok := h.conds[ckey]; ok {
		cs = prev
	} else {
		h.conds[ckey] = cs
	}
	out := h.Term(q.Out)
	key.Reset()
	for _, part := range []string{bkey, ckey} {
		var buf [binary.MaxVarintLen64]byte
		key.Write(buf[:binary.PutUvarint(buf[:], uint64(len(part)))])
		key.WriteString(part)
	}
	h.id(&key, out)
	if prev, ok := h.queries[key.String()]; ok {
		return prev
	}
	r := &Query{Out: out, Bindings: bs, Conds: cs}
	h.queries[key.String()] = r
	return r
}

// Queries applies Query to every element, returning a new slice (nil for
// a nil input).
func (h *HashCons) Queries(qs []*Query) []*Query {
	if qs == nil {
		return nil
	}
	out := make([]*Query, len(qs))
	for i, q := range qs {
		out[i] = h.Query(q)
	}
	return out
}
