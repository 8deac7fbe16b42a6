package core

// HashCons is a hash-consing table: it maps every distinct term (by
// HashKey) to one shared node, so equal subterms of the terms passed
// through it become pointer-identical. A stored plan set passes its
// queries through one table to keep a single copy of each subterm, and
// of each subterm's memoized key, however many plans repeat it.
//
// A HashCons is not safe for concurrent use. The nodes it returns are
// ordinary immutable terms and may be shared freely.
type HashCons struct {
	terms map[string]*Term
}

// NewHashCons returns an empty table.
func NewHashCons() *HashCons {
	return &HashCons{terms: map[string]*Term{}}
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

// Query returns a new query Equal, binding for binding and condition for
// condition, to q, whose terms are the table's nodes. q is not modified.
// Query(nil) is nil.
func (h *HashCons) Query(q *Query) *Query {
	if q == nil {
		return nil
	}
	out := &Query{
		Out:      h.Term(q.Out),
		Bindings: make([]Binding, len(q.Bindings)),
		Conds:    make([]Cond, len(q.Conds)),
	}
	for i, b := range q.Bindings {
		out.Bindings[i] = Binding{Var: b.Var, Range: h.Term(b.Range)}
	}
	for i, c := range q.Conds {
		out.Conds[i] = Cond{L: h.Term(c.L), R: h.Term(c.R)}
	}
	return out
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
