package instance

import (
	"bytes"
	"math/bits"
)

// Row storage: chunk c holds min(firstChunkRows<<c, maxChunkRows) rows,
// so a small result allocates little and a large one grows by whole
// chunks, none of which is ever copied.
const (
	firstChunkRows = 16
	maxChunkRows   = 1024
	// The doublingChunks chunks below maxChunkRows (16, 32, ..., 512
	// rows) hold the first doublingRows rows.
	doublingChunks = 6
	doublingRows   = maxChunkRows - firstChunkRows
)

// chunkRows returns the row capacity of chunk c.
func chunkRows(c int) int {
	if c >= doublingChunks {
		return maxChunkRows
	}
	return firstChunkRows << c
}

// locate returns the chunk holding row i and the row's offset in it.
func locate(i int) (c, off int) {
	if i < doublingRows {
		c = bits.Len(uint(i/firstChunkRows+1)) - 1
		return c, i - firstChunkRows*(1<<c-1)
	}
	i -= doublingRows
	return doublingChunks + i/maxChunkRows, i % maxChunkRows
}

// RowSet accumulates the distinct rows of one query output: records
// with fixed field names, or scalar values. It stores each new row's
// field values in chunks instead of building a record, and deduplicates
// through the same slot index as Set, by the hash a record of those
// values would have (Hash of the value for a scalar output) and Equal on
// the values, so it keeps exactly the rows a Set of the records would.
// Records are built only by FirstN and Set, for the rows they return.
//
// A RowSet is for one goroutine: Add must not race with anything.
type RowSet struct {
	names  []string // record field names; nil for a scalar output
	width  int      // values per row
	idx    index
	chunks [][]Value
}

// NewRowSet returns an empty accumulator for records with the given
// field names, or for scalar values when names is nil. The RowSet keeps
// names, and the records it builds share them: callers must not modify
// names afterwards.
func NewRowSet(names []string) *RowSet {
	r := &RowSet{names: names, width: len(names)}
	if names == nil {
		r.width = 1
	}
	return r
}

// Add inserts one row unless an equal row is present, and reports
// whether it was added. vals holds the record's field values in field
// order, or the one scalar value; Add copies them, so the caller may
// reuse vals.
func (r *RowSet) Add(vals []Value) bool {
	if len(vals) != r.width {
		panic("instance: RowSet.Add row width mismatch")
	}
	var h uint64
	if r.names == nil {
		h = Hash(vals[0])
	} else {
		h = structHash(vals)
	}
	if r.idx.probe(h, func(i int) bool { return valuesEqual(r.row(i), vals) }) >= 0 {
		return false
	}
	c, off := locate(r.Len())
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, make([]Value, chunkRows(c)*r.width))
	}
	copy(r.chunks[c][off*r.width:], vals)
	r.idx.add(h)
	return true
}

// valuesEqual reports whether two rows hold Equal values field by field.
func valuesEqual(a, b []Value) bool {
	for j := range a {
		if !Equal(a[j], b[j]) {
			return false
		}
	}
	return true
}

// Len returns the number of distinct rows.
func (r *RowSet) Len() int { return len(r.idx.hashes) }

// row returns row i's values, in the chunk that holds them.
func (r *RowSet) row(i int) []Value {
	c, off := locate(i)
	lo := off * r.width
	return r.chunks[c][lo : lo+r.width : lo+r.width]
}

// appendKey appends row i's key, the Key of the value the row stands
// for, rendered field by field. Given a bound it stops after the first
// field that decides the key sorts above it (see keyFunc).
func (r *RowSet) appendKey(b []byte, i int, bound []byte) ([]byte, bool) {
	vals := r.row(i)
	if r.names == nil {
		return AppendKey(b, vals[0]), true
	}
	start, same := len(b), 0
	b = append(b, "r{"...)
	for j, v := range vals {
		if j > 0 {
			b = append(b, ',')
		}
		b = AppendKey(append(append(b, r.names[j]...), ':'), v)
		if bound == nil {
			continue
		}
		// key[:same] equals bound[:same]; compare the bytes this field
		// added against the bound.
		key := b[start:]
		n := min(len(key), len(bound))
		switch c := bytes.Compare(key[same:n], bound[same:n]); {
		case c > 0:
			return b, false
		case c < 0:
			bound = nil // sorts below: render the rest
		case len(key) > len(bound):
			return b, false // bound is a proper prefix
		default:
			same = n
		}
	}
	return append(b, '}'), true
}

// values returns the values the given rows stand for, in that order, or
// of every row in insertion order when rows is nil. The records share
// the field names and one slab of copied values, so they keep no chunk
// alive.
func (r *RowSet) values(rows []int) []Value {
	n := len(rows)
	if rows == nil {
		n = r.Len()
	}
	at := func(j int) int {
		if rows == nil {
			return j
		}
		return rows[j]
	}
	out := make([]Value, n)
	if r.names == nil {
		for j := range out {
			out[j] = r.row(at(j))[0]
		}
		return out
	}
	w := r.width
	recs := make([]Struct, n)
	slab := make([]Value, n*w)
	for j := range recs {
		i := at(j)
		rec := &recs[j]
		rec.names = r.names
		rec.vals = slab[j*w : (j+1)*w : (j+1)*w]
		copy(rec.vals, r.row(i))
		rec.hash = r.idx.hashes[i]
		out[j] = rec
	}
	return out
}

// FirstN returns the values of the k rows with the smallest keys, in key
// order: what NewSet of every row's value would return from FirstN(k),
// all of them when k < 0. It builds only the records it returns. A k
// below Len is answered by a bounded heap selection that renders each
// row's key only up to the first field that tells it from the heap's
// largest key.
func (r *RowSet) FirstN(k int) []Value {
	if k < 0 || k >= r.Len() {
		return r.values(keyOrder(r.Len(), r.appendKey))
	}
	return r.values(firstN(r.Len(), k, r.appendKey))
}

// Set returns the rows' values as a Set, with its members in insertion
// order. The Set is built once, with exactly sized columns, and shares
// nothing mutable with r.
func (r *RowSet) Set() *Set {
	s := &Set{}
	s.t.index = r.idx.clone()
	s.t.keys = r.values(nil)
	return s
}
