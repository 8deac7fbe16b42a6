// Package instance implements the runtime value model of the complex
// value / dictionary data model and in-memory database instances: finite
// sets, records, dictionaries (finite functions) and base values including
// opaque oids. Queries are executed against instances by the eval and
// engine packages; tests use instances to verify that rewritten plans are
// equivalent to the original queries on real data.
//
// Every value has a canonical key (Value.Key), and two values are equal
// exactly when their keys are. Membership never renders a key: a Set
// keeps its members, and a Dict its keys, in insertion order behind an
// open-addressing index over a column of 64-bit structural hashes
// (Hash), and tells colliding values apart with Equal. Both columns are
// pointer-free, so the garbage collector never scans them. A record
// computes its hash when it is built and renders its key only when Key
// is first called; AppendKey and the sorts below render into scratch
// buffers and keep nothing.
//
// Keys matter where their order is observed: collections iterate in key
// order. A Set or Dict computes that order once and keeps it: Elems,
// Entries and Domain return shared, read-only results, so repeated scans
// of an installed collection cost O(n) and allocate nothing. Hashes stay
// inside the process, and no output depends on their order. Add and Put
// are builders for values not yet shared; once a collection has been
// handed to readers (bound in an instance, nested in a record, returned
// from a query) it must not be mutated. Reading a shared collection from
// many goroutines is safe.
package instance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Value is a runtime value. Implementations are immutable once built
// (Set and Dict have builder-style Add methods used during construction;
// do not mutate values that have been shared).
type Value interface {
	// Key returns a canonical string encoding, injective on values (whose
	// field and oid type names are identifiers): two values are equal iff
	// their keys are equal. Collections order their members by it;
	// membership and comparison use Hash and Equal, which agree with it.
	Key() string
	// String renders the value for humans.
	String() string
}

// AppendKey appends v's canonical key (v.Key()) to b and returns the
// extended buffer. Base values and records render straight into b — a
// record through the key it kept if Key has run on it — so rendering
// them allocates nothing beyond b's growth and keeps no key that was not
// already kept. Anything else appends its Key().
//
// No render path calls itself: escape analysis treats a buffer that a
// recursive function returns as escaping, which would move a caller's
// stack buffer to the heap. Nested records are rendered by a loop, and
// a collection's Key, which sorts its members, is reached only through
// the Value interface.
func AppendKey(b []byte, v Value) []byte {
	if s, ok := v.(*Struct); ok {
		return s.appendKey(b)
	}
	return appendLeafKey(b, v)
}

// appendLeafKey appends the key of anything but an unkeyed record.
func appendLeafKey(b []byte, v Value) []byte {
	switch t := v.(type) {
	case Int:
		return t.appendKey(b)
	case Float:
		return t.appendKey(b)
	case Str:
		return t.appendKey(b)
	case OID:
		return t.appendKey(b)
	case *Struct:
		if p := t.key.Load(); p != nil {
			return append(b, blockString(p)...)
		}
	}
	return append(b, v.Key()...)
}

// Int is an integer value.
type Int int64

func (v Int) appendKey(b []byte) []byte { return strconv.AppendInt(append(b, 'i'), int64(v), 10) }

// Key implements Value.
func (v Int) Key() string { return string(v.appendKey(nil)) }

// String implements Value.
func (v Int) String() string { return strconv.FormatInt(int64(v), 10) }

// Float is a floating-point value.
type Float float64

func (v Float) appendKey(b []byte) []byte {
	return strconv.AppendFloat(append(b, 'f'), float64(v), 'g', -1, 64)
}

// Key implements Value.
func (v Float) Key() string { return string(v.appendKey(nil)) }

// String implements Value.
func (v Float) String() string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }

// Str is a string value.
type Str string

// appendKey quotes v as strconv.AppendQuote does, copying a string of
// printable ASCII without quotes or backslashes, which quoting leaves
// unchanged, as is. FuzzEqualMatchesKey pins it to strconv.Quote.
func (v Str) appendKey(b []byte) []byte {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(append(b, 's'), string(v))
		}
	}
	return append(append(append(b, 's', '"'), v...), '"')
}

// Key implements Value.
func (v Str) Key() string { return string(v.appendKey(nil)) }

// String implements Value.
func (v Str) String() string { return strconv.Quote(string(v)) }

// Bool is a boolean value.
type Bool bool

// Key implements Value.
func (v Bool) Key() string {
	if v {
		return "bT"
	}
	return "bF"
}

// String implements Value.
func (v Bool) String() string {
	if v {
		return "true"
	}
	return "false"
}

// OID is an opaque object identifier of a named oid type. Two oids are
// equal iff both the type name and the serial agree.
type OID struct {
	TypeName string
	Serial   int
}

func (v OID) appendKey(b []byte) []byte {
	b = append(append(append(b, 'o'), v.TypeName...), '#')
	return strconv.AppendInt(b, int64(v.Serial), 10)
}

// Key implements Value.
func (v OID) Key() string { return string(v.appendKey(nil)) }

// String implements Value.
func (v OID) String() string { return v.TypeName + "#" + strconv.Itoa(v.Serial) }

// Struct is a record value with named fields in a fixed order. Its hash
// is computed when it is built; its key is rendered on the first Key
// call and kept.
type Struct struct {
	names []string
	vals  []Value
	hash  uint64
	key   atomic.Pointer[byte] // length-prefixed key block, see keyBlock
}

// structHash hashes a record's field values in order. Field names are
// left out: records that differ only in names collide, and Equal tells
// them apart.
func structHash(vals []Value) uint64 {
	h := tagStruct + uint64(len(vals))
	for _, v := range vals {
		h = combine(h, Hash(v))
	}
	return h
}

// NewStruct builds a record from field names and values (parallel slices).
func NewStruct(names []string, vals []Value) *Struct {
	if len(names) != len(vals) {
		panic("instance: NewStruct field/value length mismatch")
	}
	return &Struct{names: names, vals: vals, hash: structHash(vals)}
}

// StructOf builds a record from alternating name, value pairs in field
// order: StructOf("A", Int(1), "B", Str("x")).
func StructOf(pairs ...any) *Struct {
	if len(pairs)%2 != 0 {
		panic("instance: StructOf needs name/value pairs")
	}
	names := make([]string, 0, len(pairs)/2)
	vals := make([]Value, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		names = append(names, pairs[i].(string))
		vals = append(vals, pairs[i+1].(Value))
	}
	return NewStruct(names, vals)
}

// Field returns the value of the named field and whether it exists.
func (s *Struct) Field(name string) (Value, bool) {
	for i, n := range s.names {
		if n == name {
			return s.vals[i], true
		}
	}
	return nil, false
}

// Names returns the field names in order.
func (s *Struct) Names() []string { return append([]string(nil), s.names...) }

// NumFields returns the number of fields.
func (s *Struct) NumFields() int { return len(s.vals) }

// FieldAt returns the name and value of field i, 0 <= i < NumFields(),
// without allocating.
func (s *Struct) FieldAt(i int) (string, Value) { return s.names[i], s.vals[i] }

// Key implements Value. The first call renders the key through a stack
// buffer into a single allocation and publishes it; racing first calls
// each render, and one result is kept.
func (s *Struct) Key() string {
	if p := s.key.Load(); p != nil {
		return blockString(p)
	}
	var buf [256]byte
	p := keyBlock(s.appendKey(buf[:8]))
	s.key.Store(p)
	return blockString(p)
}

// appendKey appends the record's key: the kept one when Key has run,
// else a fresh rendering that is not kept. Unkeyed nested records are
// rendered through an explicit stack rather than by recursion.
func (s *Struct) appendKey(b []byte) []byte {
	if p := s.key.Load(); p != nil {
		return append(b, blockString(p)...)
	}
	type frame struct {
		s *Struct
		i int // next field
	}
	var frames [4]frame
	stack := append(frames[:0], frame{s: s})
	b = append(b, "r{"...)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i == len(f.s.vals) {
			b = append(b, '}')
			stack = stack[:len(stack)-1]
			continue
		}
		if f.i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, f.s.names[f.i]...), ':')
		v := f.s.vals[f.i]
		f.i++
		if r, ok := v.(*Struct); ok && r.key.Load() == nil {
			b = append(b, "r{"...)
			stack = append(stack, frame{s: r})
			continue
		}
		b = appendLeafKey(b, v)
	}
	return b
}

// keyBlock turns b, a rendered key behind 8 reserved bytes, into one
// heap block that starts with the key's length, so a single atomic
// pointer publishes the whole key.
func keyBlock(b []byte) *byte {
	blk := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(blk, uint64(len(blk)-8))
	return &blk[0]
}

// blockString returns the key held in a block built by keyBlock. The
// block is never written again, so the string may alias it.
func blockString(p *byte) string {
	n := binary.LittleEndian.Uint64(unsafe.Slice(p, 8))
	return unsafe.String((*byte)(unsafe.Add(unsafe.Pointer(p), 8)), n)
}

func (s *Struct) equal(t *Struct) bool {
	if s == t {
		return true
	}
	if s.hash != t.hash || len(s.vals) != len(t.vals) {
		return false
	}
	for i := range s.vals {
		if s.names[i] != t.names[i] || !Equal(s.vals[i], t.vals[i]) {
			return false
		}
	}
	return true
}

// String implements Value.
func (s *Struct) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := range s.names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.names[i])
		b.WriteString(": ")
		b.WriteString(s.vals[i].String())
	}
	b.WriteByte('}')
	return b.String()
}

// keyFunc appends member i's key to b and reports true. Given a non-nil
// bound it may stop as soon as the key is known not to sort below bound,
// and report false with only a prefix of the key appended.
type keyFunc func(b []byte, i int, bound []byte) ([]byte, bool)

// valueKeys renders the keys of vals.
func valueKeys(vals []Value) keyFunc {
	return func(b []byte, i int, _ []byte) ([]byte, bool) { return AppendKey(b, vals[i]), true }
}

// keyOrder returns the permutation that sorts n members by key. Every
// key is rendered once into one scratch slab that is dropped on return,
// so sorting records leaves none of their keys behind.
func keyOrder(n int, appendKey keyFunc) []int {
	ends := make([]int, n)
	var slab []byte
	for i := range n {
		slab, _ = appendKey(slab, i, nil)
		ends[i] = len(slab)
	}
	key := func(i int) []byte {
		if i == 0 {
			return slab[:ends[0]]
		}
		return slab[ends[i-1]:ends[i]]
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int { return bytes.Compare(key(a), key(b)) })
	return perm
}

// firstN returns the positions of the k members with the smallest keys
// among n, 0 <= k < n, in key order. It is a bounded max-heap selection,
// O(n log k), that neither sorts nor keeps every key: each member's key
// is rendered into one reused buffer, and only the keys the heap keeps
// are copied out. Once the heap is full, appendKey gets the largest key
// it holds as the bound.
func firstN(n, k int, appendKey keyFunc) []int {
	if k == 0 {
		return []int{}
	}
	// h is a max-heap on key holding the k smallest members seen. The
	// first k keys are appended to one slab, each clipped to its own
	// length so that overwriting it in place cannot reach its neighbour.
	// A key that enters the heap later overwrites the one it evicts.
	type cand struct {
		key []byte
		i   int
	}
	h := make([]cand, 0, k)
	var slab, scratch []byte
	for i := range n {
		if len(h) < k {
			scratch, _ = appendKey(scratch[:0], i, nil)
			lo := len(slab)
			slab = append(slab, scratch...)
			h = append(h, cand{slab[lo:len(slab):len(slab)], i})
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if bytes.Compare(h[p].key, h[c].key) >= 0 {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
			continue
		}
		var below bool
		scratch, below = appendKey(scratch[:0], i, h[0].key)
		if !below || bytes.Compare(scratch, h[0].key) >= 0 {
			continue
		}
		h[0] = cand{append(h[0].key[:0], scratch...), i}
		for p := 0; ; {
			c := 2*p + 1
			if c >= k {
				break
			}
			if c+1 < k && bytes.Compare(h[c+1].key, h[c].key) > 0 {
				c++
			}
			if bytes.Compare(h[p].key, h[c].key) >= 0 {
				break
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
	}
	slices.SortFunc(h, func(a, b cand) int { return bytes.Compare(a.key, b.key) })
	out := make([]int, len(h))
	for j, c := range h {
		out[j] = c.i
	}
	return out
}

// Set is a finite set of values with set semantics (duplicates collapse).
// It keeps its members in insertion order behind a hash index, and
// computes its key order on first use and keeps it until the next Add.
type Set struct {
	t     table
	order atomic.Pointer[[]Value]
}

// NewSet builds a set from the given elements.
func NewSet(elems ...Value) *Set {
	s := &Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Add inserts a value (idempotent). Returns the set for chaining. Add is
// for sets under construction: it must not race with readers.
func (s *Set) Add(v Value) *Set {
	if _, added := s.t.insert(v, Hash(v)); added && s.order.Load() != nil {
		s.order.Store(nil)
	}
	return s
}

// Contains reports membership.
func (s *Set) Contains(v Value) bool { return s.t.find(v, Hash(v)) >= 0 }

// Len returns the cardinality.
func (s *Set) Len() int { return len(s.t.keys) }

// Elems returns the elements sorted by key (deterministic iteration).
// The order is computed on the first call and shared by every caller:
// the slice is read-only. Goroutines racing on the first call each sort,
// and one result is kept.
func (s *Set) Elems() []Value {
	if o := s.order.Load(); o != nil {
		return *o
	}
	perm := keyOrder(s.Len(), valueKeys(s.t.keys))
	vals := make([]Value, len(perm))
	for i, p := range perm {
		vals[i] = s.t.keys[p]
	}
	s.order.Store(&vals)
	return vals
}

// Equal reports set equality.
func (s *Set) Equal(t *Set) bool {
	if s == t {
		return true
	}
	if s.Len() != t.Len() {
		return false
	}
	for i, v := range s.t.keys {
		if t.t.find(v, s.t.hashes[i]) < 0 {
			return false
		}
	}
	return true
}

func (s *Set) hashOf() uint64 { return s.t.hashOf(tagSet) }

// Key implements Value: the element keys in key order.
func (s *Set) Key() string {
	var buf [256]byte
	return string(s.appendKey(buf[:0]))
}

func (s *Set) appendKey(b []byte) []byte {
	b = append(b, "S["...)
	for i, v := range s.Elems() {
		if i > 0 {
			b = append(b, ';')
		}
		b = AppendKey(b, v)
	}
	return append(b, ']')
}

// String implements Value.
func (s *Set) String() string {
	parts := make([]string, 0, s.Len())
	for _, e := range s.Elems() {
		parts = append(parts, e.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Dict is a dictionary: a finite function from keys to values. Its keys
// sit in insertion order behind a hash index, with vals[i] bound to the
// i-th key. Like Set, it computes its key order (and its domain) on
// first use and keeps them until the next Put.
type Dict struct {
	t     table
	vals  []Value
	order atomic.Pointer[[][2]Value]
	dom   atomic.Pointer[Set]
}

// NewDict builds an empty dictionary.
func NewDict() *Dict { return &Dict{} }

// Put binds key to val (overwriting). Returns the dict for chaining. Put
// is for dictionaries under construction: it must not race with readers.
func (d *Dict) Put(key, val Value) *Dict {
	if i, added := d.t.insert(key, Hash(key)); added {
		d.vals = append(d.vals, val)
	} else {
		d.t.keys[i], d.vals[i] = key, val
	}
	if d.order.Load() != nil {
		d.order.Store(nil)
	}
	if d.dom.Load() != nil {
		d.dom.Store(nil)
	}
	return d
}

// Get returns the entry for the key and whether it is defined.
func (d *Dict) Get(key Value) (Value, bool) {
	i := d.t.find(key, Hash(key))
	if i < 0 {
		return nil, false
	}
	return d.vals[i], true
}

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.t.keys) }

// Domain returns dom(d) as a Set. The set is built once, already in key
// order, and shared by every caller: it is read-only.
func (d *Dict) Domain() *Set {
	if s := d.dom.Load(); s != nil {
		return s
	}
	s := &Set{t: d.t.clone()}
	es := d.Entries()
	vals := make([]Value, len(es))
	for i, e := range es {
		vals[i] = e[0]
	}
	s.order.Store(&vals)
	d.dom.Store(s)
	return s
}

// Entries returns the (key, value) pairs sorted by key encoding. The
// order is computed on the first call and shared by every caller: the
// slice is read-only.
func (d *Dict) Entries() [][2]Value {
	if o := d.order.Load(); o != nil {
		return *o
	}
	perm := keyOrder(d.Len(), valueKeys(d.t.keys))
	es := make([][2]Value, len(perm))
	for i, p := range perm {
		es[i] = [2]Value{d.t.keys[p], d.vals[p]}
	}
	d.order.Store(&es)
	return es
}

// hashOf sums the scrambled hashes of the (key, value) pairs, so it does
// not depend on insertion order.
func (d *Dict) hashOf() uint64 {
	h := tagDict + uint64(d.Len())
	for i, x := range d.t.hashes {
		h += mix(combine(x, Hash(d.vals[i])))
	}
	return mix(h)
}

func (d *Dict) equal(e *Dict) bool {
	if d == e {
		return true
	}
	if d.Len() != e.Len() {
		return false
	}
	for i, k := range d.t.keys {
		j := e.t.find(k, d.t.hashes[i])
		if j < 0 || !Equal(d.vals[i], e.vals[j]) {
			return false
		}
	}
	return true
}

// Key implements Value: the entries in key order.
func (d *Dict) Key() string {
	var buf [256]byte
	return string(d.appendKey(buf[:0]))
}

func (d *Dict) appendKey(b []byte) []byte {
	b = append(b, "D["...)
	for i, e := range d.Entries() {
		if i > 0 {
			b = append(b, ';')
		}
		b = append(AppendKey(b, e[0]), "->"...)
		b = AppendKey(b, e[1])
	}
	return append(b, ']')
}

// String implements Value.
func (d *Dict) String() string {
	parts := make([]string, 0, d.Len())
	for _, e := range d.Entries() {
		parts = append(parts, e[0].String()+" -> "+e[1].String())
	}
	return "dict{" + strings.Join(parts, ", ") + "}"
}

// Instance is a database instance: a binding of schema names to values.
type Instance struct {
	vals map[string]Value
}

// NewInstance creates an empty instance.
func NewInstance() *Instance { return &Instance{vals: map[string]Value{}} }

// Bind assigns a value to a schema name.
func (in *Instance) Bind(name string, v Value) *Instance {
	in.vals[name] = v
	return in
}

// Lookup returns the value of a schema name.
func (in *Instance) Lookup(name string) (Value, bool) {
	v, ok := in.vals[name]
	return v, ok
}

// Names returns the bound names, sorted.
func (in *Instance) Names() []string {
	out := make([]string, 0, len(in.vals))
	for n := range in.vals {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String summarizes the instance.
func (in *Instance) String() string {
	var b strings.Builder
	for _, n := range in.Names() {
		v := in.vals[n]
		switch t := v.(type) {
		case *Set:
			fmt.Fprintf(&b, "%s: set of %d\n", n, t.Len())
		case *Dict:
			fmt.Fprintf(&b, "%s: dict of %d\n", n, t.Len())
		default:
			fmt.Fprintf(&b, "%s: %s\n", n, v)
		}
	}
	return b.String()
}
