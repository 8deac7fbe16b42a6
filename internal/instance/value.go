// Package instance implements the runtime value model of the complex
// value / dictionary data model and in-memory database instances: finite
// sets, records, dictionaries (finite functions) and base values including
// opaque oids. Queries are executed against instances by the eval and
// engine packages; tests use instances to verify that rewritten plans are
// equivalent to the original queries on real data.
//
// Every value has a canonical key (Value.Key), and collections iterate in
// key order. A Set or Dict computes that order once and keeps it: Elems,
// Entries and Domain return shared, read-only results, so repeated scans
// of an installed collection cost O(n) and allocate nothing. Add and Put
// are builders for values not yet shared; once a collection has been
// handed to readers (bound in an instance, nested in a record, returned
// from a query) it must not be mutated. Reading a shared collection from
// many goroutines is safe.
package instance

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Value is a runtime value. Implementations are immutable once built
// (Set and Dict have builder-style Add methods used during construction;
// do not mutate values that have been shared).
type Value interface {
	// Key returns a canonical string encoding, injective on values: two
	// values are equal iff their keys are equal. Used for set membership,
	// dictionary keys and result comparison.
	Key() string
	// String renders the value for humans.
	String() string
}

// AppendKey appends v's canonical key (v.Key()) to b and returns the
// extended buffer. Base values render straight into b and a record
// reuses the key it stored when it was built, so building a record or a
// composite key allocates nothing beyond b's growth. Anything else
// appends its Key(); a collection's Key renders its elements through
// AppendKey, and reaching it only through the Value interface keeps
// AppendKey non-recursive, so a caller's stack buffer stays on the stack.
func AppendKey(b []byte, v Value) []byte {
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
		return append(b, t.key...)
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

func (v Str) appendKey(b []byte) []byte { return strconv.AppendQuote(append(b, 's'), string(v)) }

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

// Struct is a record value with named fields in a fixed order.
type Struct struct {
	names []string
	vals  []Value
	key   string
}

// NewStruct builds a record from field names and values (parallel slices).
// Its key is rendered once, here, into a single buffer.
func NewStruct(names []string, vals []Value) *Struct {
	if len(names) != len(vals) {
		panic("instance: NewStruct field/value length mismatch")
	}
	var buf [256]byte
	b := append(buf[:0], "r{"...)
	for i := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, names[i]...), ':')
		b = AppendKey(b, vals[i])
	}
	b = append(b, '}')
	return &Struct{names: names, vals: vals, key: string(b)}
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

// Key implements Value.
func (s *Struct) Key() string { return s.key }

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

// keyed is one collection element next to its key.
type keyed struct {
	key string
	val Value
}

func compareKeyed(a, b keyed) int { return strings.Compare(a.key, b.key) }

// Set is a finite set of values with set semantics (duplicates collapse).
// It computes its key order on first use and keeps it until the next Add.
type Set struct {
	m     map[string]Value
	order atomic.Pointer[[]Value]
}

// NewSet builds a set from the given elements.
func NewSet(elems ...Value) *Set {
	s := &Set{m: make(map[string]Value, len(elems))}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Add inserts a value (idempotent). Returns the set for chaining. Add is
// for sets under construction: it must not race with readers.
func (s *Set) Add(v Value) *Set {
	s.m[v.Key()] = v
	if s.order.Load() != nil {
		s.order.Store(nil)
	}
	return s
}

// Contains reports membership.
func (s *Set) Contains(v Value) bool {
	_, ok := s.m[v.Key()]
	return ok
}

// Len returns the cardinality.
func (s *Set) Len() int { return len(s.m) }

// Elems returns the elements sorted by key (deterministic iteration).
// The order is computed on the first call and shared by every caller:
// the slice is read-only. Goroutines racing on the first call each sort,
// and one result is kept.
func (s *Set) Elems() []Value {
	if o := s.order.Load(); o != nil {
		return *o
	}
	es := make([]keyed, 0, len(s.m))
	for k, v := range s.m {
		es = append(es, keyed{k, v})
	}
	slices.SortFunc(es, compareKeyed)
	vals := make([]Value, len(es))
	for i, e := range es {
		vals[i] = e.val
	}
	s.order.Store(&vals)
	return vals
}

// FirstN returns the k elements with the smallest keys, in key order:
// exactly Elems()[:min(k, Len())], and all of Elems() when k < 0. Unless
// the key order is already known, a k below Len is answered by a bounded
// max-heap selection over the keys, O(n log k), that neither sorts nor
// caches the whole set. The result is read-only.
func (s *Set) FirstN(k int) []Value {
	if o := s.order.Load(); o != nil || k < 0 || k >= len(s.m) {
		vals := s.Elems()
		if k >= 0 && k < len(vals) {
			vals = vals[:k:k]
		}
		return vals
	}
	if k == 0 {
		return []Value{}
	}
	// h is a max-heap on key holding the k smallest elements seen.
	h := make([]keyed, 0, k)
	for key, v := range s.m {
		if len(h) < k {
			h = append(h, keyed{key, v})
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p].key >= h[i].key {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if key >= h[0].key {
			continue
		}
		h[0] = keyed{key, v}
		for i := 0; ; {
			c := 2*i + 1
			if c >= k {
				break
			}
			if c+1 < k && h[c+1].key > h[c].key {
				c++
			}
			if h[i].key >= h[c].key {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	slices.SortFunc(h, compareKeyed)
	out := make([]Value, len(h))
	for i, e := range h {
		out[i] = e.val
	}
	return out
}

// Equal reports set equality.
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	for k := range s.m {
		if _, ok := t.m[k]; !ok {
			return false
		}
	}
	return true
}

// Key implements Value: the element keys in key order.
func (s *Set) Key() string {
	b := []byte("S[")
	for i, v := range s.Elems() {
		if i > 0 {
			b = append(b, ';')
		}
		b = AppendKey(b, v)
	}
	return string(append(b, ']'))
}

// String implements Value.
func (s *Set) String() string {
	parts := make([]string, 0, s.Len())
	for _, e := range s.Elems() {
		parts = append(parts, e.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

type dictEntry struct {
	k, v Value
}

// Dict is a dictionary: a finite function from keys to values. Like Set,
// it computes its key order (and its domain) on first use and keeps them
// until the next Put.
type Dict struct {
	m     map[string]dictEntry
	order atomic.Pointer[[][2]Value]
	dom   atomic.Pointer[Set]
}

// NewDict builds an empty dictionary.
func NewDict() *Dict { return &Dict{m: map[string]dictEntry{}} }

// Put binds key to val (overwriting). Returns the dict for chaining. Put
// is for dictionaries under construction: it must not race with readers.
func (d *Dict) Put(key, val Value) *Dict {
	d.m[key.Key()] = dictEntry{k: key, v: val}
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
	e, ok := d.m[key.Key()]
	if !ok {
		return nil, false
	}
	return e.v, true
}

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.m) }

// Domain returns dom(d) as a Set. The set is built once, already in key
// order, and shared by every caller: it is read-only.
func (d *Dict) Domain() *Set {
	if s := d.dom.Load(); s != nil {
		return s
	}
	s := &Set{m: make(map[string]Value, len(d.m))}
	for k, e := range d.m {
		s.m[k] = e.k
	}
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
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	es := make([][2]Value, len(keys))
	for i, k := range keys {
		e := d.m[k]
		es[i] = [2]Value{e.k, e.v}
	}
	d.order.Store(&es)
	return es
}

// Key implements Value: the entries in key order.
func (d *Dict) Key() string {
	b := []byte("D[")
	for i, e := range d.Entries() {
		if i > 0 {
			b = append(b, ';')
		}
		b = append(AppendKey(b, e[0]), "->"...)
		b = AppendKey(b, e[1])
	}
	return string(append(b, ']'))
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
