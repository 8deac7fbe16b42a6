package instance

import (
	"hash/maphash"
	"math"
	"slices"
)

// seed keys the string hashes. Hashes are process-local: nothing may
// store them, print them or order output by them.
var seed = maphash.MakeSeed()

// Type tags keep the hashes of equal-looking values of different kinds
// apart (Int(1), Float(1) and Str("1") are never Equal).
const (
	tagInt uint64 = (iota + 1) << 56
	tagFloat
	tagStr
	tagBool
	tagOID
	tagStruct
	tagSet
	tagDict
	tagNaN
)

// mix is the splitmix64 finalizer: a bijective scramble of all 64 bits.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// combine folds x into an ordered hash h.
func combine(h, x uint64) uint64 { return mix(h ^ x + 0x9e3779b97f4a7c15) }

// Hash returns a 64-bit structural hash of v: Equal values hash equal.
// Set and Dict hashes do not depend on insertion order, and a record's
// hash is computed when it is built. The hash is seeded per process, so
// it identifies values within one process only. Values of a type
// outside this package hash by their Key.
func Hash(v Value) uint64 {
	switch t := v.(type) {
	case Int:
		return mix(uint64(t) ^ tagInt)
	case Float:
		f := float64(t)
		if f != f {
			return tagNaN
		}
		return mix(math.Float64bits(f) ^ tagFloat)
	case Str:
		return maphash.String(seed, string(t)) ^ tagStr
	case Bool:
		if t {
			return mix(tagBool + 1)
		}
		return mix(tagBool)
	case OID:
		return combine(maphash.String(seed, t.TypeName)^tagOID, uint64(t.Serial))
	case *Struct:
		return t.hash
	case *Set:
		return t.hashOf()
	case *Dict:
		return t.hashOf()
	}
	return maphash.String(seed, v.Key())
}

// Equal reports whether a and b are the same value: exactly when
// a.Key() == b.Key(), without rendering either key. Floats compare by
// bits, except that every NaN equals every other (so 0 and -0 differ),
// and values of different kinds never compare equal. Values of a type
// outside this package compare by their Key.
func Equal(a, b Value) bool {
	switch x := a.(type) {
	case Int:
		y, ok := b.(Int)
		return ok && x == y
	case Float:
		y, ok := b.(Float)
		return ok && (math.Float64bits(float64(x)) == math.Float64bits(float64(y)) || x != x && y != y)
	case Str:
		y, ok := b.(Str)
		return ok && x == y
	case Bool:
		y, ok := b.(Bool)
		return ok && x == y
	case OID:
		y, ok := b.(OID)
		return ok && x == y
	case *Struct:
		y, ok := b.(*Struct)
		return ok && x.equal(y)
	case *Set:
		y, ok := b.(*Set)
		return ok && x.Equal(y)
	case *Dict:
		y, ok := b.(*Dict)
		return ok && x.equal(y)
	}
	switch b.(type) {
	case Int, Float, Str, Bool, OID, *Struct, *Set, *Dict:
		return false
	}
	return a.Key() == b.Key()
}

// smallTable is the member count up to which an index is searched by a
// linear scan of its hash column; past it, add builds the slot index.
const smallTable = 8

// index is an insertion-ordered column of member hashes with an
// open-addressing slot index over it: slot s holds i+1 for member i, 0
// when empty, and stays at most half full. It stores no members; the
// caller's equality test tells colliding ones apart. Both columns are
// pointer-free, so the collector never scans them.
type index struct {
	hashes []uint64
	slots  []uint32
}

// probe returns the member whose hash is h and for which eq holds, or -1.
func (x *index) probe(h uint64, eq func(i int) bool) int {
	if x.slots == nil {
		for i, y := range x.hashes {
			if y == h && eq(i) {
				return i
			}
		}
		return -1
	}
	mask := uint64(len(x.slots) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		s := x.slots[p]
		if s == 0 {
			return -1
		}
		if i := int(s - 1); x.hashes[i] == h && eq(i) {
			return i
		}
	}
}

// add appends a member whose hash is h and indexes it.
func (x *index) add(h uint64) {
	i := len(x.hashes)
	x.hashes = append(grow(x.hashes), h)
	switch {
	case x.slots != nil && 2*len(x.hashes) <= len(x.slots):
		x.place(i)
	case x.slots != nil || len(x.hashes) > smallTable:
		x.rehash()
	}
}

// table is an insertion-ordered list of distinct values (a set's members
// or a dictionary's keys) found by hash: hashes[i] is Hash(keys[i]).
type table struct {
	index
	keys []Value
}

// find returns the index of the member equal to v, whose hash is h, or -1.
func (t *table) find(v Value, h uint64) int {
	return t.probe(h, func(i int) bool { return Equal(t.keys[i], v) })
}

// insert adds v, whose hash is h, unless an equal member exists, and
// returns the member's index and whether it was added.
func (t *table) insert(v Value, h uint64) (int, bool) {
	if i := t.find(v, h); i >= 0 {
		return i, false
	}
	t.keys = append(grow(t.keys), v)
	t.add(h)
	return len(t.keys) - 1, true
}

// grow doubles a full column's capacity. append grows a large slice by
// only a quarter, which copies a big collection several times more: on
// a 10^5-row query result that is about 6.5 MB more garbage per query.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(4, len(s)))
}

// rehash rebuilds the slot index at twice the member count, rounded up
// to a power of two.
func (x *index) rehash() {
	n := 16
	for n < 2*len(x.hashes) {
		n *= 2
	}
	x.slots = make([]uint32, n)
	for i := range x.hashes {
		x.place(i)
	}
}

// place puts member i in the first free slot of its probe sequence.
func (x *index) place(i int) {
	mask := uint64(len(x.slots) - 1)
	p := x.hashes[i] & mask
	for x.slots[p] != 0 {
		p = (p + 1) & mask
	}
	x.slots[p] = uint32(i + 1)
}

// clone copies the index, so the copy can be shared while x grows.
func (x *index) clone() index {
	return index{
		hashes: append([]uint64(nil), x.hashes...),
		slots:  append([]uint32(nil), x.slots...),
	}
}

// clone copies the table, so the copy can be shared while t grows.
func (t *table) clone() table {
	return table{index: t.index.clone(), keys: append([]Value(nil), t.keys...)}
}

// hashOf is the order-independent hash of the members: a sum of their
// scrambled hashes, which needs no sort.
func (t *table) hashOf(tag uint64) uint64 {
	h := tag + uint64(len(t.keys))
	for _, x := range t.hashes {
		h += mix(x)
	}
	return mix(h)
}
