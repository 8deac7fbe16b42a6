package congruence

import (
	"math/bits"
	"sort"
	"strings"

	"cnb/internal/core"
)

// Features numbers a finite universe of feature keys (see
// core.FeatureKeys): in practice the premise features of one dependency
// index. A closure tracking features over a universe keeps, per class, a
// bitset of the universe keys its members carry; keys outside the
// universe are dropped, since no dependency is indexed under them.
// Immutable after NewFeatures and safe for concurrent use.
type Features struct {
	keys  []string
	bit   map[string]int // full key -> bit
	proj  map[string]int // field F -> bit of ".F"
	names map[string]int // schema name N -> bit of "!N"
	// varBit, domBit and lookupBit are the bits of core.FeatVar,
	// core.FeatDom and core.FeatLookup, or -1 outside the universe.
	varBit, domBit, lookupBit int
	words                     int
}

// NewFeatures numbers the keys in sorted order (duplicates collapse).
func NewFeatures(keys []string) *Features {
	ks := append([]string(nil), keys...)
	sort.Strings(ks)
	u := &Features{
		bit:    map[string]int{},
		proj:   map[string]int{},
		names:  map[string]int{},
		varBit: -1, domBit: -1, lookupBit: -1,
	}
	for _, k := range ks {
		if _, dup := u.bit[k]; dup {
			continue
		}
		b := len(u.keys)
		u.keys = append(u.keys, k)
		u.bit[k] = b
		switch {
		case k == core.FeatVar:
			u.varBit = b
		case k == core.FeatDom:
			u.domBit = b
		case k == core.FeatLookup:
			u.lookupBit = b
		case strings.HasPrefix(k, "."):
			u.proj[k[1:]] = b
		case strings.HasPrefix(k, "!"):
			u.names[k[1:]] = b
		}
	}
	u.words = (len(u.keys) + 63) / 64
	return u
}

// Len returns the number of keys in the universe.
func (u *Features) Len() int { return len(u.keys) }

// Key returns the feature key numbered bit.
func (u *Features) Key(bit int) string { return u.keys[bit] }

// TermBits returns the bitset of t's feature keys within the universe.
func (u *Features) TermBits(t *core.Term) FeatureSet {
	s := make(FeatureSet, u.words)
	for k := range t.FeatureKeys() {
		if b, ok := u.bit[k]; ok {
			s.set(b)
		}
	}
	return s
}

// FeatureSet is a bitset over a Features universe.
type FeatureSet []uint64

func (s FeatureSet) set(b int) {
	if b >= 0 {
		s[b/64] |= 1 << uint(b%64)
	}
}

func (s FeatureSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Each calls f for every set bit, in ascending order.
func (s FeatureSet) Each(f func(bit int)) {
	for i, w := range s {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			f(i*64 + t)
			w &= w - 1
		}
	}
}

func (s FeatureSet) or(o FeatureSet) {
	for i := range o {
		s[i] |= o[i]
	}
}

// featureState is a closure's feature tracking: per-node and per-class
// bitsets, flat with words uint64s per entry.
type featureState struct {
	u     *Features
	words int
	// node holds each node's features as a subterm (a bare variable has
	// none; it carries FeatVar only as a whole term, see core.FeatureKeys).
	node []uint64
	// class holds, per class representative, the union of its members'
	// features as whole terms, plus what AddClassFeatures recorded.
	class []uint64
	// touched accumulates the features of every class changed by a union
	// since the last TakeTouched.
	touched FeatureSet
}

func (f *featureState) clone() *featureState {
	return &featureState{
		u:       f.u,
		words:   f.words,
		node:    append([]uint64(nil), f.node...),
		class:   append([]uint64(nil), f.class...),
		touched: append(FeatureSet(nil), f.touched...),
	}
}

func (f *featureState) nodeBits(id int) FeatureSet {
	return f.node[id*f.words : (id+1)*f.words]
}

func (f *featureState) classBits(rep int) FeatureSet {
	return f.class[rep*f.words : (rep+1)*f.words]
}

// noteNode computes the features of node id (whose children are noted
// already) and adds them to its class.
func (f *featureState) noteNode(c *Closure, id int) {
	for len(f.node) < (id+1)*f.words {
		f.node = append(f.node, 0)
		f.class = append(f.class, 0)
	}
	n := &c.nodes[id]
	t := n.term
	own := f.nodeBits(id)
	u := f.u
	switch t.Kind {
	case core.KConst:
		if b, ok := u.bit[t.HashKey()]; ok {
			own.set(b)
		}
	case core.KName:
		if b, ok := u.names[t.Name]; ok {
			own.set(b)
		}
	case core.KProj, core.KDom, core.KLookup:
		if t.Base.Root().Kind == core.KVar {
			switch t.Kind {
			case core.KProj:
				if b, ok := u.proj[t.Name]; ok {
					own.set(b)
				}
			case core.KDom:
				own.set(u.domBit)
			default:
				own.set(u.lookupBit)
			}
		}
	case core.KStruct:
		if b, ok := u.bit[n.op]; ok {
			own.set(b)
		}
	}
	for _, a := range n.args {
		own.or(f.nodeBits(a))
	}
	cls := f.classBits(c.find(id))
	cls.or(own)
	if t.Kind == core.KVar {
		cls.set(u.varBit)
	}
}

// union records the merge of class rb into ra.
func (f *featureState) union(ra, rb int) {
	dst, src := f.classBits(ra), f.classBits(rb)
	for i := range dst {
		f.touched[i] |= dst[i] | src[i]
		dst[i] |= src[i]
		src[i] = 0
	}
}

// TrackFeatures enables union feature logging over the universe: from
// now on every union records the features of both merged classes into a
// touched set that TakeTouched drains. Existing nodes are indexed
// retroactively, so enabling on a populated closure is sound. Used by
// the incremental chase to decide which dependencies a chase step may
// have (re-)enabled; see core.FeatureKeys for why these sets
// over-approximate "which premise shapes may newly match".
func (c *Closure) TrackFeatures(u *Features) {
	if c.feats != nil {
		return
	}
	c.mustBeMutable("TrackFeatures")
	c.feats = &featureState{
		u:       u,
		words:   u.words,
		node:    make([]uint64, len(c.nodes)*u.words),
		class:   make([]uint64, len(c.nodes)*u.words),
		touched: make(FeatureSet, u.words),
	}
	for id := range c.nodes {
		c.feats.noteNode(c, id)
	}
}

// TakeTouched returns the features of every class changed by a union
// since the last call and resets the set. Returns nil while feature
// tracking is disabled or when nothing was touched.
func (c *Closure) TakeTouched() FeatureSet {
	if c.feats == nil || c.feats.touched.empty() {
		return nil
	}
	t := c.feats.touched
	c.feats.touched = make(FeatureSet, c.feats.words)
	return t
}

// ClassFeatures returns the recorded features of the term's whole
// congruence class: the union of the features of every interned member
// and of every term AddClassFeatures recorded for it. Returns nil when
// feature tracking is disabled or the term has not been interned. The
// returned set is live internal state: callers must treat it as
// read-only and must not retain it across mutations of the closure.
//
// The incremental chase consults this when a new binding is appended:
// premise membership tests compare ranges up to congruence, so the
// binding can wake up any dependency whose premise shape occurs anywhere
// in the range's class, not only dependencies matching the range's own
// syntactic shape.
func (c *Closure) ClassFeatures(t *core.Term) FeatureSet {
	if c.feats == nil {
		return nil
	}
	id, ok := c.byKey[t.HashKey()]
	if !ok {
		return nil
	}
	return c.feats.classBits(c.find(id))
}

// AddClassFeatures records features of a term that was resolved to the
// class of node id without being interned (see Lookup), so that unions
// of that class log them as if the term were a member. A no-op while
// feature tracking is disabled.
func (c *Closure) AddClassFeatures(id int, s FeatureSet) {
	if c.feats == nil {
		return
	}
	c.feats.classBits(c.find(id)).or(s)
}
