// Renaming-invariant query canonicalization.
//
// The optimizer's serving story rests on canonical query signatures: they
// key the service's plan table, its stored plans and live flights, so two
// alpha-equivalent queries that canonicalize apart cost a full backchase
// instead of a cache hit. NormalizeBindingOrder therefore must pick the
// same binding order for every member of a query's isomorphism class —
// including adversarial renames that reverse the lexicographic order of
// same-range binding ties, the case a raw-variable-name tie-break gets
// wrong.
//
// The canonical form computed here is exact, never a heuristic:
//
//	CanonicalSignature(q) = min over every dependency-valid binding order
//	                        of Signature(q reordered)
//
// Signature renders positional variable names (b0, b1, ...) and sorts and
// orients conditions, so the minimized string mentions no original
// variable name anywhere — the minimum over orders is invariant under any
// alpha-rename, any binding shuffle, and any condition reorder or flip.
//
// The minimum is found by ordered branch-and-bound over the (dependency-
// valid) orders rather than by enumerating all of them:
//
//   - at each step the candidates (unused bindings whose range variables
//     are all placed) are grouped by their rendered chunk
//     "from bK in <range with placed vars positional>;" — a string that
//     is itself renaming-invariant — and groups are explored in chunk
//     order, so the first descent is greedy-minimal and nearly always
//     optimal;
//   - a branch is abandoned as soon as its rendered prefix can no longer
//     beat the best complete signature found (lexicographic pruning);
//   - residual ties — several candidates with byte-identical chunks, i.e.
//     alpha-equivalent ranges — are first partitioned by iterative
//     WL-style color refinement over the query graph (initial colors from
//     each binding's name-erased range shape, refined by the multiset of
//     neighbor colors through shared variables in bindings, conditions
//     and the output); candidates in distinct color classes cannot be
//     automorphic, and candidates in one class are tested pairwise with
//     an exact variable-swap automorphism check, so symmetric ties (self-
//     joins) collapse to a single branch instead of a factorial search.
//
// Queries with a cyclic binding dependency (invalid per Validate — every
// consumer boundary rejects them) have no dependency-valid order; rather
// than silently returning the input order (which canonicalizes two
// isomorphic invalid queries apart), the search falls back to all unused
// bindings, rendering not-yet-placed variables as an erased placeholder.
// The result is still deterministic and renaming-invariant; it is only no
// longer prefix-prunable, which is acceptable off the validated path.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// CanonicalSignature returns the renaming-invariant canonical signature
// of the query: the minimum of Signature over every dependency-valid
// binding order. Two queries have equal canonical signatures iff they are
// identical up to variable renaming, binding reorder, condition
// reorder/flip/duplication — the equivalence the plan cache and its
// coalesced flights key on. Prefer this over
// NormalizeBindingOrder().Signature(), which performs the same search but
// also materializes the reordered query.
//
// The computation is pure — it never mutates the receiver — so any
// number of goroutines may canonicalize the same Query concurrently,
// which is how the serving layer keys racing requests.
func (q *Query) CanonicalSignature() string {
	_, sig := q.canonicalOrder()
	return sig
}

// NormalizeBindingOrder returns a copy of the query with bindings in the
// canonical order: the dependency-valid order minimizing Signature (see
// CanonicalSignature). The returned query keeps its original variable
// names; only the order changes, so it remains valid whenever the input
// was. Unlike the raw-name tie-break this order is invariant under
// variable renaming: alpha-renamed variants of one query normalize to
// orders that are themselves alpha-equivalent, and their Signatures are
// byte-identical.
func (q *Query) NormalizeBindingOrder() *Query {
	order, _ := q.canonicalOrder()
	out := q.Clone()
	for i, idx := range order {
		out.Bindings[i] = q.Bindings[idx]
	}
	return out
}

// canonPlaceholder renders a not-yet-placed variable inside a candidate
// chunk during the cyclic-residue fallback. The control byte cannot occur
// in a surface variable name, so it collides with nothing.
const canonPlaceholder = "\x01"

// canonicalOrder runs the branch-and-bound search, returning the
// canonical binding order (as indices into q.Bindings) and the canonical
// signature it renders.
func (q *Query) canonicalOrder() ([]int, string) {
	n := len(q.Bindings)
	if n <= 1 {
		order := make([]int, n)
		return order, q.Signature()
	}
	s := &canonSearch{q: q, n: n}
	s.rangeVars = make([][]string, n)
	for i, b := range q.Bindings {
		s.rangeVars[i] = b.Range.SortedVars()
	}
	s.rec(make([]int, 0, n), make([]bool, n), make(map[string]*Term, n), "", true)
	return s.bestOrder, s.best
}

// canonSearch carries the branch-and-bound state.
type canonSearch struct {
	q         *Query
	n         int
	rangeVars [][]string // per binding: sorted variables of its range

	bestSet   bool
	best      string
	bestOrder []int

	colors      []int // WL refinement classes, computed lazily on first tie
	colorsReady bool
}

// rec extends the partial order by one position. rename maps placed
// variables to their positional terms; prefix is the rendered binding
// chunk sequence so far; exact reports that prefix equals the binding
// part of the final Signature for every completion (false only below a
// cyclic-residue fallback, where chunks render placeholders).
func (s *canonSearch) rec(order []int, used []bool, rename map[string]*Term, prefix string, exact bool) {
	d := len(order)
	if d == s.n {
		sig := s.reordered(order).Signature()
		if !s.bestSet || sig < s.best {
			s.bestSet = true
			s.best = sig
			s.bestOrder = append(s.bestOrder[:0], order...)
		}
		return
	}

	// Candidates: unused bindings whose range variables are all placed.
	var avail []int
	for i := range s.q.Bindings {
		if used[i] {
			continue
		}
		ok := true
		for _, v := range s.rangeVars[i] {
			if _, placed := rename[v]; !placed {
				ok = false
				break
			}
		}
		if ok {
			avail = append(avail, i)
		}
	}
	relaxed := false
	if len(avail) == 0 {
		// Cyclic dependency among the remaining bindings (invalid query):
		// canonicalize the residue deterministically instead of giving up.
		relaxed = true
		exact = false
		for i := range s.q.Bindings {
			if !used[i] {
				avail = append(avail, i)
			}
		}
	}

	type cand struct {
		idx   int
		chunk string
	}
	cands := make([]cand, 0, len(avail))
	for _, i := range avail {
		sub := rename
		if relaxed {
			sub = make(map[string]*Term, len(rename)+2)
			for v, t := range rename {
				sub[v] = t
			}
			for _, v := range s.rangeVars[i] {
				if _, placed := sub[v]; !placed {
					sub[v] = V(canonPlaceholder)
				}
			}
		}
		chunk := fmt.Sprintf("from b%d in %s;", d, s.q.Bindings[i].Range.Subst(sub).HashKey())
		cands = append(cands, cand{idx: i, chunk: chunk})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].chunk != cands[b].chunk {
			return cands[a].chunk < cands[b].chunk
		}
		return cands[a].idx < cands[b].idx
	})

	for g := 0; g < len(cands); {
		h := g
		for h < len(cands) && cands[h].chunk == cands[g].chunk {
			h++
		}
		p := prefix + cands[g].chunk
		if exact && s.prunable(p) {
			g = h
			continue
		}
		// Branch over the tie group, skipping candidates interchangeable
		// with an already-explored one (variable-swap automorphism —
		// their subtrees render identical signatures).
		var explored []int
		for _, c := range cands[g:h] {
			skip := false
			for _, e := range explored {
				if s.interchangeable(e, c.idx, used, relaxed) {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			explored = append(explored, c.idx)
			v := s.q.Bindings[c.idx].Var
			used[c.idx] = true
			rename[v] = V("b" + strconv.Itoa(d))
			s.rec(append(order, c.idx), used, rename, p, exact)
			delete(rename, v)
			used[c.idx] = false
		}
		g = h
	}
}

// prunable reports that no completion of the rendered prefix p can beat
// the best complete signature: either p already exceeds best on their
// common prefix, or p extends past best without differing (a longer
// string with best as prefix compares greater).
func (s *canonSearch) prunable(p string) bool {
	if !s.bestSet {
		return false
	}
	if len(p) <= len(s.best) {
		return p > s.best[:len(p)]
	}
	return p[:len(s.best)] >= s.best
}

// reordered materializes the candidate order without copying conditions.
func (s *canonSearch) reordered(order []int) *Query {
	nb := make([]Binding, len(order))
	for i, idx := range order {
		nb[i] = s.q.Bindings[idx]
	}
	return &Query{Out: s.q.Out, Bindings: nb, Conds: s.q.Conds}
}

// interchangeable reports that exploring candidate j after candidate i is
// redundant: swapping their variables is an automorphism of the whole
// query, so every completion starting with j has a mirror completion
// starting with i rendering the same signature. WL colors gate the exact
// check — distinct colors mean provably no automorphism. In the relaxed
// (cyclic-residue) mode the mirror argument additionally requires the
// already-placed prefix to be fixed by the swap, i.e. no placed binding's
// range may mention either variable; on the dependency-valid path that
// holds by construction (placed ranges mention only placed variables).
func (s *canonSearch) interchangeable(i, j int, used []bool, relaxed bool) bool {
	if !s.colorsReady {
		s.colors = s.q.refineBindingColors()
		s.colorsReady = true
	}
	if s.colors[i] != s.colors[j] {
		return false
	}
	vi, vj := s.q.Bindings[i].Var, s.q.Bindings[j].Var
	if relaxed {
		for k := range s.q.Bindings {
			if used[k] && (s.q.Bindings[k].Range.MentionsVar(vi) || s.q.Bindings[k].Range.MentionsVar(vj)) {
				return false
			}
		}
	}
	return s.q.swapIsAutomorphism(vi, vj)
}

// swapIsAutomorphism reports whether exchanging the two variables maps
// the query onto itself: every binding's range maps to the range of the
// swapped variable's binding, the condition multiset (up to flip) is
// preserved, and the output is fixed.
func (q *Query) swapIsAutomorphism(a, b string) bool {
	sub := map[string]*Term{a: V(b), b: V(a)}
	rangeOf := make(map[string]*Term, len(q.Bindings))
	for _, bd := range q.Bindings {
		rangeOf[bd.Var] = bd.Range
	}
	for _, bd := range q.Bindings {
		tv := bd.Var
		switch tv {
		case a:
			tv = b
		case b:
			tv = a
		}
		r, ok := rangeOf[tv]
		if !ok || !r.Equal(bd.Range.Subst(sub)) {
			return false
		}
	}
	if !q.Out.Subst(sub).Equal(q.Out) {
		return false
	}
	// Condition multisets compared through orientation-normalized keys so
	// duplicated conditions cannot fake a bijection.
	condKey := func(c Cond) string {
		l, r := c.L.HashKey(), c.R.HashKey()
		if l > r {
			l, r = r, l
		}
		return l + "=" + r
	}
	orig := make([]string, len(q.Conds))
	img := make([]string, len(q.Conds))
	for i, c := range q.Conds {
		orig[i] = condKey(c)
		img[i] = condKey(Cond{L: c.L.Subst(sub), R: c.R.Subst(sub)})
	}
	sort.Strings(orig)
	sort.Strings(img)
	for i := range orig {
		if orig[i] != img[i] {
			return false
		}
	}
	return true
}

// ShapeKey returns a 64-bit hash of the query's renaming-invariant shape:
// the binding count, the multiset of the bindings' name-erased range
// shapes, the set of its distinct conditions' name-erased shapes and the
// output's name-erased shape. A name-erased shape keeps schema names,
// constants, projected and struct field names and lookup kinds, and
// renders every variable alike. Queries with equal CanonicalSignatures
// have equal shape keys, so a key no other query has proves a query
// isomorphic to none; equal keys prove nothing, and only
// CanonicalSignature decides them. Conditions are deduplicated as
// Signature deduplicates them, by structural equality up to flipping
// their sides, and each side pair is hashed symmetrically: a
// duplicated, reordered or flipped condition leaves the key unchanged.
// The multisets are order-free sums of mixed hashes, so the key needs
// no sort and allocates nothing.
func (q *Query) ShapeKey() uint64 {
	var ranges uint64
	for _, b := range q.Bindings {
		ranges += shapeMix(termShape(shapeSeed, b.Range))
	}
	var conds uint64
	for i, c := range q.Conds {
		if slices.ContainsFunc(q.Conds[:i], c.sameUpToFlip) {
			continue
		}
		conds += shapeMix(shapeMix(termShape(shapeSeed, c.L)) + shapeMix(termShape(shapeSeed, c.R)))
	}
	h := shapeCombine(shapeSeed, uint64(len(q.Bindings)))
	h = shapeCombine(h, ranges)
	h = shapeCombine(h, conds)
	return termShape(h, q.Out)
}

// sameUpToFlip reports whether d is c or c with its sides swapped, in
// the structural equality that Signature's rendered keys decide.
func (c Cond) sameUpToFlip(d Cond) bool {
	return sameKey(c.L, d.L) && sameKey(c.R, d.R) || sameKey(c.L, d.R) && sameKey(c.R, d.L)
}

// sameKey reports whether t and u have equal HashKeys without rendering
// them: Equal, except that constants compare as HashKey renders them,
// every NaN alike and 0 apart from -0.
func sameKey(t, u *Term) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case KVar, KName:
		return t.Name == u.Name
	case KConst:
		x, ok1 := t.Val.(float64)
		y, ok2 := u.Val.(float64)
		if ok1 && ok2 {
			return math.Float64bits(x) == math.Float64bits(y) || x != x && y != y
		}
		return t.Val == u.Val
	case KProj:
		return t.Name == u.Name && sameKey(t.Base, u.Base)
	case KDom:
		return sameKey(t.Base, u.Base)
	case KLookup:
		return t.NonFailing == u.NonFailing && sameKey(t.Base, u.Base) && sameKey(t.Key, u.Key)
	case KStruct:
		if len(t.Fields) != len(u.Fields) {
			return false
		}
		for i := range t.Fields {
			if t.Fields[i].Name != u.Fields[i].Name || !sameKey(t.Fields[i].Term, u.Fields[i].Term) {
				return false
			}
		}
		return true
	}
	return false
}

// The FNV-1a 64-bit offset basis and prime.
const (
	shapeSeed  uint64 = 14695981039346656037
	shapePrime uint64 = 1099511628211
)

// Shape hash tags: one per term kind and constant type.
const (
	shapeTagNil uint64 = iota
	shapeTagVar
	shapeTagName
	shapeTagProj
	shapeTagDom
	shapeTagLookup
	shapeTagLookupNF
	shapeTagStruct
	shapeTagInt
	shapeTagFloat
	shapeTagString
	shapeTagBool
)

// shapeMix is the splitmix64 finalizer: every input bit reaches every
// output bit.
func shapeMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// shapeCombine folds x into h.
func shapeCombine(h, x uint64) uint64 {
	return (h ^ shapeMix(x)) * shapePrime
}

// shapeString folds s, length first, into h byte by byte (FNV-1a).
func shapeString(h uint64, s string) uint64 {
	h = shapeCombine(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * shapePrime
	}
	return h
}

// termShape folds t's name-erased shape into h. A constant is hashed by
// type and value, with every NaN alike, because HashKey renders every
// NaN alike.
func termShape(h uint64, t *Term) uint64 {
	if t == nil {
		return shapeCombine(h, shapeTagNil)
	}
	switch t.Kind {
	case KVar:
		return shapeCombine(h, shapeTagVar)
	case KName:
		return shapeString(shapeCombine(h, shapeTagName), t.Name)
	case KConst:
		switch v := t.Val.(type) {
		case int64:
			return shapeCombine(shapeCombine(h, shapeTagInt), uint64(v))
		case float64:
			if v != v {
				v = math.NaN()
			}
			return shapeCombine(shapeCombine(h, shapeTagFloat), math.Float64bits(v))
		case string:
			return shapeString(shapeCombine(h, shapeTagString), v)
		case bool:
			b := uint64(0)
			if v {
				b = 1
			}
			return shapeCombine(shapeCombine(h, shapeTagBool), b)
		}
	case KProj:
		return shapeString(termShape(shapeCombine(h, shapeTagProj), t.Base), t.Name)
	case KDom:
		return termShape(shapeCombine(h, shapeTagDom), t.Base)
	case KLookup:
		tag := shapeTagLookup
		if t.NonFailing {
			tag = shapeTagLookupNF
		}
		return termShape(termShape(shapeCombine(h, tag), t.Base), t.Key)
	case KStruct:
		h = shapeCombine(shapeCombine(h, shapeTagStruct), uint64(len(t.Fields)))
		for _, f := range t.Fields {
			h = termShape(shapeString(h, f.Name), f.Term)
		}
	}
	return h
}

// refineBindingColors partitions the bindings by iterative WL-style color
// refinement over the query graph and returns one color id per binding.
// Equal colors mean refinement cannot distinguish the bindings; distinct
// colors certify that no automorphism maps one to the other. The
// partition is invariant under variable renaming and binding reorder:
// initial colors come from each binding's name-erased range shape (schema
// names, constants, struct field lists — the same rigid skeleton
// FeatureKeys extracts), and each round refines by the multiset of
// neighbor colors through shared variables in binding ranges, conditions
// and the output, with every rendering erased of variable names.
func (q *Query) refineBindingColors() []int {
	n := len(q.Bindings)
	owner := make(map[string]int, n)
	for i, b := range q.Bindings {
		owner[b.Var] = i
	}
	// colorTerm renders variable v inside a neighbor signature: the
	// binding's own variable becomes a fixed self marker, every other
	// bound variable its owner's current color, free variables (invalid
	// queries only) an erased placeholder.
	colorTerm := func(colors []int, self string, v string) *Term {
		if v == self {
			return V("\x01self")
		}
		if o, ok := owner[v]; ok {
			return V("\x02c" + strconv.Itoa(colors[o]))
		}
		return V(canonPlaceholder)
	}
	subFor := func(colors []int, self string, vars map[string]bool) map[string]*Term {
		sub := make(map[string]*Term, len(vars))
		for v := range vars {
			sub[v] = colorTerm(colors, self, v)
		}
		return sub
	}

	// Initial partition: name-erased range shape (every variable rendered
	// as the same placeholder).
	sigs := make([]string, n)
	for i, b := range q.Bindings {
		sub := make(map[string]*Term)
		for v := range b.Range.Vars() {
			sub[v] = V(canonPlaceholder)
		}
		sigs[i] = b.Range.Subst(sub).HashKey()
	}
	colors, distinct := compactColors(sigs)

	for round := 0; round < n && distinct < n; round++ {
		for i, b := range q.Bindings {
			self := b.Var
			var sb strings.Builder
			fmt.Fprintf(&sb, "c%d", colors[i])
			// Own range with neighbor colors.
			sb.WriteString("|r:")
			sb.WriteString(b.Range.Subst(subFor(colors, self, b.Range.Vars())).HashKey())
			// Bindings whose range mentions this binding's variable.
			var uses []string
			for j, bj := range q.Bindings {
				if j != i && bj.Range.MentionsVar(self) {
					uses = append(uses,
						bj.Range.Subst(subFor(colors, self, bj.Range.Vars())).HashKey()+
							":c"+strconv.Itoa(colors[j]))
				}
			}
			sort.Strings(uses)
			sb.WriteString("|u:")
			sb.WriteString(strings.Join(uses, ";"))
			// Conditions mentioning this binding's variable, orientation-
			// normalized.
			var conds []string
			for _, c := range q.Conds {
				if !c.L.MentionsVar(self) && !c.R.MentionsVar(self) {
					continue
				}
				vars := c.L.Vars()
				for v := range c.R.Vars() {
					vars[v] = true
				}
				sub := subFor(colors, self, vars)
				l := c.L.Subst(sub).HashKey()
				r := c.R.Subst(sub).HashKey()
				if l > r {
					l, r = r, l
				}
				conds = append(conds, l+"="+r)
			}
			sort.Strings(conds)
			sb.WriteString("|k:")
			sb.WriteString(strings.Join(conds, ";"))
			// Output, when it mentions this binding's variable.
			if q.Out.MentionsVar(self) {
				sb.WriteString("|o:")
				sb.WriteString(q.Out.Subst(subFor(colors, self, q.Out.Vars())).HashKey())
			}
			sigs[i] = sb.String()
		}
		next, nd := compactColors(sigs)
		if nd == distinct {
			break
		}
		colors, distinct = next, nd
	}
	return colors
}

// compactColors maps the signature strings to dense color ids ordered by
// signature, returning the ids and the number of distinct colors. Sorting
// the invariant signature strings keeps the ids themselves invariant.
func compactColors(sigs []string) ([]int, int) {
	uniq := append([]string(nil), sigs...)
	sort.Strings(uniq)
	id := make(map[string]int, len(uniq))
	for _, s := range uniq {
		if _, ok := id[s]; !ok {
			id[s] = len(id)
		}
	}
	out := make([]int, len(sigs))
	for i, s := range sigs {
		out[i] = id[s]
	}
	return out, len(id)
}
