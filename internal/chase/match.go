package chase

import (
	"cnb/internal/congruence"
	"cnb/internal/core"
)

// mode says what a search does with a transported term the closure has
// no node for.
type mode uint8

const (
	// modePure is read-only: a missing term gets a virtual id from the
	// search's probe, and an ambiguous projection (see
	// congruence.Ambiguous) voids the search, whose caller reruns it on a
	// private clone in modeLookup. The containment tests run this way, so
	// they change neither Len nor Version of the closure they read.
	modePure mode = iota
	// modeLookup is modePure that interns an ambiguous projection's term
	// instead of voiding: the chase's conclusion tests, on the chase's
	// own closure.
	modeLookup
	// modeIntern interns every transported term whose signature has no
	// node yet, and adds the source's features to the class of every
	// compound term it resolves without interning: the chase's premise
	// searches, whose terms the incremental engine's wake-up argument
	// needs in the closure (incremental.go, item 2).
	modeIntern
)

// search is one homomorphism search of compiled atoms and conditions
// into a canonical database. A homomorphism under search is a slot
// assignment: each slot holds a node id (or a virtual id) of the value
// its variable maps to, and the target binding it was matched to.
type search struct {
	cn    *Canon
	p     *program
	atoms []atom
	conds []pcond
	bits  []congruence.FeatureSet // modeIntern: premise node features, or nil
	mode  mode
	probe congruence.Probe

	val  []int        // slot -> node id (or virtual id) of its value
	tgt  []int        // slot -> target binding index, or -1 when set by init
	set  []bool       // slot -> assigned
	init []*core.Term // slot -> init term (slots set by init only)
	// checkAt is, per condition, the level whose assignments first make
	// it checkable; len(atoms) means at the leaf (see schedule).
	checkAt []int

	// deltaStart >= 0 restricts the search to homomorphisms using at
	// least one target binding of index >= deltaStart (see premiseSearch).
	deltaStart int
	tested     int64
	// void is set when a modePure search met an ambiguous lookup; its
	// outcome must be discarded.
	void bool

	// What a complete homomorphism does (see leaf).
	leafDo leafAction
	dp     *depProg           // leafPremise: the dependency searched
	found  Hom                // leafPremise: the first inapplicable homomorphism
	hit    bool               // leafConclusion, leafQuery: a homomorphism was found
	out    int                // leafQuery: the compiled output's node
	outID  int                // leafQuery: the target output's node or virtual id
	fn     func(*search) bool // leafFunc, leafQuery: the caller's visitor, or nil
	child  *search            // leafPremise: the reused conclusion search

	slotBuf [2 * inlineSlots]int
	setBuf  [inlineSlots]bool
}

// inlineSlots is the number of slots a search holds without allocating
// beyond itself.
const inlineSlots = 8

// leafAction is what a search does with each complete homomorphism.
type leafAction uint8

const (
	// leafFunc calls fn.
	leafFunc leafAction = iota
	// leafPremise tests the premise homomorphism's conclusion and stops
	// at the first that does not extend, recording it in found.
	leafPremise
	// leafConclusion records a conclusion extension and stops.
	leafConclusion
	// leafQuery checks the output match; on a match it records hit and
	// stops, or calls fn when set.
	leafQuery
)

// spareSearch prepares a search over a program with every slot unset,
// reusing *spare, a search object the canon keeps for one call site.
func (cn *Canon) spareSearch(spare **search, p *program, atoms []atom, conds []pcond, m mode) *search {
	if *spare == nil {
		*spare = &search{}
	}
	(*spare).reset(cn, p, atoms, conds, m)
	return *spare
}

// reset reinitializes s for a search with every slot unset, keeping its
// conclusion search and its probe's storage.
func (s *search) reset(cn *Canon, p *program, atoms []atom, conds []pcond, m mode) {
	n := len(p.vars)
	child, probe := s.child, s.probe
	*s = search{cn: cn, p: p, atoms: atoms, conds: conds, mode: m, deltaStart: -1, child: child, probe: probe}
	s.probe.Reset(cn.CC)
	if n <= inlineSlots {
		s.val, s.tgt, s.init = s.slotBuf[:n], s.slotBuf[inlineSlots:inlineSlots+n], nil
		s.set = s.setBuf[:n]
	} else {
		ints := make([]int, 2*n)
		s.val, s.tgt, s.set = ints[:n], ints[n:], make([]bool, n)
	}
}

// assignInit sets the slots of an init homomorphism's variables.
func (s *search) assignInit(init Hom) {
	if len(init) == 0 {
		return
	}
	s.init = make([]*core.Term, len(s.set))
	for slot, v := range s.p.vars {
		t, ok := init[v]
		if !ok {
			continue
		}
		s.set[slot], s.tgt[slot], s.init[slot] = true, -1, t
		s.val[slot] = s.termID(t)
	}
}

// termID resolves a whole term: its node when interned, else (by mode)
// its interned node or a probe id.
func (s *search) termID(t *core.Term) int {
	if id, ok := s.cn.CC.ID(t); ok {
		return id
	}
	if s.mode == modeIntern {
		return s.cn.CC.Add(t)
	}
	id, ok := s.probeTerm(t)
	if !ok {
		if s.mode == modePure {
			s.void = true
			return -1
		}
		id = s.internTerm(t)
	}
	return id
}

// probeTerm evaluates a term structurally through the probe.
func (s *search) probeTerm(t *core.Term) (int, bool) {
	switch t.Kind {
	case core.KVar, core.KConst, core.KName:
		return s.probe.Leaf(t), true
	}
	var kids []*core.Term
	switch t.Kind {
	case core.KProj, core.KDom:
		kids = []*core.Term{t.Base}
	case core.KLookup:
		kids = []*core.Term{t.Base, t.Key}
	case core.KStruct:
		for _, f := range t.Fields {
			kids = append(kids, f.Term)
		}
	}
	args := make([]int, len(kids))
	for i, k := range kids {
		a, ok := s.probeTerm(k)
		if !ok {
			return 0, false
		}
		args[i] = a
	}
	return s.probe.Apply(congruence.OpOf(t), args)
}

// internTerm interns t into the live closure and starts a fresh probe:
// virtual ids handed out before may now name real classes.
func (s *search) internTerm(t *core.Term) int {
	id := s.cn.CC.Add(t)
	s.probe.Reset(s.cn.CC)
	return id
}

// rep returns the current class of a node id; virtual ids are their own
// class.
func (s *search) rep(id int) int {
	if id < 0 {
		return id
	}
	return s.cn.CC.Find(id)
}

// eval returns the class (or virtual id) of pattern node i under the
// current slot assignment. miss reports that modeIntern met a term with
// no node; ok=false that another mode met an ambiguous projection.
func (s *search) eval(i int) (id int, miss, ok bool) {
	n := &s.p.nodes[i]
	if n.slot >= 0 && s.set[n.slot] {
		return s.rep(s.val[n.slot]), false, true
	}
	if len(n.args) == 0 {
		if s.mode == modeIntern {
			r, found := s.cn.CC.LookupLeaf(n.term)
			return r, !found, true
		}
		return s.probe.Leaf(n.term), false, true
	}
	var buf [4]int
	args := buf[:0]
	for _, a := range n.args {
		r, miss, ok := s.eval(a)
		if miss || !ok {
			return 0, miss, ok
		}
		args = append(args, r)
	}
	if s.mode == modeIntern {
		r, st := s.cn.CC.Lookup(s.p.ops[n.op], args)
		if st != congruence.Hit {
			return 0, true, true
		}
		if s.bits != nil && s.bits[i] != nil {
			s.cn.CC.AddClassFeatures(r, s.bits[i])
		}
		return r, false, true
	}
	r, ok := s.probe.Apply(s.p.ops[n.op], args)
	return r, false, ok
}

// evalTop resolves pattern node i, the whole of a tested term: a term
// modeIntern cannot resolve is interned, as is an ambiguous projection in
// modeLookup. ok=false means a modePure search is void.
func (s *search) evalTop(i int) (int, bool) {
	r, miss, ok := s.eval(i)
	switch {
	case miss:
		return s.cn.CC.Find(s.cn.CC.Add(s.materialize(i))), true
	case !ok && s.mode == modeLookup:
		return s.cn.CC.Find(s.internTerm(s.materialize(i))), true
	case !ok:
		s.void = true
		return 0, false
	}
	return r, true
}

// materialize builds the transported term of pattern node i: the source
// subterm with every assigned slot variable replaced by its value.
func (s *search) materialize(i int) *core.Term {
	n := &s.p.nodes[i]
	if !n.hasSlot {
		return n.term
	}
	if n.slot >= 0 {
		if !s.set[n.slot] {
			return n.term
		}
		return s.value(n.slot)
	}
	t := n.term
	switch t.Kind {
	case core.KProj:
		return core.Prj(s.materialize(n.args[0]), t.Name)
	case core.KDom:
		return core.Dom(s.materialize(n.args[0]))
	case core.KLookup:
		return &core.Term{Kind: core.KLookup, Base: s.materialize(n.args[0]), Key: s.materialize(n.args[1]), NonFailing: t.NonFailing}
	}
	fs := make([]core.StructField, len(t.Fields))
	for k, f := range t.Fields {
		fs[k] = core.StructField{Name: f.Name, Term: s.materialize(n.args[k])}
	}
	return core.Struct(fs...)
}

// value returns the term an assigned slot maps to.
func (s *search) value(slot int) *core.Term {
	if ti := s.tgt[slot]; ti >= 0 {
		return s.cn.CC.Term(s.cn.varNode[ti])
	}
	return s.init[slot]
}

// hom materializes the current assignment as a Hom.
func (s *search) hom() Hom {
	h := make(Hom, len(s.set))
	for slot, ok := range s.set {
		if ok {
			h[s.p.vars[slot]] = s.value(slot)
		}
	}
	return h
}

// holds reports whether compiled condition c holds under the current
// assignment.
func (s *search) holds(c *pcond) bool {
	l, ok := s.evalTop(c.l)
	if !ok {
		return false
	}
	r, ok := s.evalTop(c.r)
	if !ok {
		return false
	}
	// Interning the right side may have merged classes.
	return s.rep(l) == s.rep(r)
}

// schedule places each condition at the first level where every slot it
// mentions is assigned and the level assigns a target (pre-assigned
// levels test membership only), or at the leaf; preset lists the slots
// assigned before the search starts. Conditions that hold keep holding
// as the closure grows, so one check per condition decides what
// re-checking it at every later level would.
func schedule(atoms []atom, conds []pcond, nslots int, preset []bool) []int {
	if len(conds) == 0 {
		return nil
	}
	n := len(atoms)
	// at[slot] is the level assigning the slot: -1 when preset, n when no
	// atom binds it.
	at := make([]int, nslots)
	for slot := range at {
		at[slot] = n
		if preset != nil && preset[slot] {
			at[slot] = -1
		}
	}
	// free[i] reports that level i assigns a target.
	free := make([]bool, n)
	for i, a := range atoms {
		if at[a.slot] == n {
			at[a.slot] = i
			free[i] = true
		}
	}
	checkAt := make([]int, len(conds))
	for ci, c := range conds {
		lvl := n
		if !c.free {
			lvl = 0
			for _, slot := range c.slots {
				if at[slot] > lvl {
					lvl = at[slot]
				}
			}
		}
		for lvl < n && !free[lvl] {
			lvl++
		}
		checkAt[ci] = lvl
	}
	return checkAt
}

// condsAt checks the conditions scheduled at level i.
func (s *search) condsAt(i int) bool {
	for ci := range s.checkAt {
		if s.checkAt[ci] == i && !s.holds(&s.conds[ci]) {
			return false
		}
	}
	return true
}

// run enumerates homomorphisms, handing each to leaf until it stops the
// search, and charges the membership tests to the canon's metrics.
// checkAt is the schedule of the conditions, or nil to compute it from
// the slots set now.
func (s *search) run(checkAt []int) {
	if checkAt == nil {
		checkAt = schedule(s.atoms, s.conds, len(s.set), s.set)
	}
	s.checkAt = checkAt
	s.rec(0, false)
	if s.cn.Metrics != nil && s.tested > 0 {
		s.cn.Metrics.HomTests.Add(s.tested)
	}
}

// rec searches level i; it returns true to stop the search.
func (s *search) rec(i int, usedDelta bool) bool {
	if s.void {
		return true
	}
	if i == len(s.atoms) {
		if s.deltaStart >= 0 && !usedDelta {
			return false
		}
		if !s.condsAt(i) {
			return s.void
		}
		return s.leaf()
	}
	a := s.atoms[i]
	cn := s.cn
	nb := len(cn.Q.Bindings)
	if s.set[a.slot] {
		// Variable pre-assigned by init (or by an earlier level when the
		// source repeats a variable): verify membership — some target
		// binding must have a congruent range and a congruent variable. A
		// witness at a delta index counts as delta use: if the first
		// witness is old, the homomorphism existed at the last exhausted
		// search and skipping it stays sound; if only a delta binding
		// witnesses the membership, the homomorphism is new.
		if nb == 0 {
			return false
		}
		want, ok := s.evalTop(a.rng)
		if !ok {
			return true
		}
		got := s.val[a.slot]
		witness := -1
		for ti := 0; ti < nb; ti++ {
			s.tested++
			if s.rep(cn.rangeNode[ti]) == s.rep(want) && s.rep(cn.varNode[ti]) == s.rep(got) {
				witness = ti
				break
			}
		}
		if witness < 0 {
			return false
		}
		return s.rec(i+1, usedDelta || (s.deltaStart >= 0 && witness >= s.deltaStart))
	}
	// On the last level of a delta-restricted search a homomorphism that
	// has not yet used a delta binding can only complete through one, so
	// older targets are skipped wholesale.
	first := 0
	if s.deltaStart >= 0 && !usedDelta && i == len(s.atoms)-1 {
		first = s.deltaStart
	}
	want, ok := s.evalTop(a.rng)
	if !ok {
		return true
	}
	// Seeded scan: only the targets whose range class matches want's,
	// looked up in the class-keyed index, instead of backtracking over the
	// whole canonical database. Descending into a candidate can merge
	// classes (a premise search interns transported terms), which may
	// make further targets congruent to want — exactly what the naive
	// re-resolving scan would observe — so a version bump mid-level falls
	// back to the linear scan for the remaining positions.
	linearFrom := 0
	if !cn.linearScan {
		reps, rebuildCost := cn.targetReps()
		s.tested += rebuildCost
		ver := cn.CC.Version()
		linearFrom = nb
		for ti := first; ti < nb; ti++ {
			if reps[ti] != want {
				continue
			}
			s.tested++
			if s.try(i, a.slot, ti, usedDelta) {
				return true
			}
			if cn.CC.Version() != ver {
				linearFrom = ti + 1
				break
			}
		}
	}
	for ti := linearFrom; ti < nb; ti++ {
		if ti < first {
			continue
		}
		s.tested++
		if s.rep(cn.rangeNode[ti]) != s.rep(want) {
			continue
		}
		if s.try(i, a.slot, ti, usedDelta) {
			return true
		}
	}
	return false
}

// try assigns target binding ti to the slot of level i, checks the
// conditions that become checkable, and descends.
func (s *search) try(i, slot, ti int, usedDelta bool) bool {
	s.val[slot], s.tgt[slot], s.set[slot] = s.cn.varNode[ti], ti, true
	stop := false
	if s.condsAt(i) {
		stop = s.rec(i+1, usedDelta || (s.deltaStart >= 0 && ti >= s.deltaStart))
	} else {
		stop = s.void
	}
	s.set[slot] = false
	return stop
}

// leaf handles a complete homomorphism; it returns true to stop.
func (s *search) leaf() bool {
	switch s.leafDo {
	case leafPremise:
		if !s.cn.extends(s.dp, s) {
			s.found = s.hom()
			return true
		}
		return false
	case leafConclusion:
		s.hit = true
		return true
	case leafQuery:
		got, ok := s.evalTop(s.out)
		if !ok {
			return true
		}
		if s.rep(got) != s.rep(s.outID) {
			return false
		}
		if s.fn != nil {
			return s.fn(s)
		}
		s.hit = true
		return true
	}
	return s.fn(s)
}

// conclusion returns the search over dp's conclusion that starts from
// this premise search's current assignment, reusing one search object
// per premise search.
func (s *search) conclusion(dp *depProg) *search {
	if s.child == nil {
		s.child = &search{}
	}
	c := s.child
	c.reset(s.cn, s.p, dp.concl, dp.cconds, modeLookup)
	copy(c.val, s.val)
	copy(c.tgt, s.tgt)
	copy(c.set, s.set)
	c.init = s.init
	return c
}
