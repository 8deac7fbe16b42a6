package workload

import (
	"math"

	"cnb/internal/cost"
)

// SyntheticStats derives cost statistics analytically from the generator
// parameters, without touching generated data. cost.FromInstance scans
// every collection and builds per-field distinct maps — fine at
// calibration scale, prohibitive at the 10^5–10^7 row tiers E18 runs —
// while the star family's statistics are all closed-form: the generator
// fixes every cardinality, the dimension attributes are residues, and
// the only randomness (fact foreign-key draws) has a standard expected
// distinct-count. Deterministic quantities are exact; the FK-dependent
// ones are expectations, which is all the planner consumes.
func (s *Star) SyntheticStats(opts StarGenOptions) *cost.Stats {
	if opts.NumDim <= 0 {
		opts.NumDim = 1
	}
	if opts.NumSub <= 0 {
		opts.NumSub = 1
	}
	if opts.DomA <= 0 {
		opts.DomA = 1
	}
	nf := float64(opts.NumFact)
	nd := float64(opts.NumDim)
	ns := float64(opts.NumSub)
	da := math.Min(float64(opts.DomA), nd)

	// Expected number of distinct dimension keys hit by NumFact uniform
	// draws; under zipf skew fewer keys are hit, but the uniform
	// expectation stays a usable upper estimate for ranking plans.
	distinctKeys := nd
	if nf < 1e6*nd { // avoid pow underflow at extreme ratios
		distinctKeys = nd * (1 - math.Pow(1-1/nd, nf))
	}
	if distinctKeys < 1 {
		distinctKeys = 1
	}

	st := cost.NewStats()
	st.Card["Fact"] = nf
	st.Distinct["Fact.M"] = nf
	for i := 0; i < s.Cfg.Dims; i++ {
		st.Distinct["Fact."+factKey(i)] = distinctKeys
		st.Card[dim(i)] = nd
		st.Distinct[dim(i)+".K"] = nd
		st.Distinct[dim(i)+".A"] = da
		if s.Cfg.Snowflake {
			st.Distinct[dim(i)+".S"] = math.Min(ns, nd)
			st.Card[sub(i)] = ns
			st.Distinct[sub(i)+".K"] = ns
			st.Distinct[sub(i)+".B"] = ns
		}
	}
	for i := 0; i < s.Cfg.FactIndexes; i++ {
		st.Card[fkIndex(i)] = distinctKeys
		st.EntryFanout[fkIndex(i)] = nf / distinctKeys
	}
	for i := 0; i < s.Cfg.DimKeyIndexes; i++ {
		st.Card[dkIndex(i)] = nd
		st.EntryFanout[dkIndex(i)] = 1
	}
	if s.Cfg.DimIndex {
		// SD0 buckets partition the NumDim dimension rows by A = k mod
		// DomA.
		st.Card["SD0"] = da
		st.EntryFanout["SD0"] = nd / da
	}
	for i := 0; i < s.Cfg.Views; i++ {
		st.Card[view(i)] = nf
		for j := 0; j < s.Cfg.Dims; j++ {
			st.Distinct[view(i)+"."+factKey(j)] = distinctKeys
		}
		st.Distinct[view(i)+".A"] = math.Min(distinctKeys, da)
		st.Distinct[view(i)+".M"] = nf
	}
	return st
}
