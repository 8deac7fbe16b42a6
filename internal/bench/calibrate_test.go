package bench

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"cnb/internal/backchase"
	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/workload"
)

// TestCalibrationMeasuresServingEngine: on the first E14 workload every
// calibration point's Measured is exactly the work profile the serving
// path reports for the same executable plan on the same instance —
// compiled with the options Service.Query uses — so the cost model is
// calibrated against the executor that serves.
func TestCalibrationMeasuresServingEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates a full E14 lattice and executes every minimal plan")
	}
	wl := e13Workloads()[0]
	s, err := workload.NewStar(wl.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	chased, err := chase.Chase(s.Q, s.Deps, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := backchase.Enumerate(chased.Query, s.Deps, backchase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := s.Generate(e14ExecGen())
	stats := cost.FromInstance(in)
	pts, _, err := CalibratePlans(stats, ex.Plans, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no calibration points")
	}
	for i, pt := range pts {
		p, err := engine.CompileStream(pt.Plan, in, engine.StreamOptions{Stats: stats, Buffer: 2})
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Run(context.Background())
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if m := p.Measure(); m != pt.Measured || out.Len() != pt.Rows {
			t.Errorf("point %d: calibration measured %+v (%d rows), serving engine %+v (%d rows)\n%s",
				i, pt.Measured, pt.Rows, m, out.Len(), pt.Plan)
		}
	}
}

// TestCalibrationSoundnessRandomized is the measured-cost counterpart of
// the backchase package's differential suites: on 60 randomized
// star/snowflake scenarios with consistent generated instances, every
// executable candidate of the exhaustive search's pool returns the same
// result set — they are equivalent rewrites on a dependency-satisfying
// instance.
func TestCalibrationSoundnessRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many enumerations and plan executions")
	}
	const cases = 60
	r := rand.New(rand.NewSource(99))
	for i := 0; i < cases; i++ {
		cfg, gen := workload.RandomStar(r)
		s, err := workload.NewStar(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		chased, err := chase.Chase(s.Q, s.Deps, chase.Options{})
		if err != nil {
			t.Fatalf("case %d: chase: %v", i, err)
		}
		in := s.Generate(gen)
		stats := cost.FromInstance(in)

		ex, err := backchase.Enumerate(chased.Query, s.Deps, backchase.Options{})
		if err != nil {
			t.Fatalf("case %d: exhaustive: %v", i, err)
		}
		if ex.Truncated {
			t.Fatalf("case %d: unexpected truncation", i)
		}
		exPts, _, err := CalibratePlans(stats, candidatePool(ex), in)
		if err != nil {
			t.Fatalf("case %d: calibrate exhaustive plans: %v\ncfg %+v", i, err, cfg)
		}
		if len(exPts) == 0 {
			t.Fatalf("case %d: no executable exhaustive candidate\ncfg %+v", i, cfg)
		}
		for j, p := range exPts {
			if p.Rows != exPts[0].Rows {
				t.Fatalf("case %d: candidate %d returned %d rows, candidate 0 returned %d — equivalent plans must agree\ncfg %+v",
					i, j, p.Rows, exPts[0].Rows, cfg)
			}
		}
	}
}

// TestSpearmanRankCorrelation pins the statistic itself on hand-built
// profiles: perfect agreement, perfect inversion, and degenerate inputs.
func TestSpearmanRankCorrelation(t *testing.T) {
	mk := func(est []float64, meas []int64) []CalibrationPoint {
		pts := make([]CalibrationPoint, len(est))
		for i := range est {
			pts[i].Est = est[i]
			pts[i].Measured.Rows = meas[i]
		}
		return pts
	}
	if rho := SpearmanEstVsMeasured(mk([]float64{1, 2, 3, 4}, []int64{10, 20, 30, 40})); rho != 1 {
		t.Errorf("concordant spearman = %v, want 1", rho)
	}
	if rho := SpearmanEstVsMeasured(mk([]float64{1, 2, 3, 4}, []int64{40, 30, 20, 10})); rho != -1 {
		t.Errorf("inverted spearman = %v, want -1", rho)
	}
	if rho := SpearmanEstVsMeasured(mk([]float64{5, 5, 5}, []int64{1, 2, 3})); rho != 0 {
		t.Errorf("constant-side spearman = %v, want 0", rho)
	}
	if rho := SpearmanEstVsMeasured(nil); rho != 0 {
		t.Errorf("empty spearman = %v, want 0", rho)
	}
	// Ties get average ranks: a single swap among four keeps rho strictly
	// between 0 and 1.
	rho := SpearmanEstVsMeasured(mk([]float64{1, 2, 3, 4}, []int64{10, 30, 20, 40}))
	if !(rho > 0 && rho < 1) {
		t.Errorf("partially concordant spearman = %v, want in (0, 1)", rho)
	}
}

// TestPickedMeasuredEmpty: the empty point set claims +Inf, so any
// comparison against it fails loudly instead of silently passing.
func TestPickedMeasuredEmpty(t *testing.T) {
	if c := PickedMeasured(nil); !math.IsInf(c, 1) {
		t.Errorf("PickedMeasured(nil) = %v, want +Inf", c)
	}
}

// candidatePool returns the deduplicated candidate plans of a backchase
// result: the normal forms plus every explored state. This is the pool
// the optimizer ranks (optimizer.Options.MinimalOnly unset), and its
// cheapest candidate can be an explored intermediate state (§4's
// view+index plan), so calibration measures the whole pool, not Plans
// alone.
func candidatePool(res *backchase.Result) []*core.Query {
	seen := map[string]bool{}
	var pool []*core.Query
	for _, qs := range [][]*core.Query{res.Plans, res.Explored} {
		for _, q := range qs {
			sig := q.CanonicalSignature()
			if !seen[sig] {
				seen[sig] = true
				pool = append(pool, q)
			}
		}
	}
	return pool
}
