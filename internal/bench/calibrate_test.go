package bench

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"cnb/internal/backchase"
	"cnb/internal/chase"
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
// the backchase package's estimate-level differential suite: on >= 60
// randomized star/snowflake scenarios with consistent generated
// instances, the cost-bounded search driven by the instance's own
// statistics must — across Parallelism 1, 2 and 8 —
//
//	(a) never discard the plan the optimizer delivers: the measured cost
//	    of the minimum-estimate candidate in the pruned pool (worst tie)
//	    is no worse than the exhaustive pool's (best tie) — pruning can
//	    drop candidates the cost model ranks above the winner, but never
//	    the measured-cheapest plan the search would actually pick,
//	(b) reach the same cheapest estimated cost as exhaustive search, and
//	(c) explore no more states than the exhaustive search.
//
// Every executed candidate must also return the same result set — they
// are equivalent rewrites on a dependency-satisfying instance.
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

		ex, err := backchase.Enumerate(chased.Query, s.Deps, backchase.Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("case %d: exhaustive: %v", i, err)
		}
		if ex.Truncated {
			t.Fatalf("case %d: unexpected truncation", i)
		}
		exPts, _, err := CalibratePlans(stats, CandidatePool(ex), in)
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
		exBestEst := e13Cheapest(stats, ex)
		exPicked := PickedMeasured(exPts, false)

		for _, par := range []int{1, 2, 8} {
			pr, err := backchase.Enumerate(chased.Query, s.Deps,
				backchase.Options{Parallelism: par, Stats: stats})
			if err != nil {
				t.Fatalf("case %d par %d: pruned: %v", i, par, err)
			}
			if pr.States > ex.States {
				t.Errorf("case %d par %d: pruned explored %d states, exhaustive %d\ncfg %+v",
					i, par, pr.States, ex.States, cfg)
			}
			const eps = 1e-6
			if pr.BestCost > exBestEst*(1+eps)+eps {
				t.Errorf("case %d par %d: pruned cheapest estimate %.6f worse than exhaustive %.6f\ncfg %+v",
					i, par, pr.BestCost, exBestEst, cfg)
			}
			prPts, _, err := CalibratePlans(stats, CandidatePool(pr), in)
			if err != nil {
				t.Fatalf("case %d par %d: calibrate pruned plans: %v", i, par, err)
			}
			prPicked := PickedMeasured(prPts, true)
			if prPicked > exPicked*(1+eps) {
				t.Errorf("case %d par %d: pruning worsened the delivered plan: measured %.0f vs %.0f\ncfg %+v",
					i, par, prPicked, exPicked, cfg)
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
	if c := PickedMeasured(nil, true); !math.IsInf(c, 1) {
		t.Errorf("PickedMeasured(nil) = %v, want +Inf", c)
	}
}
