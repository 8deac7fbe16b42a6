// Measured-cost calibration: execute candidate plans on the streaming
// engine that serves /query and put the measured work profile next to
// the cost model's estimate. Statistics only rank the backchase's
// candidates, so the ranking is only as good as the estimates: E14 and
// the randomized calibration suite check that the estimated-cost
// ordering correlates with measured execution and that equivalent
// candidates agree on their results.
package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/planrewrite"
)

// costsAgree compares two plan costs under the single 1e-9 relative
// tolerance used by every estimate tie test, so a future tolerance
// change cannot drift between them.
func costsAgree(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(a, b))
}

// CalibrationPoint pairs one plan with its estimate and its measured
// execution profile.
type CalibrationPoint struct {
	// Plan is the executable form that was run: lookup-simplified and
	// reordered to the cost model's preferred binding order, exactly as
	// the optimizer's conventional phase would emit it.
	Plan *core.Query
	// Est is the cost model's estimate of that executable form.
	Est float64
	// Measured is the streaming engine's work profile of the run
	// (probes, rows, output rows); Measured.Cost() is the
	// machine-independent scalar.
	Measured engine.Measure
	// Wall is the wall-clock time of the run (machine-dependent; reported
	// in E14 tables, never asserted on).
	Wall time.Duration
	// Rows is the plan's deduplicated result cardinality.
	Rows int
}

// CalibratePlans executes every plan in its executable form against the
// instance and returns one calibration point per executable plan, in
// input order, plus the number of candidates skipped because they are not
// executable on this instance: an intermediate backchase state can carry
// an unguarded failing lookup (M[k] with k drawn from another structure's
// domain), which errors at run time exactly as the reference evaluator
// would — such a candidate can never be the delivered plan, so it is
// excluded from the profile rather than failing the calibration. All
// executed plans must be equivalent rewrites of one query over a
// dependency-satisfying instance; callers can therefore also use the
// result rows to cross-check plan agreement.
func CalibratePlans(stats *cost.Stats, plans []*core.Query, in *instance.Instance) (pts []CalibrationPoint, skipped int, err error) {
	for i, p := range plans {
		exec := stats.Reorder(planrewrite.SimplifyLookups(p))
		est, _ := stats.Estimate(exec)
		plan, err := engine.CompileStream(exec, in, engine.StreamOptions{})
		if err != nil {
			return nil, 0, fmt.Errorf("calibrate plan %d: %w", i, err)
		}
		start := time.Now()
		res, err := plan.Run(context.Background())
		if err != nil {
			var lookupErr *eval.ErrLookupFailed
			if errors.As(err, &lookupErr) {
				skipped++
				continue
			}
			return nil, 0, fmt.Errorf("calibrate plan %d: %w", i, err)
		}
		pts = append(pts, CalibrationPoint{
			Plan:     exec,
			Est:      est,
			Measured: plan.Measure(),
			Wall:     time.Since(start),
			Rows:     res.Len(),
		})
	}
	return pts, skipped, nil
}

// PickedMeasured returns the measured cost of the plan the optimizer
// would deliver from these points — the one with the minimum estimate.
// Estimate ties within 1e-9 relative are resolved pessimistically, to
// the largest measured cost. Returns +Inf for an empty slice.
func PickedMeasured(pts []CalibrationPoint) float64 {
	if len(pts) == 0 {
		return math.Inf(1)
	}
	estMin := math.Inf(1)
	for _, p := range pts {
		estMin = min(estMin, p.Est)
	}
	picked := math.Inf(-1)
	for _, p := range pts {
		if p.Est <= estMin || costsAgree(p.Est, estMin) {
			picked = max(picked, p.Measured.Cost())
		}
	}
	return picked
}

// SpearmanEstVsMeasured is the Spearman rank correlation between the
// estimated costs and the measured costs of the points — the headline
// calibration number of E14: +1 means the cost model orders plans exactly
// as the hardware does. Ties receive average ranks. Returns 0 when fewer
// than two points or when either side is constant.
func SpearmanEstVsMeasured(pts []CalibrationPoint) float64 {
	if len(pts) < 2 {
		return 0
	}
	est := make([]float64, len(pts))
	mea := make([]float64, len(pts))
	for i, p := range pts {
		est[i] = p.Est
		mea[i] = p.Measured.Cost()
	}
	re, oke := ranks(est)
	rm, okm := ranks(mea)
	if !oke || !okm {
		return 0
	}
	return pearson(re, rm)
}

// ranks assigns average ranks (1-based) to the values; ok is false when
// all values are equal (rank correlation undefined).
func ranks(vals []float64) ([]float64, bool) {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	out := make([]float64, n)
	distinct := false
	for i := 0; i < n; {
		j := i
		for j < n && vals[idx[j]] == vals[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		if j < n {
			distinct = true
		}
		i = j
	}
	return out, distinct
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var num, dx, dy float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		dx += (x[i] - mx) * (x[i] - mx)
		dy += (y[i] - my) * (y[i] - my)
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}
