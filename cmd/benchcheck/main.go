// Command benchcheck is the CI bench-regression gate: it compares a
// fresh chasebench JSON report against the committed baseline
// (BENCH_BASELINE.json) and fails when the search regresses.
//
// Rules, per experiment present in the baseline:
//
//   - every metric whose name ends in "_states" may grow by at most
//     -state-tolerance (default 10%) — more lattice states explored for
//     the same workload is a search regression;
//   - every metric whose name ends in "_hom_tests" may grow by at most
//     the same tolerance — more homomorphism-search work for the same
//     workload is a chase regression, gated exactly like state counts;
//   - every metric whose name starts with "cheapest_cost" must not
//     change beyond float noise (relative 1e-6) — the backchase lists
//     every minimal plan whatever the schedule, so the cheapest plan
//     cost is a pure function of the code, and any drift means a
//     soundness or cost-model change that must be reviewed (and the
//     baseline regenerated deliberately);
//   - the "chase_steps" metric is held exactly: chase step counts are
//     deterministic, and both chase engines are pinned to the same step
//     sequence, so any drift means the chase itself changed behavior;
//   - the serving-layer counters "cache_hits", "cache_misses",
//     "backchase_runs" and "hit_rate" (the workers=1 passes of E16's
//     order-preserving replay, E17's order-shuffling alpha-rename
//     replay, and E19's end-to-end query replay) are held exactly: the
//     request schedules are seeded and the single-worker service is
//     serial, so these counts are deterministic, and any drift means
//     the plan cache keying, query canonicalization, eviction or
//     singleflight accounting changed — in particular, E17's
//     backchase_runs equals the distinct-shape count only while the
//     canonical signature stays invariant under order-shuffling
//     renames;
//   - every metric whose name ends in "_evals" or "_rows" (E18's
//     measured work counters for the baseline and optimized plans, and
//     E19's executed-work totals for the workers=1 serving replay —
//     query_evals, query_rows, query_out_rows, result_rows) and every
//     metric whose name ends in "_exec_skipped" (how many ranked
//     candidates the delivery walk had to skip as non-executable
//     before finding one that runs) are held exactly: at a fixed seed
//     and row tier both plans and their work profiles are pure
//     functions of the code, so any drift means the streaming engine's
//     operator accounting, the optimizer's candidate ranking, or the
//     generated instance changed;
//   - the "calibration_skipped" metric (E14's count of candidates whose
//     measured execution was skipped as non-executable) is held exactly
//     for the same reason — silent growth would mean calibration quietly
//     profiles fewer plans than the search produced;
//   - the two-tier serving counters "greedy_served" and
//     "upgraded_flights" (E20's cold replay: one greedy-tier response
//     per cold shape, one detached-flight upgrade per shape) are held
//     exactly — drift means the latency-budget tiering, flight
//     detachment or upgrade accounting changed;
//   - experiments and gated metrics present in the baseline must still
//     exist in the current report.
//
// Wall-clock metrics (*_ms), speedup ratios and correlation metrics are
// informational and never gated: they depend on the machine. The
// backchase is serial, so state counts are deterministic.
//
// Usage:
//
//	benchcheck -baseline BENCH_BASELINE.json -current BENCH_PR3.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// experimentRecord mirrors the chasebench JSON schema (only the fields
// the gate reads).
type experimentRecord struct {
	ID     string             `json:"id"`
	Metric map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Experiments []experimentRecord `json:"experiments"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) byID() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, e := range r.Experiments {
		out[e.ID] = e.Metric
	}
	return out
}

const costTolerance = 1e-6 // relative; covers float summation noise only

// exactCounters are deterministic count metrics held exactly (within
// costTolerance, which only absorbs float encoding noise): chase step
// counts, the serving layer's single-worker cache/flight counters and
// hit rate, E14's calibration skip count and E20's two-tier serving
// counters.
var exactCounters = map[string]bool{
	"chase_steps":         true,
	"cache_hits":          true,
	"cache_misses":        true,
	"backchase_runs":      true,
	"hit_rate":            true,
	"calibration_skipped": true,
	"greedy_served":       true,
	"upgraded_flights":    true,
}

// exactSuffix reports whether a metric name carries one of the
// exactly-gated suffixes: E18's per-plan work counters ("_evals",
// "_rows") and its non-executable-candidate skip count
// ("_exec_skipped") are pure functions of (seed, tier, code), so any
// drift is a behavior change to review.
func exactSuffix(name string) bool {
	for _, s := range []string{"_evals", "_rows", "_exec_skipped"} {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "committed baseline report")
		currentPath  = flag.String("current", "BENCH_PR3.json", "freshly generated report")
		stateTol     = flag.Float64("state-tolerance", 0.10, "allowed relative growth of *_states metrics")
	)
	flag.Parse()

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	cur := current.byID()

	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	checked := 0
	for _, exp := range baseline.Experiments {
		curMetrics, ok := cur[exp.ID]
		if !ok {
			fail("%s: experiment missing from current report", exp.ID)
			continue
		}
		for name, base := range exp.Metric {
			gatedStates := strings.HasSuffix(name, "_states")
			gatedWork := strings.HasSuffix(name, "_hom_tests")
			gatedCost := strings.HasPrefix(name, "cheapest_cost") || exactCounters[name] || exactSuffix(name)
			if !gatedStates && !gatedWork && !gatedCost {
				continue
			}
			now, ok := curMetrics[name]
			if !ok {
				fail("%s/%s: gated metric missing from current report", exp.ID, name)
				continue
			}
			checked++
			switch {
			case gatedStates || gatedWork:
				if now > base*(1+*stateTol) {
					fail("%s/%s: %g vs baseline %g (> %.0f%% regression)",
						exp.ID, name, now, base, *stateTol*100)
				} else {
					fmt.Printf("ok %s/%s: %g vs baseline %g\n", exp.ID, name, now, base)
				}
			case gatedCost:
				if diff := now - base; diff > base*costTolerance || -diff > base*costTolerance {
					fail("%s/%s: %g vs baseline %g — any change must be reviewed",
						exp.ID, name, now, base)
				} else {
					fmt.Printf("ok %s/%s: %g vs baseline %g\n", exp.ID, name, now, base)
				}
			}
		}
	}
	if checked == 0 {
		fail("no gated metrics found in %s — baseline corrupt?", *baselinePath)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d gated metrics within tolerance\n", checked)
}
