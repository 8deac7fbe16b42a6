package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run()
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if tb.ID != e.ID {
				t.Errorf("table id = %s, want %s", tb.ID, e.ID)
			}
			if len(tb.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			s := tb.String()
			if !strings.Contains(s, e.ID) {
				t.Errorf("%s render missing id:\n%s", e.ID, s)
			}
			t.Logf("\n%s", s)
		})
	}
}

func TestE1FindsAllPaperPlans(t *testing.T) {
	tb, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[1] == "NOT FOUND" {
			t.Errorf("plan %s not found", row[0])
		}
	}
}

func TestE7AllAgree(t *testing.T) {
	tb, err := E7()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[4] != "true" {
			t.Errorf("completeness mismatch at chain %s", row[0])
		}
	}
}

// TestE13CertifiesMostStates pins what E13 measures: on every
// star/snowflake workload the exhaustive search reaches a finite
// cheapest plan, and the seed dives' certificates prove more candidates
// equivalent than the chase has to.
func TestE13CertifiesMostStates(t *testing.T) {
	if testing.Short() {
		t.Skip("E13 runs full lattice enumerations")
	}
	tb, err := E13()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(e13Workloads()) {
		t.Fatalf("E13 reports %d rows, want one per workload (%d)", len(tb.Rows), len(e13Workloads()))
	}
	total := 0.0
	for _, row := range tb.Rows {
		states, _ := strconv.Atoi(row[2])
		certified, _ := strconv.Atoi(row[5])
		chased, _ := strconv.Atoi(row[6])
		best, err := strconv.ParseFloat(row[8], 64)
		if err != nil || math.IsInf(best, 0) || best <= 0 {
			t.Errorf("workload %q: best cost %q, want a finite positive cost", row[0], row[8])
		}
		if certified <= chased {
			t.Errorf("workload %q: %d candidates certified, %d chased — want certificates to carry the search", row[0], certified, chased)
		}
		total += float64(states)
	}
	if tb.Metrics["exhaustive_states"] != total {
		t.Errorf("exhaustive_states = %v, rows sum to %v", tb.Metrics["exhaustive_states"], total)
	}
}

// TestE14Calibration pins E14's headline claim: estimated cost ordering
// correlates positively with measured cost on every star/snowflake
// workload, over the same exhaustive search E13 runs.
func TestE14Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("E14 runs full lattice enumerations and plan executions")
	}
	tb, err := E14()
	if err != nil {
		t.Fatal(err)
	}
	e13, err := E13()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"exhaustive_states", "cheapest_cost_total"} {
		if tb.Metrics[m] != e13.Metrics[m] {
			t.Errorf("E14 %s = %v, E13 reports %v over the same workloads", m, tb.Metrics[m], e13.Metrics[m])
		}
	}
	if tb.Metrics["spearman_min"] <= 0 {
		t.Errorf("spearman_min = %v, want > 0 (estimates must correlate with measurement)",
			tb.Metrics["spearman_min"])
	}
	// The skip counter must be reported (and therefore gated in
	// benchcheck): a silent growth here would mean calibration quietly
	// profiles fewer candidates than the search produced.
	skipped, ok := tb.Metrics["calibration_skipped"]
	if !ok {
		t.Fatal("calibration_skipped metric missing from E14")
	}
	if skipped < 0 || skipped != math.Trunc(skipped) {
		t.Errorf("calibration_skipped = %v, want a non-negative integer count", skipped)
	}
}

// TestE15IncrementalChase pins the headline claim of the delta-driven
// chase: on every star/snowflake workload the incremental engine does at
// least 2x fewer homomorphism tests than the naive fixpoint while the
// experiment itself asserts identical states, plans and chase steps (it
// errors out on any disagreement).
func TestE15IncrementalChase(t *testing.T) {
	if testing.Short() {
		t.Skip("E15 runs full lattice enumerations twice")
	}
	tb, err := E15()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[1] != "delta-indexed" {
			continue
		}
		ratio := row[len(row)-1]
		var r float64
		if _, err := fmt.Sscanf(ratio, "%fx", &r); err != nil {
			t.Fatalf("workload %q: unparsable ratio %q", row[0], ratio)
		}
		if r < 2 {
			t.Errorf("workload %q: hom-test reduction %.2fx below the promised 2x", row[0], r)
		}
	}
	if tb.Metrics["indexed_hom_tests"] >= tb.Metrics["naive_hom_tests"] {
		t.Errorf("indexed hom tests %v not below naive %v",
			tb.Metrics["indexed_hom_tests"], tb.Metrics["naive_hom_tests"])
	}
	if tb.Metrics["chase_steps"] <= 0 {
		t.Error("chase_steps metric missing")
	}
}

func TestE3AlwaysMinimizesToTwo(t *testing.T) {
	tb, err := E3()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[1] != "2" {
			t.Errorf("chain %s minimized to %s bindings, want 2", row[0], row[1])
		}
	}
}

func TestE11JoinElimination(t *testing.T) {
	tb, err := E11()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][1] != "1" {
		t.Errorf("with constraints: %s bindings, want 1", tb.Rows[0][1])
	}
	if tb.Rows[1][1] != "2" {
		t.Errorf("without constraints: %s bindings, want 2", tb.Rows[1][1])
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:      "X",
		Title:   "test",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"note text"},
	}
	s := tb.String()
	for _, frag := range []string{"== X: test ==", "long-column", "333", "note: note text"} {
		if !strings.Contains(s, frag) {
			t.Errorf("render missing %q:\n%s", frag, s)
		}
	}
}

func TestRedundantChainShape(t *testing.T) {
	q := redundantChain(4)
	if len(q.Bindings) != 4 || len(q.Conds) != 3 {
		t.Errorf("chain shape wrong: %s", q)
	}
	if err := q.Validate(); err != nil {
		t.Error(err)
	}
}
