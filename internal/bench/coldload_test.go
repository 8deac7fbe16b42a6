package bench

import "testing"

// TestE20ColdTiered is the serve-cold gate: the experiment itself
// hard-fails on any broken tiering invariant — a cold tiered response
// not served by the greedy tier, a greedy plan that is not row-identical
// to eval.QueryEager, detached flights failing to upgrade, an upgraded
// entry serving anything but the synchronous cheapest cost, or a
// cold-shape p99 improvement under 10x — so the test only needs to run
// it and sanity-check the exact counters the baseline gates.
func TestE20ColdTiered(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-shape replay pays three full cold backchases; skipped in -short")
	}
	tb, err := E20()
	if err != nil {
		t.Fatal(err)
	}
	shapes := tb.Metrics["shapes"]
	if shapes == 0 {
		t.Fatal("no shapes replayed")
	}
	if got := tb.Metrics["greedy_served"]; got != shapes {
		t.Errorf("greedy_served = %v, want %v (one per cold shape)", got, shapes)
	}
	if got := tb.Metrics["upgraded_flights"]; got != shapes {
		t.Errorf("upgraded_flights = %v, want %v (every detached flight upgrades)", got, shapes)
	}
	if tb.Metrics["greedy_check_rows"] <= 0 {
		t.Error("differential check matched zero rows — the check is vacuous")
	}
	if s, u := tb.Metrics["cheapest_cost_sync_total"], tb.Metrics["cheapest_cost_upgraded_total"]; s != u {
		t.Errorf("upgraded cost total %v != synchronous cost total %v", u, s)
	}
	if sp := tb.Metrics["cold_speedup"]; sp < 10 {
		t.Errorf("cold speedup %.1fx below 10x", sp)
	}
	t.Logf("\n%s", tb)
}
