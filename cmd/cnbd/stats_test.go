package main

import (
	"net/http"
	"strings"
	"testing"
)

// TestStatsValidation: POST /stats rejects every statistic the estimator
// cannot use, and unknown fields, with a 400 naming the field, and
// installs nothing; a valid snapshot still installs.
func TestStatsValidation(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct {
		name, body, field string
	}{
		{"negative card", `{"Card": {"Proj": -5}}`, `Card["Proj"]`},
		{"negative entry fanout", `{"EntryFanout": {"SI": -1}}`, `EntryFanout["SI"]`},
		{"negative field fanout", `{"FieldFanout": {"DProjs": -2}}`, `FieldFanout["DProjs"]`},
		{"negative distinct", `{"Distinct": {"Proj.CustName": -3}}`, `Distinct["Proj.CustName"]`},
		{"negative default selectivity", `{"DefaultSelectivity": -0.1}`, "DefaultSelectivity"},
		{"default selectivity above 1", `{"DefaultSelectivity": 1.5}`, "DefaultSelectivity"},
		{"negative lookup cost", `{"LookupCost": -1}`, "LookupCost"},
		{"unknown field", `{"Cards": {"Proj": 5}}`, `"Cards"`},
		{"retired entry fanout min", `{"EntryFanoutMin": {"SI": 1}}`, `"EntryFanoutMin"`},
		{"retired field fanout min", `{"FieldFanoutMin": {"DProjs": 1}}`, `"FieldFanoutMin"`},
		{"retired lookup floor", `{"LookupFloor": 1}`, `"LookupFloor"`},
		{"trailing data", `{"Card": {"Proj": 5}} x`, "trailing data"},
	} {
		status, out := postJSON(t, ts.URL+"/stats", tc.body)
		msg, _ := out["error"].(string)
		if status != http.StatusBadRequest || !strings.Contains(msg, tc.field) {
			t.Errorf("%s: HTTP %d %q, want 400 naming %s", tc.name, status, msg, tc.field)
		}
	}
	if _, m := getJSON(t, ts.URL+"/metrics"); m["stats_swaps"] != 0.0 {
		t.Fatalf("rejected snapshots were installed: stats_swaps = %v", m["stats_swaps"])
	}

	status, out := postJSON(t, ts.URL+"/stats", `{"Card": {"Proj": 5000}, "LookupCost": 1}`)
	if status != http.StatusOK || out["installed"] != true {
		t.Fatalf("valid snapshot: HTTP %d %v", status, out)
	}
	if _, m := getJSON(t, ts.URL+"/metrics"); m["stats_swaps"] != 1.0 {
		t.Fatalf("stats_swaps = %v after one valid snapshot, want 1", m["stats_swaps"])
	}
}
