package main

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"cnb/internal/parser"
)

// templateVar matches a template variable name left in a query.
var templateVar = regexp.MustCompile(`\b[dps]\b`)

func signature(t *testing.T, body string) string {
	t.Helper()
	doc, err := parser.Parse(body)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, body)
	}
	req, err := assemble(doc)
	if err != nil {
		t.Fatal(err)
	}
	return req.Query.CanonicalSignature()
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		spec := workloads[name]
		a, b, c := newRequestStream(spec, 7), newRequestStream(spec, 7), newRequestStream(spec, 8)
		differ := false
		for i := 0; i < 50; i++ {
			ba, ca := a.Next()
			bb, cb := b.Next()
			bc, _ := c.Next()
			if ba != bb || ca != cb {
				t.Fatalf("%s request %d: same seed gave different bodies", name, i)
			}
			differ = differ || ba != bc
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 gave identical bodies", name)
		}
		if spec.instanceBody(7) != spec.instanceBody(7) || spec.instanceBody(7) == spec.instanceBody(8) {
			t.Errorf("%s: instance body is not a function of the seed", name)
		}
	}
}

// TestRenderedShapes checks that every rendered request parses and keeps
// its template's canonical signature, so warm_query stays all-hit and
// cold_plan all-miss.
func TestRenderedShapes(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		spec := workloads[name]
		seen := map[string]bool{}
		sent := map[string]bool{}
		stream := newRequestStream(spec, 3)
		for i := 0; i < 60; i++ {
			body, constant := stream.Next()
			pinned := spec.pinCache && !sent[constant]
			sent[constant] = true
			got := signature(t, body)
			if want := signature(t, spec.tmpl.plain(constant)); got != want {
				t.Fatalf("%s request %d: signature differs from the template's\n%s", name, i, body)
			}
			if q := body[strings.Index(body, "query Q:"):]; templateVar.MatchString(q) != pinned {
				t.Fatalf("%s request %d: template variable names present = %v, want %v\n%s", name, i, !pinned, pinned, body)
			}
			seen[got] = true
		}
		checks := newCheckStream(spec, 3)
		for i := 0; i < spec.checkDistinct; i++ {
			body, _ := checks.Next()
			sig := signature(t, body)
			if name == "cold_plan" && seen[sig] {
				t.Errorf("cold_plan check request %d repeats a window shape", i)
			}
			seen[sig] = true
		}
		switch name {
		case "warm_query":
			if len(seen) != len(customers) {
				t.Errorf("warm_query: %d distinct shapes, want %d", len(seen), len(customers))
			}
		case "cold_plan":
			if len(seen) != 60+spec.checkDistinct {
				t.Errorf("cold_plan: %d distinct shapes in %d requests, want all distinct", len(seen), 60+spec.checkDistinct)
			}
		case "scan_exec":
			if len(seen) != 1 {
				t.Errorf("scan_exec: %d distinct shapes, want 1", len(seen))
			}
		}
	}
}

func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending: tail must sort a copy
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{0, 0, 0, 0, false},
		{1, 50, 1, 0, false},
		{19, 50, 10, 9, false},
		{20, 50, 10, 10, true},
		{39, 50, 20, 19, true},
		{40, 75, 30, 10, true},
		{99, 75, 75, 24, true},
		{100, 90, 90, 10, true},
		{200, 95, 190, 10, true},
		{499, 95, 475, 24, true},
		{500, 98, 490, 10, true},
		{1999, 98, 1960, 39, true},
		{2000, 99.5, 1990, 10, true},
	} {
		s := ramp(tc.n)
		p, v, b, ok := tail(s)
		if p != tc.p || v != tc.value || b != tc.beyond || ok != tc.ok {
			t.Errorf("n=%d: tail = p%g %g (%d beyond, ok %v), want p%g %g (%d beyond, ok %v)",
				tc.n, p, v, b, ok, tc.p, tc.value, tc.beyond, tc.ok)
		}
		if tc.n > 1 && s[0] != float64(tc.n) {
			t.Errorf("n=%d: tail reordered its input", tc.n)
		}
	}
	same := make([]float64, 30)
	for i := range same {
		same[i] = 4
	}
	if p, v, b, ok := tail(same); p != 50 || v != 4 || b != 15 || !ok {
		t.Errorf("constant samples: tail = p%g %g (%d beyond, ok %v)", p, v, b, ok)
	}
}

func TestIdentities(t *testing.T) {
	w := &window{attempted: 10}
	w.after.Requests, w.after.Cache.Hits = 10, 10
	if bad := identities(workloads["warm_query"], w); len(bad) != 0 {
		t.Errorf("all-hit warm window flagged: %v", bad)
	}
	if bad := identities(workloads["cold_plan"], w); len(bad) != 1 {
		t.Errorf("all-hit cold window: %v, want one failed identity", bad)
	}
	w.after.Cache.Hits, w.after.Cache.Misses, w.after.BackchaseRuns = 0, 10, 10
	if bad := identities(workloads["cold_plan"], w); len(bad) != 0 {
		t.Errorf("all-miss cold window flagged: %v", bad)
	}
	w.after.Errors = 1
	w.after.Cache.Misses = 9
	if bad := identities(workloads["cold_plan"], w); len(bad) != 3 {
		t.Errorf("broken window: %v, want three failed identities", bad)
	}
}

func TestMovingMean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		r    int
		want []float64
	}{
		{nil, 2, []float64{}},
		{[]float64{4}, 2, []float64{4}},
		{[]float64{1, 3}, 0, []float64{1, 3}},
		{[]float64{300, 700, 300, 700, 300}, 1, []float64{500, 1300.0 / 3, 1700.0 / 3, 1300.0 / 3, 500}},
		{[]float64{2, 4, 6, 8, 10}, 2, []float64{4, 5, 6, 7, 8}},
	} {
		got := movingMean(c.in, c.r)
		if len(got) != len(c.want) {
			t.Fatalf("movingMean(%v, %d) = %v, want %v", c.in, c.r, got, c.want)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Fatalf("movingMean(%v, %d) = %v, want %v", c.in, c.r, got, c.want)
			}
		}
	}
}
