package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cnb/internal/service"
)

// testServer spins the production mux behind httptest.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, mux := newServer(service.Options{}, 30*time.Second)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// projDeptDoc is the paper's running example, same as examples/cnbdclient.
const projDeptDoc = `
schema Logical {
  Proj  : set<{PName: string, CustName: string, PDept: string, Budg: int}>;
  depts : set<{DName: string, DProjs: set<string>, MgrName: string}>;

  constraint RIC1:
    forall (d in depts, s in d.DProjs) exists (p in Proj) s = p.PName;
  constraint RIC2:
    forall (p in Proj) exists (d in depts) p.PDept = d.DName;
  constraint INV1:
    forall (d in depts, s in d.DProjs, p in Proj) s = p.PName -> p.PDept = d.DName;
  constraint INV2:
    forall (p in Proj, d in depts) p.PDept = d.DName -> exists (s in d.DProjs) p.PName = s;
  constraint KEY1:
    forall (a in depts, b in depts) a.DName = b.DName -> a = b;
  constraint KEY2:
    forall (a in Proj, b in Proj) a.PName = b.PName -> a = b;
}

design Phys over Logical {
  store Proj;
  classdict Dept for depts oid Doid;
  primary index I on Proj(PName);
  secondary index SI on Proj(CustName);
  view JI: select struct(DOID: dd, PN: p.PName)
           from dom(Dept) dd, Dept[dd].DProjs s, Proj p
           where s = p.PName;
}

query Q:
  select struct(PN: s, PB: p.Budg, DN: d.DName)
  from depts d, d.DProjs s, Proj p
  where s = p.PName and p.CustName = "CitiBank";
`

// TestQueryEndToEnd: install a generated ProjDept instance over HTTP,
// then run the running-example query against it — rows come back, the
// timing split and Measure counters are populated, and the second round
// is a warm plan-cache hit. Finishes with /metrics carrying the
// per-instance executed-query counters.
func TestQueryEndToEnd(t *testing.T) {
	ts := testServer(t)

	status, inst := postJSON(t, ts.URL+"/instance?name=pd",
		`{"workload": "projdept", "gen": {"NumDepts": 20, "ProjsPerDept": 5, "CitiBankShare": 0.3, "Seed": 5}}`)
	if status != http.StatusOK || inst["installed"] != true {
		t.Fatalf("install: HTTP %d %v", status, inst)
	}
	if inst["rows"].(float64) <= 0 || inst["collections"].(float64) < 6 {
		t.Fatalf("install summary: %v", inst)
	}

	var firstRows float64
	for round := 1; round <= 2; round++ {
		status, out := postJSON(t, ts.URL+"/query?instance=pd", projDeptDoc)
		if status != http.StatusOK {
			t.Fatalf("round %d: HTTP %d %v", round, status, out)
		}
		queries := out["queries"].([]any)
		if len(queries) != 1 {
			t.Fatalf("round %d: %d query results", round, len(queries))
		}
		q := queries[0].(map[string]any)
		rows := q["rows"].([]any)
		if len(rows) == 0 || q["result_rows"].(float64) != float64(len(rows)) {
			t.Fatalf("round %d: rows %d, result_rows %v", round, len(rows), q["result_rows"])
		}
		if round == 1 {
			firstRows = q["result_rows"].(float64)
		} else {
			if q["cache_hit"] != true {
				t.Fatalf("round 2 not a cache hit: %v", q)
			}
			if q["result_rows"].(float64) != firstRows {
				t.Fatalf("round 2 rows %v != round 1 rows %v", q["result_rows"], firstRows)
			}
		}
		measure := q["measure"].(map[string]any)
		if measure["evals"].(float64) <= 0 || measure["out_rows"].(float64) <= 0 {
			t.Fatalf("round %d: empty measure %v", round, measure)
		}
		if q["plan_ms"].(float64) < 0 || q["exec_ms"].(float64) < 0 || q["plan"] == "" {
			t.Fatalf("round %d: timing/plan missing: %v", round, q)
		}
	}

	status, metrics := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", status)
	}
	pd := metrics["instances"].(map[string]any)["pd"].(map[string]any)
	if pd["queries"].(float64) != 2 || pd["exec_errors"].(float64) != 0 {
		t.Fatalf("per-instance metrics: %v", pd)
	}
	if pd["evals"].(float64) <= 0 || pd["rows_emitted"].(float64) < 0 {
		t.Fatalf("per-instance work counters: %v", pd)
	}
}

// TestQueryExplainAndTruncation: ?explain=1 returns the operator tree
// without rows; ?max_rows caps the encoding and sets the flag.
func TestQueryExplainAndTruncation(t *testing.T) {
	ts := testServer(t)
	if status, out := postJSON(t, ts.URL+"/instance?name=pd",
		`{"workload": "projdept", "gen": {"NumDepts": 20, "ProjsPerDept": 5, "CitiBankShare": 0.5, "Seed": 6}}`); status != http.StatusOK {
		t.Fatalf("install: HTTP %d %v", status, out)
	}

	status, out := postJSON(t, ts.URL+"/query?instance=pd&explain=1", projDeptDoc)
	if status != http.StatusOK {
		t.Fatalf("explain: HTTP %d %v", status, out)
	}
	q := out["queries"].([]any)[0].(map[string]any)
	if q["explain"] == nil || q["explain"] == "" || q["rows"] != nil {
		t.Fatalf("explain result: %v", q)
	}
	if q["est_cost"].(float64) <= 0 {
		t.Fatalf("explain est_cost: %v", q["est_cost"])
	}

	status, out = postJSON(t, ts.URL+"/query?instance=pd&max_rows=2", projDeptDoc)
	if status != http.StatusOK {
		t.Fatalf("max_rows: HTTP %d %v", status, out)
	}
	q = out["queries"].([]any)[0].(map[string]any)
	if rows := q["rows"].([]any); len(rows) != 2 || q["truncated"] != true {
		t.Fatalf("max_rows=2: rows=%d truncated=%v", len(rows), q["truncated"])
	}
	if q["result_rows"].(float64) <= 2 {
		t.Fatalf("result_rows %v should exceed the cap", q["result_rows"])
	}
}

// TestQueryErrorStatuses: unknown instance → 404, a plan whose only
// candidate hits a failing lookup → 422 with the counters still
// consistent, bad parameters → 400.
func TestQueryErrorStatuses(t *testing.T) {
	ts := testServer(t)

	if status, _ := postJSON(t, ts.URL+"/query?instance=nope", projDeptDoc); status != http.StatusNotFound {
		t.Fatalf("unknown instance: HTTP %d, want 404", status)
	}

	// An instance whose dictionary is missing the key the only plan
	// dereferences: the delivery walk exhausts the pool and reports 422.
	lookupDoc := `
schema S {
  R : set<{A: int}>;
  M : dict<int, int>;
}
query Q:
  select M[x.A] from R x;
`
	status, out := postJSON(t, ts.URL+"/instance?name=hole",
		`{"data": {"R": [{"A": 1}], "M": {"$dict": [{"key": 2, "value": 20}]}}}`)
	if status != http.StatusOK {
		t.Fatalf("install: HTTP %d %v", status, out)
	}
	status, out = postJSON(t, ts.URL+"/query?instance=hole", lookupDoc)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("failing lookup: HTTP %d %v, want 422", status, out)
	}
	if !strings.Contains(out["error"].(string), "no executable plan") {
		t.Fatalf("failing lookup error: %v", out["error"])
	}
	_, metrics := getJSON(t, ts.URL+"/metrics")
	hole := metrics["instances"].(map[string]any)["hole"].(map[string]any)
	if hole["exec_errors"].(float64) != 1 || hole["queries"].(float64) != 0 {
		t.Fatalf("counters after exec error: %v", hole)
	}

	if status, _ := postJSON(t, ts.URL+"/query", projDeptDoc); status != http.StatusBadRequest {
		t.Fatalf("missing instance param: HTTP %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/query?instance=hole&max_rows=abc", projDeptDoc); status != http.StatusBadRequest {
		t.Fatalf("bad max_rows: HTTP %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/query?instance=hole&timeout_ms=-1", projDeptDoc); status != http.StatusBadRequest {
		t.Fatalf("bad timeout_ms: HTTP %d, want 400", status)
	}
}

// TestInstanceSpecValidation: the /instance spec surface — generator
// specs, inline data with the tagged dict/oid forms, and its rejects.
func TestInstanceSpecValidation(t *testing.T) {
	ts := testServer(t)

	if status, _ := postJSON(t, ts.URL+"/instance", `{"workload": "projdept"}`); status != http.StatusBadRequest {
		t.Fatalf("missing name: HTTP %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/instance?name=x", `{"workload": "unknown"}`); status != http.StatusBadRequest {
		t.Fatalf("unknown workload: HTTP %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/instance?name=x", `{}`); status != http.StatusBadRequest {
		t.Fatalf("empty spec: HTTP %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/instance?name=x",
		`{"workload": "projdept", "data": {"R": []}}`); status != http.StatusBadRequest {
		t.Fatalf("workload+data: HTTP %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/instance?name=x", `{"data": {"R": null}}`); status != http.StatusBadRequest {
		t.Fatalf("null value: HTTP %d, want 400", status)
	}

	status, out := postJSON(t, ts.URL+"/instance?name=star",
		`{"workload": "star",
		  "config": {"Dims": 1, "FactIndexes": 1, "DimIndex": true, "Select": true, "SelectA": 2, "FKConstraints": true},
		  "gen": {"NumFact": 500, "NumDim": 20, "DomA": 5, "Seed": 3}}`)
	if status != http.StatusOK || out["rows"].(float64) < 500 {
		t.Fatalf("star install: HTTP %d %v", status, out)
	}
	cards := out["cards"].(map[string]any)
	if cards["Fact"].(float64) != 500 {
		t.Fatalf("star cards: %v", cards)
	}

	status, out = getJSON(t, ts.URL+"/instance")
	if status != http.StatusOK {
		t.Fatalf("list: HTTP %d", status)
	}
	if insts := out["instances"].([]any); len(insts) != 1 {
		t.Fatalf("list: %v", out)
	}
}

// TestInstanceDictMustBeFunction: a $dict entry list that is not a
// finite function — a key given twice, or an entry without its value —
// is a 400 naming the key or the field, and installs nothing.
func TestInstanceDictMustBeFunction(t *testing.T) {
	cases := []struct {
		name, dict, want string
	}{
		{"repeated key", `[{"key": "a", "value": 1}, {"key": "b", "value": 2}, {"key": "a", "value": 3}]`, `$dict key "a" repeats`},
		{"missing value", `[{"key": 1, "valu": 2}]`, `$dict entry has no "value" field`},
		{"missing key", `[{"kee": 1, "value": 2}]`, `$dict entry has no "key" field`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := testServer(t)
			status, out := postJSON(t, ts.URL+"/instance?name=m", `{"data": {"M": {"$dict": `+c.dict+`}}}`)
			if status != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400: %v", status, out)
			}
			if msg, _ := out["error"].(string); !strings.Contains(msg, c.want) {
				t.Fatalf("error %q does not contain %q", msg, c.want)
			}
			if _, list := getJSON(t, ts.URL+"/instance"); len(list["instances"].([]any)) != 0 {
				t.Fatalf("a rejected spec installed an instance: %v", list)
			}
		})
	}
}

// TestTieredOptimizeEndToEnd: with -max-plan-latency below the cold
// planning time a cold /optimize is served by the greedy tier; the
// detached flight upgrades the cache, /metrics counts both sides, and a
// later request serves the backchase plan marked upgraded. The budget is
// set adaptively from a measured synchronous cold run so the test holds
// on any machine speed and under the race detector.
func TestTieredOptimizeEndToEnd(t *testing.T) {
	// Synchronous reference: cold planning wall clock and tier tag.
	_, syncMux := newServer(service.Options{}, 30*time.Second)
	syncTS := httptest.NewServer(syncMux)
	t.Cleanup(syncTS.Close)
	status, out := postJSON(t, syncTS.URL+"/optimize", projDeptDoc)
	if status != http.StatusOK {
		t.Fatalf("sync optimize: HTTP %d: %v", status, out)
	}
	q := out["queries"].([]any)[0].(map[string]any)
	if q["tier"] != "backchase" {
		t.Fatalf("synchronous tier = %v, want backchase", q["tier"])
	}
	coldMS := q["wall_ms"].(float64)

	// A quarter of the cold time: far below cold (greedy tier on cold
	// requests), comfortably above the warm path (~cold/10).
	budget := time.Duration(coldMS/4*1000) * time.Microsecond
	_, mux := newServer(service.Options{MaxPlanLatency: budget}, 30*time.Second)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	status, out = postJSON(t, ts.URL+"/optimize", projDeptDoc)
	if status != http.StatusOK {
		t.Fatalf("optimize: HTTP %d: %v", status, out)
	}
	q = out["queries"].([]any)[0].(map[string]any)
	if q["tier"] != "greedy" {
		t.Fatalf("cold tier = %v, want greedy (budget %v, sync cold %.1fms)", q["tier"], budget, coldMS)
	}
	if q["best_plan"] == nil || q["best_plan"] == "" {
		t.Fatal("greedy tier returned no plan")
	}

	// The detached flight lands on its own schedule; poll the metrics.
	deadline := time.Now().Add(30 * time.Second)
	var metrics map[string]any
	for {
		_, metrics = getJSON(t, ts.URL+"/metrics")
		if metrics["upgraded_flights"].(float64) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no upgrade within deadline: %v", metrics)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if metrics["greedy_served"].(float64) < 1 {
		t.Fatalf("greedy_served missing from /metrics: %v", metrics)
	}

	// Warm, upgraded request. The warm path normally lands well inside
	// the budget; tolerate stray greedy responses while polling.
	deadline = time.Now().Add(30 * time.Second)
	for {
		_, out = postJSON(t, ts.URL+"/optimize", projDeptDoc)
		q = out["queries"].([]any)[0].(map[string]any)
		if q["tier"] == "backchase" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm request never served the backchase tier: %v", q)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if q["upgraded"] != true || q["cache_hit"] != true {
		t.Fatalf("post-upgrade response: upgraded=%v cache_hit=%v, want true/true", q["upgraded"], q["cache_hit"])
	}
}

// getRaw fetches a URL and returns the raw body for order-sensitive
// assertions (a decoded map loses the key order under test).
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// walkValue consumes one JSON value from dec; when path names the target
// object, its keys are appended to out in document order.
func walkValue(t *testing.T, dec *json.Decoder, path, target string, out *[]string) {
	t.Helper()
	tok, err := dec.Token()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := tok.(json.Delim)
	if !ok {
		return // scalar
	}
	switch d {
	case '{':
		for dec.More() {
			kt, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			k := kt.(string)
			if path == target {
				*out = append(*out, k)
			}
			child := k
			if path != "" {
				child = path + "." + k
			}
			walkValue(t, dec, child, target, out)
		}
		if _, err := dec.Token(); err != nil { // consume '}'
			t.Fatal(err)
		}
	case '[':
		for dec.More() {
			walkValue(t, dec, path+"[]", target, out)
		}
		if _, err := dec.Token(); err != nil { // consume ']'
			t.Fatal(err)
		}
	}
}

// keyOrder returns the key order of the object at the dotted path
// (empty = document root) in a raw JSON document.
func keyOrder(t *testing.T, raw []byte, target string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	var out []string
	walkValue(t, dec, "", target, &out)
	return out
}

// TestMetricsKeyOrder pins the /metrics layout: a fixed top-level key
// order (so successive scrapes diff cleanly line by line) and
// per-instance entries sorted by name regardless of install order.
func TestMetricsKeyOrder(t *testing.T) {
	ts := testServer(t)

	// Install in anti-alphabetical order; the scrape must sort.
	for _, name := range []string{"zeta", "alpha"} {
		if status, out := postJSON(t, ts.URL+"/instance?name="+name,
			`{"workload": "projdept", "gen": {"NumDepts": 3, "ProjsPerDept": 2, "Seed": 1}}`); status != http.StatusOK {
			t.Fatalf("install %s: %d: %v", name, status, out)
		}
	}
	raw := getRaw(t, ts.URL+"/metrics")

	wantTop := []string{
		"uptime_seconds", "requests", "errors", "coalesced", "flights",
		"backchase_runs", "stats_swaps", "greedy_served", "upgraded_flights",
		"slot_waits", "cache", "chase", "histograms", "instances",
	}
	got := keyOrder(t, raw, "")
	if len(got) != len(wantTop) {
		t.Fatalf("top-level keys %v, want %v", got, wantTop)
	}
	for i := range wantTop {
		if got[i] != wantTop[i] {
			t.Fatalf("top-level key[%d] = %q, want %q (full order %v)", i, got[i], wantTop[i], got)
		}
	}
	if inst := keyOrder(t, raw, "instances"); len(inst) != 2 || inst[0] != "alpha" || inst[1] != "zeta" {
		t.Fatalf("instance order %v, want [alpha zeta]", inst)
	}
	wantCache := []string{"hits", "misses", "evictions", "entries"}
	if cache := keyOrder(t, raw, "cache"); strings.Join(cache, ",") != strings.Join(wantCache, ",") {
		t.Fatalf("cache keys %v, want %v", cache, wantCache)
	}
	wantHists := []string{"bucket_unit", "greedy", "backchase_sync", "backchase_upgraded", "query_plan", "query_exec"}
	if hists := keyOrder(t, raw, "histograms"); strings.Join(hists, ",") != strings.Join(wantHists, ",") {
		t.Fatalf("histogram keys %v, want %v", hists, wantHists)
	}

	// Two scrapes of an idle server must render identically apart from
	// the uptime line — the diff-cleanly contract, end to end.
	again := getRaw(t, ts.URL+"/metrics")
	strip := func(raw []byte) string {
		var kept []string
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.Contains(line, "uptime_seconds") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if strip(raw) != strip(again) {
		t.Fatalf("idle scrapes differ:\n%s\n----\n%s", raw, again)
	}
}

// TestMetricsHistResetOnScrape: with the reset flag on, each scrape
// reports the interval since the previous one — the second scrape of an
// idle server shows empty histograms (counters are untouched).
func TestMetricsHistResetOnScrape(t *testing.T) {
	srv, mux := newServer(service.Options{}, 30*time.Second)
	srv.histResetOnScrape = true
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	postJSON(t, ts.URL+"/optimize", projDeptDoc)
	total := func(m map[string]any) float64 {
		return m["histograms"].(map[string]any)["backchase_sync"].(map[string]any)["total"].(float64)
	}
	_, first := getJSON(t, ts.URL+"/metrics")
	if total(first) != 1 {
		t.Fatalf("first scrape backchase_sync total = %v, want 1", total(first))
	}
	_, second := getJSON(t, ts.URL+"/metrics")
	if total(second) != 0 {
		t.Fatalf("second scrape backchase_sync total = %v, want 0 (reset on scrape)", total(second))
	}
	if second["requests"].(float64) != 1 {
		t.Fatalf("reset touched the counters: requests = %v", second["requests"])
	}
}

// multiSchemaDoc declares its constraints across three schemas, so the
// dependency list a request carries is assembled from several of them.
const multiSchemaDoc = `
schema A {
  R : set<{K: int, V: int}>;
  constraint KeyR: forall (x in R, y in R) x.K = y.K -> x = y;
}
schema B {
  S : set<{K: int, W: int}>;
  constraint KeyS: forall (x in S, y in S) x.K = y.K -> x = y;
}
schema C {
  T : set<{K: int, U: int}>;
  constraint KeyT: forall (x in T, y in T) x.K = y.K -> x = y;
}
query Q:
  select struct(V: r.V, W: s.W)
  from R r, S s, T t
  where r.K = s.K and s.K = t.K;
`

// TestMultiSchemaDocumentHitsPlanCache: identical multi-schema documents
// must assemble identical dependency lists, so N posts run one flight and
// hit the plan cache N-1 times, holding one plan table entry.
func TestMultiSchemaDocumentHitsPlanCache(t *testing.T) {
	ts := testServer(t)
	const n = 40
	for i := 0; i < n; i++ {
		if status, body := postJSON(t, ts.URL+"/optimize", multiSchemaDoc); status != http.StatusOK {
			t.Fatalf("post %d: HTTP %d: %v", i, status, body)
		}
	}
	_, metrics := getJSON(t, ts.URL+"/metrics")
	cache := metrics["cache"].(map[string]any)
	if cache["hits"].(float64) != n-1 || cache["misses"].(float64) != 1 || cache["entries"].(float64) != 1 {
		t.Fatalf("cache = %v, want %d hits, 1 miss, 1 entry", cache, n-1)
	}
	if flights := metrics["flights"].(float64); flights != 1 {
		t.Fatalf("flights = %v, want 1", flights)
	}
}
