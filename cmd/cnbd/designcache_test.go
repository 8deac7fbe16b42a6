package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cnb/internal/parser"
	"cnb/internal/service"
)

// projDeptDesign is projDeptDoc without its query.
var projDeptDesign = projDeptDoc[:strings.Index(projDeptDoc, "query Q:")]

// renamedQuery is projDeptDoc's query with its variables renamed by i
// and its customer constant cust.
func renamedQuery(i int, cust string) string {
	return fmt.Sprintf(`query Q:
  select struct(PN: s%[1]d, PB: p%[1]d.Budg, DN: d%[1]d.DName)
  from Proj p%[1]d, depts d%[1]d, d%[1]d.DProjs s%[1]d
  where p%[1]d.CustName = %[2]q and p%[1]d.PName = s%[1]d;
`, i, cust)
}

// A duplicate field in a select output is the client's 400 naming the
// field, not a panic that drops the connection.
func TestDuplicateOutputFieldIs400(t *testing.T) {
	ts := testServer(t)
	for _, doc := range []string{
		"schema S { R : set<{A: int}>; }\nquery Q: select struct(A: r.A, A: r.A) from R r;",
		"schema S { R : set<{A: int}>; }\ndesign D over S { view V: select struct(A: r.A, A: r.A) from R r; }\nquery Q: select r.A from R r;",
	} {
		status, out := postJSON(t, ts.URL+"/optimize", doc)
		if status != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), `duplicate field "A"`) {
			t.Fatalf("HTTP %d %v, want 400 naming the duplicate field", status, out)
		}
	}
}

// TestDesignCacheChurnMatchesUncached posts, from several goroutines at
// once, the ProjDept design with alpha-renamed queries, a body whose
// queries are followed by a schema (the design cache's fallback), bodies
// with more distinct design prefixes than the cache holds (eviction) and
// bodies with errors after the design. Every response must equal the
// response of a server that parses every body in full. Run under -race
// (make race).
func TestDesignCacheChurnMatchesUncached(t *testing.T) {
	cached := httptest.NewServer(testMux(t, nil))
	defer cached.Close()
	uncached := httptest.NewServer(testMux(t, parser.Parse))
	defer uncached.Close()
	install := `{"workload": "projdept", "gen": {"NumDepts": 20, "ProjsPerDept": 5, "CitiBankShare": 0.3, "Seed": 5}}`
	for _, ts := range []*httptest.Server{cached, uncached} {
		if status, out := postJSON(t, ts.URL+"/instance?name=pd", install); status != http.StatusOK {
			t.Fatalf("install: HTTP %d %v", status, out)
		}
	}

	type request struct{ path, body string }
	var reqs []request
	for i := 0; i < 6; i++ {
		cust := []string{"CitiBank", "Acme"}[i%2]
		reqs = append(reqs, request{"/query?instance=pd", projDeptDesign + renamedQuery(i, cust)})
	}
	reqs = append(reqs,
		request{"/optimize", projDeptDesign + renamedQuery(7, "CitiBank") + "schema Extra { X : set<{A: int}>; }\n"},
		request{"/optimize", projDeptDesign + "query Q: select struct(A: p.PName, A: p.PName) from Proj p;"},
		request{"/query?instance=pd", projDeptDesign + "\n\n  query Q: select p.PName from Proj p where p.Nope = 1;"},
		request{"/optimize?design=Nope", projDeptDesign + renamedQuery(8, "CitiBank")},
	)
	// Distinct prefixes with the same design: every one is a design cache
	// entry of its own but the same plan.
	for i := 0; i < 20; i++ {
		reqs = append(reqs, request{"/query?instance=pd", fmt.Sprintf("-- client %d\n", i) + projDeptDesign + renamedQuery(i, "CitiBank")})
	}

	want := make([]string, len(reqs))
	for i, r := range reqs {
		want[i] = postNormalized(t, uncached.URL+r.path, r.body)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range reqs {
				i := (k*5 + w*7) % len(reqs)
				if got := postNormalized(t, cached.URL+reqs[i].path, reqs[i].body); got != want[i] {
					errs <- fmt.Sprintf("worker %d, %s request %d:\n got %s\nwant %s", w, reqs[i].path, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// testMux is the production mux over a one-worker service; a non-nil
// parse replaces the server's design-cached parser.
func testMux(t *testing.T, parse func(string) (*parser.Document, error)) http.Handler {
	t.Helper()
	s, mux := newServer(service.Options{}, 30*time.Second)
	if parse != nil {
		s.parse = parse
	}
	return mux
}

// postNormalized posts body and renders the status and the response
// without the fields that depend on timing or on which request came
// first (latencies, cache_hit, coalesced).
func postNormalized(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return err.Error()
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return err.Error()
	}
	var kept []string
	for _, line := range strings.Split(string(raw), "\n") {
		switch strings.SplitN(strings.TrimSpace(line), ":", 2)[0] {
		case `"wall_ms"`, `"plan_ms"`, `"exec_ms"`, `"cache_hit"`, `"coalesced"`:
			continue
		}
		kept = append(kept, line)
	}
	return fmt.Sprintf("HTTP %d %s", resp.StatusCode, strings.Join(kept, "\n"))
}
