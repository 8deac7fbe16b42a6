package service

import (
	"fmt"
	"sync"
	"testing"

	"cnb/internal/parser"
)

// keyedDesign is a schema and physical design distinct for every i.
func keyedDesign(i int) string {
	return fmt.Sprintf(`schema S {
  R : set<{A: int, B: string}>;
  constraint K%d: forall (x in R, y in R) x.A = y.A -> x = y;
}
design D over S {
  store R;
  secondary index SI on R(B);
}
`, i)
}

// keyedQuery is the same query with its variable renamed by i.
func keyedQuery(i int) string {
	return fmt.Sprintf("query Q: select struct(A: r%[1]d.A) from R r%[1]d where r%[1]d.B = \"b\";\n", i)
}

// parsedKeys parses src and returns the flight key of each of its
// queries against the document's default target, or the error text.
func parsedKeys(parse func(string) (*parser.Document, error), src string) string {
	doc, err := parse(src)
	if err != nil {
		return err.Error()
	}
	target, err := doc.Target("")
	if err != nil {
		return err.Error()
	}
	var keys string
	for _, name := range doc.QueryOrder {
		keys += flightKey(Request{Query: doc.Queries[name], Deps: target.Deps, PhysicalNames: target.PhysicalNames}) + "\n"
	}
	return keys
}

// TestFlightKeyCachedParse: a request assembled from a document parsed
// through a parser.DesignCache has exactly the flight key of a fresh
// parser.Parse of the same body, whether the design was cached, the
// body's rest declares a schema (the cache's fallback) or more designs
// were sent than the cache holds (eviction), with many goroutines at
// once. Run under -race (make race).
func TestFlightKeyCachedParse(t *testing.T) {
	var srcs []string
	for i := 0; i < 6; i++ {
		srcs = append(srcs, keyedDesign(0)+keyedQuery(i))
	}
	srcs = append(srcs, keyedDesign(0)+keyedQuery(9)+"schema T { U : set<{A: int}>; }\n")
	for i := 1; i < 20; i++ {
		srcs = append(srcs, keyedDesign(i)+keyedQuery(i))
	}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = parsedKeys(parser.Parse, src)
	}
	if want[0] != want[5] || want[0] == want[7] {
		t.Fatal("renamed queries over one design must share a key, other designs must not")
	}
	cache := parser.NewDesignCache()
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for k := range srcs {
					i := (k*5 + w*3 + r) % len(srcs)
					if got := parsedKeys(cache.Parse, srcs[i]); got != want[i] {
						errs <- fmt.Sprintf("worker %d, document %d: key\n%q\nwant\n%q", w, i, got, want[i])
						return
					}
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
