package parser

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// summary renders everything a caller sees of a parse: the queries in
// order, every schema's elements and dependencies, and for the default
// target and each design name the picked design, the dependency set and
// the physical names — or the error text, position included.
func summary(doc *Document, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, n := range doc.QueryOrder {
		fmt.Fprintf(&b, "query %s: %s\n", n, doc.Queries[n])
	}
	for _, n := range sortedKeys(doc.Schemas) {
		fmt.Fprintf(&b, "schema %s: %s\n", n, doc.Schemas[n])
	}
	for _, n := range append([]string{"", "NoSuchDesign"}, sortedKeys(doc.Designs)...) {
		t, err := doc.Target(n)
		if err != nil {
			fmt.Fprintf(&b, "target %q: %v\n", n, err)
			continue
		}
		if t.Design != nil {
			fmt.Fprintf(&b, "target %q: design %s\n", n, t.Design.Name)
		}
		for _, d := range t.Deps {
			fmt.Fprintf(&b, "  dep %s\n", d)
		}
		fmt.Fprintf(&b, "  physical %v\n", sortedKeys(t.PhysicalNames))
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// projDeptDesignSource is projDeptSource without its query.
var projDeptDesignSource = projDeptSource[:strings.Index(projDeptSource, "query Q:")]

// projDeptQuery is the §1 query with its variables renamed by i.
func projDeptQuery(i int) string {
	return fmt.Sprintf(`query Q:
  select struct(PN: s%[1]d, PB: p%[1]d.Budg, DN: d%[1]d.DName)
  from depts d%[1]d, d%[1]d.DProjs s%[1]d, Proj p%[1]d
  where s%[1]d = p%[1]d.PName and p%[1]d.CustName = "CitiBank";
`, i)
}

// smallDesign is a one-schema document prefix distinct for every i.
func smallDesign(i int) string {
	return fmt.Sprintf("schema S%d {\n  R : set<{A: int, B: int}>;\n  constraint K: forall (x in R, y in R) x.A = y.A -> x = y;\n}\n", i)
}

// checkSame fails unless parsing src through c gives what Parse gives.
func checkSame(t *testing.T, c *DesignCache, src string) *Document {
	t.Helper()
	doc, err := c.Parse(src)
	got := summary(doc, err)
	if want := summary(Parse(src)); got != want {
		t.Fatalf("cached parse differs from Parse for\n%s\ngot:\n%s\nwant:\n%s", src, got, want)
	}
	return doc
}

func TestDesignCacheHitMatchesParse(t *testing.T) {
	c := NewDesignCache()
	first := checkSame(t, c, projDeptSource)
	if len(c.envs) != 1 || c.envs[0].prefix != projDeptDesignSource {
		t.Fatalf("cached prefixes = %d, want the design before the query", len(c.envs))
	}
	for i := 0; i < 3; i++ {
		doc := checkSame(t, c, projDeptDesignSource+projDeptQuery(i))
		// A hit shares the compiled design; a full parse builds its own.
		if doc.Designs["Phys"] != first.Designs["Phys"] {
			t.Fatalf("request %d did not reuse the cached design", i)
		}
	}
	// Several queries, comments and trailing text after the cut.
	checkSame(t, c, projDeptDesignSource+"-- two queries\n"+projDeptQuery(1)+"query R: select p.PName from Proj p;\n// done\n")
	checkSame(t, c, projDeptDesignSource)
	if len(c.envs) != 1 {
		t.Fatalf("cached prefixes = %d, want 1", len(c.envs))
	}
}

// An error after the cut must read exactly as from a full parse: the
// suffix lexer starts at the cut's line and column.
func TestDesignCacheErrorPositions(t *testing.T) {
	c := NewDesignCache()
	checkSame(t, c, projDeptSource)
	for _, tail := range []string{
		"query Q: select p.PName from Proj p\n  where p.PName = @;",
		"query Q: select p.PName from Proj p where p.Nope = 1;",
		"query Q: select p.PName from Proj p;\nquery Q: select p.PName from Proj p;",
		"query Q: select p.PName from Nowhere p;",
		"query Q: select struct(A: p.PName, A: p.PName) from Proj p;",
		"query Q: select p.PName from Proj p where p.PName = \"open",
		"query Q: select p.PName from Proj p where p.Budg = 99999999999999999999;",
		"bogus",
		"  \n\n\t  query",
	} {
		src := projDeptDesignSource + "\n\n  " + tail
		doc, err := c.Parse(src)
		if err == nil {
			t.Fatalf("%q parsed, want an error", tail)
		}
		if got, want := summary(doc, err), summary(Parse(src)); got != want {
			t.Fatalf("%q: cached %s, full %s", tail, got, want)
		}
	}
}

// A document whose rest declares another schema or design is parsed in
// full; the cached environment stays as it was.
func TestDesignCacheFallback(t *testing.T) {
	c := NewDesignCache()
	first := checkSame(t, c, projDeptSource)
	env := c.envs[0]
	for _, tail := range []string{
		"schema Extra { X : set<{A: int}>; }\nquery Q: select x.A from X x;\n",
		projDeptQuery(1) + "schema Extra { X : set<{A: int}>; }\n",
		projDeptQuery(1) + "design Phys2 over Logical { store Proj; }\n",
		projDeptQuery(1) + "design Phys over Logical { store Proj; }\n",
	} {
		checkSame(t, c, projDeptDesignSource+tail)
	}
	// The first tail's schema statement comes before its query, so that
	// document's longer prefix is cached beside the original.
	if len(c.envs) != 2 || c.lookup(projDeptSource) != env {
		t.Fatalf("cache holds %d prefixes, want the original and one longer", len(c.envs))
	}
	if len(env.schemas) != 1 || len(env.designs) != 1 || env.all.Has("X") || env.known["X"] {
		t.Fatal("a fallback parse changed the cached environment")
	}
	if doc := checkSame(t, c, projDeptDesignSource+projDeptQuery(2)); doc.Designs["Phys"] != first.Designs["Phys"] {
		t.Fatal("the cached design was lost after a fallback")
	}
}

// Only a prefix of schema and design statements that ends in whitespace
// before the first query is cached, and only from a successful parse.
func TestDesignCacheNotCacheable(t *testing.T) {
	for _, src := range []string{
		"query Q: select 1 from R r;",
		projDeptQuery(1),
		strings.TrimRight(projDeptDesignSource, "\n") + projDeptQuery(1),
		projDeptSource + "schema Extra { X : set<{A: int}>; }\n",
		projDeptDesignSource + "query Q: select p.Nope from Proj p;",
		projDeptDesignSource,
	} {
		c := NewDesignCache()
		checkSame(t, c, src)
		if len(c.envs) != 0 {
			t.Errorf("cached a prefix of %q", src)
		}
	}
}

// The maps of a returned document are its own: changing them does not
// reach the cache or the next document.
func TestDesignCacheCopiesMaps(t *testing.T) {
	c := NewDesignCache()
	for i := 0; i < 2; i++ {
		doc := checkSame(t, c, projDeptDesignSource+projDeptQuery(i))
		delete(doc.Schemas, "Logical")
		doc.Designs["Other"] = doc.Designs["Phys"]
		delete(doc.Designs, "Phys")
	}
	checkSame(t, c, projDeptDesignSource+projDeptQuery(3))
}

func TestDesignCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewDesignCache()
	query := "query Q: select struct(A: r.A) from R r where r.B = 1;\n"
	docs := make([]*Document, designCacheSize+1)
	for i := range docs {
		docs[i] = checkSame(t, c, smallDesign(i)+query)
		// Keep design 0 the most recently used.
		checkSame(t, c, smallDesign(0)+query)
	}
	if len(c.envs) != designCacheSize {
		t.Fatalf("cache holds %d prefixes, want %d", len(c.envs), designCacheSize)
	}
	hit := func(i int) bool {
		doc := checkSame(t, c, smallDesign(i)+query)
		name := fmt.Sprintf("S%d", i)
		return doc.Schemas[name] == docs[i].Schemas[name]
	}
	if !hit(0) || !hit(designCacheSize) {
		t.Fatal("a recently used design was evicted")
	}
	if hit(1) {
		t.Fatal("the least recently used design was kept")
	}
}

// A document matching several cached prefixes continues from the
// longest one.
func TestDesignCacheLongestPrefix(t *testing.T) {
	c := NewDesignCache()
	schemaOnly := smallDesign(1)
	withDesign := schemaOnly + "design D over S1 {\n  secondary index SI on R(B);\n}\n"
	query := "query Q: select struct(A: r.A) from R r where r.B = 1;\n"
	checkSame(t, c, schemaOnly+query)
	long := checkSame(t, c, withDesign+query)
	checkSame(t, c, schemaOnly+query)
	if doc := checkSame(t, c, withDesign+query); doc.Designs["D"] != long.Designs["D"] {
		t.Fatal("did not continue from the longest cached prefix")
	}
}

// TestDesignCacheConcurrentChurn parses, from many goroutines at once,
// alpha-renamed copies of one design's query, documents whose rest
// declares a schema (the fallback), and more distinct designs than the
// cache holds (eviction); every result must equal Parse's. Run under
// -race (make race).
func TestDesignCacheConcurrentChurn(t *testing.T) {
	c := NewDesignCache()
	var srcs []string
	for i := 0; i < 8; i++ {
		srcs = append(srcs, projDeptDesignSource+projDeptQuery(i))
	}
	srcs = append(srcs, projDeptDesignSource+projDeptQuery(0)+"schema Extra { X : set<{A: int}>; }\n")
	for i := 0; i < designCacheSize+4; i++ {
		srcs = append(srcs, smallDesign(i)+fmt.Sprintf("query Q: select struct(A: r%d.A) from R r%d;\n", i, i))
	}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = summary(Parse(src))
	}
	const workers, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range srcs {
					i := (k*7 + w*3 + r) % len(srcs)
					if got := summary(c.Parse(srcs[i])); got != want[i] {
						errs <- fmt.Sprintf("worker %d: document %d differs:\n%s\nwant:\n%s", w, i, got, want[i])
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

// Duplicate output fields of a struct constructor are a parse error with
// a position, in a query and in a view, as they are in record types.
func TestDuplicateStructFieldRejected(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{
			"schema S { R : set<{A: int}>; }\nquery Q: select struct(A: r.A, A: r.A) from R r;",
			`parse error at 2:33: duplicate field "A"`,
		},
		{
			"schema S { R : set<{A: int}>; }\ndesign D over S {\n  view V: select struct(A: r.A, A: r.A) from R r;\n}",
			`parse error at 3:34: duplicate field "A"`,
		},
		{
			"schema S { R : set<{A: int, A: int}>; }",
			`parse error at 1:30: duplicate field "A"`,
		},
	} {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) error %v, want %s", c.src, err, c.want)
		}
	}
}

// The lexer slices identifier, number and punctuation text from the
// source and sizes its token slice up front: lexing a document without
// escaped strings allocates the slice and nothing else.
func TestLexAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() {
		if _, err := lexAll(projDeptSource); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("lexAll(ProjDept) = %v allocs, want 1", n)
	}
	toks, err := lexAll(`"a\"b\\c" "plain"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != `a"b\c` || toks[1].text != "plain" {
		t.Errorf("string literals lexed as %q, %q", toks[0].text, toks[1].text)
	}
}
