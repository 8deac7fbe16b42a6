package parser

import "testing"

// fuzzSeeds are documents the fuzz targets start from: the running
// example, its error paths and the shapes the design cache treats
// specially.
var fuzzSeeds = []string{
	projDeptSource,
	projDeptDesignSource + projDeptQuery(1),
	"schema S { R : set<{A: int}>; }\nquery Q: select struct(A: r.A, A: r.A) from R r;",
	"schema S { R : set<{A: int}>; } design D over S { view V: select struct(A: r.A) from R r; }\nquery Q: select v.A from V v;",
	"schema S { R : set<{A: int, B: string}>; }\n-- c\nquery Q: select r.A from R r where r.B = \"x\\\"y\";\nschema T { U : set<{A: int}>; }",
	"schema S { R : set<{A: int}>; }query Q: select r.A from R r;",
	"schema S { R : set<{A: float}>; }\n\nquery Q: select r.A from R r where r.A = 1.5;\nquery Q: select r.A from R r;",
	"schema S { R : set<{A: int}>; }\ndesign D over S { store R; }\ndesign D over S { view V: select struct(A: r.A) from R r; }\nquery Q: select r.A from R r;",
}

// FuzzParse checks that Parse and Target never panic, whatever the input.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		summary(Parse(src))
	})
}

// FuzzCachedParseMatchesParse checks that a parse through a warm design
// cache equals a fresh Parse: the same queries in order, the same
// dependencies and physical names per target, or the same error text
// with its line:col. The cache is warmed with warm; then warm, warm
// followed by tail, and each cached prefix followed by tail are parsed
// through it.
func FuzzCachedParseMatchesParse(f *testing.F) {
	tails := []string{
		"",
		projDeptQuery(2),
		"query Q2: select p.PName from Proj p;\n",
		"schema Extra { X : set<{A: int}>; }\n",
		"query Q: select p.PName from Proj p where p.PName = @;",
		"\"open",
	}
	for i, s := range fuzzSeeds {
		f.Add(s, tails[i%len(tails)])
	}
	f.Fuzz(func(t *testing.T, warm, tail string) {
		c := NewDesignCache()
		srcs := []string{warm, warm, warm + tail}
		for _, src := range srcs {
			checkSame(t, c, src)
		}
		for _, e := range c.envs {
			checkSame(t, c, e.prefix+tail)
		}
	})
}
