package cnb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// referenceTwins maps each reference engine's entry point to its defining
// package. The twins are test fixtures and A/B baselines, not product
// paths: only tests, the experiments in internal/bench and the defining
// package may name them. A twin whose home is "" lives in test files
// only: the string-keyed term rewriting, which the backchase's class-id
// construction (congruence.Rewriter) is checked against, and the
// all-canonical pool deduplication optimizer.ExecutablePool is checked
// against.
var referenceTwins = map[string]string{
	"NewNaiveIndex":           "internal/chase",
	"RewriteVariants":         "",
	"rewriteStructural":       "",
	"rebuildChildren":         "",
	"referenceExecutablePool": "",
}

// parseNonTest parses every non-test Go file under root, skipping hidden
// directories, testdata and nested modules, and hands fn each file with
// its slash-separated directory.
func parseNonTest(t *testing.T, fset *token.FileSet, root string, fn func(dir string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			// A nested module is not part of this one.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReferenceTwinsStayFixtures parses every non-test Go file of the
// module and fails on any mention of a reference twin outside the
// allowed places, so no product caller (or cache key) can reach the
// naive chase or the string-keyed rewriting.
func TestReferenceTwinsStayFixtures(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	parseNonTest(t, fset, ".", func(dir string, f *ast.File) {
		if dir == "internal/bench" {
			return
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			// Closure.Rewrite, the string-keyed rewrite's entry point.
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "Rewrite" && fd.Recv != nil {
				if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
					if recv, ok := star.X.(*ast.Ident); ok && recv.Name == "Closure" {
						t.Errorf("%s: reference twin Closure.Rewrite outside tests", fset.Position(fd.Pos()))
					}
				}
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if home, twin := referenceTwins[id.Name]; twin && home == "" {
				t.Errorf("%s: reference twin %s used outside tests", fset.Position(id.Pos()), id.Name)
			} else if twin && dir != home {
				t.Errorf("%s: reference twin %s used outside tests, internal/bench and %s",
					fset.Position(id.Pos()), id.Name, home)
			}
			return true
		})
	})
	if checked == 0 {
		t.Fatal("no Go files checked: the walk must start at the module root")
	}
}

// testOracles are the exported functions under internal/ that only
// tests call, each documented as a test oracle, by name and package
// directory.
var testOracles = map[string]string{
	"SatisfiesAll": "internal/eval",
	"RandomStar":   "internal/workload",
}

// TestNoTestOnlyExports keeps product API that only tests reach from
// growing back. It parses every non-test Go file of the module and of the
// cnbbench harness (a caller only) and fails on any exported function or
// method declared under internal/ whose name appears as an identifier
// nowhere but at function declarations, and on any test oracle that is
// gone or has gained a caller. The rule is by name, with no type check:
// a use of any function of the same name counts.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string][]string{} // name -> "dir/file:line:col" of each declaration under internal/
	for _, root := range []string{".", "cnbbench"} {
		parseNonTest(t, fset, root, func(dir string, f *ast.File) {
			var declName *ast.Ident
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					declName = n.Name
					if strings.HasPrefix(dir, "internal/") && n.Name.IsExported() {
						declared[n.Name.Name] = append(declared[n.Name.Name], fset.Position(n.Name.Pos()).String())
					}
				case *ast.Ident:
					if n != declName {
						used[n.Name] = true
					}
				}
				return true
			})
		})
	}
	if len(declared) == 0 {
		t.Fatal("no exported functions found: the walk must start at the module root")
	}
	for name, at := range declared {
		if _, oracle := testOracles[name]; !oracle && !used[name] {
			t.Errorf("%s: exported %s has no non-test caller; delete it or move it into a _test.go file", strings.Join(at, ", "), name)
		}
	}
	for name, dir := range testOracles {
		if at := declared[name]; len(at) != 1 || !strings.HasPrefix(at[0], dir+"/") || used[name] {
			t.Errorf("test oracle %s of %s is declared at %v and used outside tests: %v; update testOracles", name, dir, at, used[name])
		}
	}
}
