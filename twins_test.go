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

// TestReferenceTwinsStayFixtures parses every non-test Go file of the
// module and fails on any mention of a reference twin outside the
// allowed places, so no product caller (or cache key) can reach the
// naive chase or the string-keyed rewriting.
func TestReferenceTwinsStayFixtures(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "internal/bench" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no Go files checked: the walk must start at the module root")
	}
}
