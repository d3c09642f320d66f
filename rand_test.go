// Generator guard: the simulators and the optimizer draw every random number
// from one PCG stream per engine run, built by the engine's own stream
// constructor, so a draw is reproducible from the engine's seed alone.
package spacedc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// streamPackages are the packages whose engines draw from PCG streams.
var streamPackages = []string{"sched", "netsim", "qos", "workload", "optimize", "resilience"}

// TestEnginesDrawFromOwnStreams fails when a non-test file of an engine
// package imports math/rand, whose sources are slow to seed and which the
// engines no longer use, or calls a package-level function of math/rand/v2
// other than New and NewPCG: the package-level draws read a shared,
// randomly seeded source, so a run using them would not be reproducible.
func TestEnginesDrawFromOwnStreams(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range streamPackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			v2 := ""
			for _, imp := range f.Imports {
				switch p, _ := strconv.Unquote(imp.Path.Value); p {
				case "math/rand":
					t.Errorf("%s imports math/rand", path)
				case "math/rand/v2":
					v2 = "rand"
					if imp.Name != nil {
						v2 = imp.Name.Name
					}
				}
			}
			if v2 == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == v2 && sel.Sel.Name != "New" && sel.Sel.Name != "NewPCG" {
					t.Errorf("%s: calls %s.%s", fset.Position(call.Pos()), v2, sel.Sel.Name)
				}
				return true
			})
		}
		if checked == 0 {
			t.Errorf("no non-test files in internal/%s", pkg)
		}
	}
}
