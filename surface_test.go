package lit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceKept lists the exported functions and methods that no non-test
// code names but that stay, each with its reason.
var surfaceKept = map[string]string{
	"Unwrap":        "errors.Is and errors.As call it on admission.RejectError",
	"CanonicalSort": "leaves with the shard runtime whose traces it orders (ROADMAP item 1)",
	"QueueTail":     "the one query of the root lit.NDD1, Figure 11's cross-traffic queue",
}

// TestExportedSurfaceHasCallers keeps the exported surface from regrowing.
// Every exported function or method declared in a non-test file of the
// module (bench/, cmd/ and examples/ included) must be named by non-test
// code other than its own declaration, or be listed in surfaceKept with
// its reason. A name that only tests call belongs in a _test.go file, or
// nowhere. Names match by name alone, without types: a call of any
// function or method of that name counts.
func TestExportedSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]token.Pos{}
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decls := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				decls[fn.Name] = true
				if fn.Name.IsExported() {
					declared[fn.Name.Name] = append(declared[fn.Name.Name], fn.Name.Pos())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for name, at := range declared {
		if _, kept := surfaceKept[name]; used[name] || kept {
			continue
		}
		for _, pos := range at {
			unused = append(unused, fset.Position(pos).String()+": "+name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but named only by tests: %s", u)
	}
	for name := range surfaceKept {
		if declared[name] == nil {
			t.Errorf("surfaceKept[%q]: not declared; drop it from the list", name)
		} else if used[name] {
			t.Errorf("surfaceKept[%q]: non-test code names it now; drop it from the list", name)
		}
	}
}
