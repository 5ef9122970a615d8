package lit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// admissionBuilders are the admission package's constructors and its
// route walk: what builds controllers and decides a session's grants.
var admissionBuilders = map[string]bool{
	"New": true, "NewClassController": true, "NewProcedure1": true,
	"NewProcedure2": true, "NewProcedure3": true, "Establish": true,
}

// admissionOwners are the internal packages that may use them: the
// procedures themselves; system, the one builder of the controllers
// and grants of a document or a figure; and serve, whose daemon keeps
// one controller and curve gate per hosted link, a different object.
var admissionOwners = map[string]bool{"admission": true, "system": true, "serve": true}

// TestOneAdmissionPath: no non-test file under internal/ outside
// admissionOwners names an admissionBuilders function. Everything else
// takes its controllers and grants from a system.System, so the
// harness, the figures and the runner cannot decide a grant two ways.
func TestOneAdmissionPath(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if d.Name() == "testdata" || filepath.Dir(p) == "internal" && admissionOwners[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		case !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := ""
		for _, im := range f.Imports {
			if im.Path.Value == `"leaveintime/internal/admission"` {
				name = "admission"
				if im.Name != nil {
					name = im.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if ok && admissionBuilders[sel.Sel.Name] {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
					t.Errorf("%s: admission.%s outside admission, system and serve; take the controllers and grants from a system.System",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
