package lit

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceKept lists the exported names that no non-test code reaches but
// that stay, each with its reason. A key is the package path and the
// name, with the receiver's type name before a method's:
// "leaveintime/internal/admission.RejectError.Unwrap".
var surfaceKept = map[string]string{
	"leaveintime/internal/admission.RejectError.Unwrap": "errors.Is and errors.As call it on a refusal",
	"leaveintime.ErrRejected":                           "the documented error contract of every admission refusal: what errors.Is compares against",
	"leaveintime.RejectError":                           "the documented error contract of procedures 1 and 2: what errors.As unwraps a refusal to",
	"leaveintime/internal/trace.CanonicalSort":          "leaves with the shard runtime whose traces it orders (ROADMAP item 1)",
	"leaveintime/internal/calculus.Convolve":            "eq. 12 is derived through it in the calculus (ROADMAP item 5)",
	"leaveintime/internal/calculus.HorizontalDeviation": "eq. 12 is derived through it in the calculus (ROADMAP item 5)",
	"leaveintime.ErrUnstable":                           "the documented error contract of BusyPeriodBound and TandemDelayBound: what errors.Is compares against",
	"leaveintime/internal/traffic.Trace":                "the scripted source the network, packet and scenarios tests drive; a _test.go file cannot be shared across packages",
	"leaveintime/internal/intern.Table.Census":          "the core and admission tests check their interned tables' links and live entries through it; a _test.go file cannot be shared across packages",
}

// surfaceInterfaces are the interfaces outside the module whose methods
// a module type keeps by implementing them. The module's own live
// interfaces count as well.
var surfaceInterfaces = [][2]string{{"", "error"}, {"fmt", "Stringer"}, {"encoding/json", "Marshaler"}}

// TestExportedSurfaceHasCallers keeps the exported surface from regrowing.
// It type-checks every non-test package of the module (bench/, cmd/ and
// examples/ included) and marks what is reached from the main and init
// functions, following each identifier to the object it resolves to. An
// exported function, method, type, constant or variable must be reached,
// or be listed in surfaceKept with its reason; what only an unreached
// name reaches is unreached too. A method is also reached when its type
// is and the method completes an interface the type implements (one of
// the module's own live interfaces, or one in surfaceInterfaces). A root
// type alias is also reached when the type it names appears in the
// exported API of a reached root name: callers must be able to name what
// they are handed.
func TestExportedSurfaceHasCallers(t *testing.T) {
	m := loadSurface(t)
	reachedAlone := m.reach(nil)
	var kept []types.Object
	for key := range surfaceKept {
		obj := m.byKey[key]
		switch {
		case obj == nil:
			t.Errorf("surfaceKept[%q]: not declared; drop it from the list", key)
		case reachedAlone[obj]:
			t.Errorf("surfaceKept[%q]: non-test code reaches it now; drop it from the list", key)
		default:
			kept = append(kept, obj)
		}
	}
	reached := m.reach(kept)
	var unused []string
	for key, obj := range m.byKey {
		if !reached[obj] {
			unused = append(unused, m.fset.Position(obj.Pos()).String()+": "+key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but reached only by tests: %s", u)
	}
}

// surface is the type-checked module: every package-level object and
// method with the objects its declaration names.
type surface struct {
	fset   *token.FileSet
	root   *types.Package
	byKey  map[string]types.Object           // exported objects, by surfaceKept key
	uses   map[types.Object][]types.Object   // declaration -> what it names
	starts []types.Object                    // main and init functions
	ifaces []*types.Interface                // surfaceInterfaces
	named  map[*types.Named][]*types.Named   // generic type -> its instances
	isFace map[types.Object]*types.Interface // the module's interface types
}

// loadSurface parses and type-checks the non-test files of every package
// under the current directory, the module root. Standard-library packages
// come from the export data `go list -export` names.
func loadSurface(t *testing.T) *surface {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	var modPath string
	for sc := bufio.NewScanner(bytes.NewReader(mod)); sc.Scan(); {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	m := &surface{
		fset:   token.NewFileSet(),
		byKey:  map[string]types.Object{},
		uses:   map[types.Object][]types.Object{},
		named:  map[*types.Named][]*types.Named{},
		isFace: map[types.Object]*types.Interface{},
	}
	files := map[string][]*ast.File{}
	std := map[string]bool{"fmt": true, "encoding/json": true}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(modPath, filepath.ToSlash(dir))
		files[pkg] = append(files[pkg], f)
		for _, im := range f.Imports {
			if ip := strings.Trim(im.Path.Value, `"`); files[ip] == nil && !strings.HasPrefix(ip, modPath) {
				std[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	gc := stdImporter(t, m.fset, std)
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if pkg := checked[p]; pkg != nil {
			return pkg, nil
		}
		if files[p] == nil {
			return gc.Import(p)
		}
		info := &types.Info{
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p, m.fset, files[p], info)
		if err != nil {
			return nil, err
		}
		checked[p] = pkg
		m.index(pkg, files[p], info)
		return pkg, nil
	}
	for p := range files {
		if _, err := imp(p); err != nil {
			t.Fatal(err)
		}
	}
	m.root = checked[modPath]
	for _, ifc := range surfaceInterfaces {
		scope := types.Universe
		if ifc[0] != "" {
			pkg, err := imp(ifc[0])
			if err != nil {
				t.Fatal(err)
			}
			scope = pkg.Scope()
		}
		m.ifaces = append(m.ifaces, scope.Lookup(ifc[1]).Type().Underlying().(*types.Interface))
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdImporter reads standard-library packages from their export data,
// found by one `go list -export -deps` over the packages imported.
func stdImporter(t *testing.T, fset *token.FileSet, std map[string]bool) types.Importer {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range std {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if p, file, ok := strings.Cut(line, "="); ok {
			export[p] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		return os.Open(export[p])
	})
}

// index records one checked package's declarations: each package-level
// object and method with the module objects its syntax names, the
// exported ones by key, the main and init functions, the interface types
// and the instances of generic types.
func (m *surface) index(pkg *types.Package, files []*ast.File, info *types.Info) {
	named := func(objs []types.Object, decl ast.Node) {
		var uses []types.Object
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				uses = append(uses, origin(info.Uses[id]))
			}
			return true
		})
		for _, obj := range objs {
			if tn := typeName(obj.Type()); tn != nil {
				uses = append(uses, tn)
			}
			m.uses[obj] = append(m.uses[obj], uses...)
			if obj.Exported() {
				m.byKey[surfaceKey(obj)] = obj
			}
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[decl.Name]
				named([]types.Object{fn}, decl)
				if decl.Recv == nil && (decl.Name.Name == "init" || decl.Name.Name == "main" && pkg.Name() == "main") {
					m.starts = append(m.starts, fn)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						tn := info.Defs[spec.Name]
						named([]types.Object{tn}, spec)
						if ifc, ok := tn.Type().Underlying().(*types.Interface); ok && !tn.(*types.TypeName).IsAlias() {
							m.isFace[tn] = ifc
						}
					case *ast.ValueSpec:
						var objs []types.Object
						for _, id := range spec.Names {
							if id.Name != "_" {
								objs = append(objs, info.Defs[id])
							}
						}
						named(objs, spec)
					}
				}
			}
		}
	}
	for _, inst := range info.Instances {
		if n, ok := inst.Type.(*types.Named); ok {
			m.named[n.Origin()] = append(m.named[n.Origin()], n)
		}
	}
}

// reach returns what the main and init functions and the extra roots
// reach, closed under the method-set and root-alias rules.
func (m *surface) reach(extra []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if obj != nil && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	for _, obj := range append(append([]types.Object(nil), m.starts...), extra...) {
		mark(obj)
	}
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			for _, u := range m.uses[obj] {
				mark(u)
			}
		}
		// Methods that complete a live interface on a live type.
		ifaces := append([]*types.Interface(nil), m.ifaces...)
		for obj, ifc := range m.isFace {
			if reached[obj] {
				ifaces = append(ifaces, ifc)
			}
		}
		for obj := range m.uses {
			tn, ok := obj.(*types.TypeName)
			if !ok || !reached[obj] || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			insts := []*types.Named{n}
			if n.TypeParams() != nil {
				insts = m.named[n]
			}
			for _, inst := range insts {
				for _, recv := range []types.Type{inst, types.NewPointer(inst)} {
					ms := types.NewMethodSet(recv)
					for _, ifc := range ifaces {
						if !types.Implements(recv, ifc) {
							continue
						}
						for i := 0; i < ifc.NumMethods(); i++ {
							im := ifc.Method(i)
							if sel := ms.Lookup(im.Pkg(), im.Name()); sel != nil {
								mark(origin(sel.Obj()))
							}
						}
					}
				}
			}
		}
		// Root aliases of the types a reached root name hands its callers.
		api := map[*types.Named]bool{}
		for _, name := range m.root.Scope().Names() {
			if obj := m.root.Scope().Lookup(name); reached[obj] && obj.Exported() {
				m.apiTypes(obj.Type(), api, reached)
			}
		}
		for _, name := range m.root.Scope().Names() {
			obj := m.root.Scope().Lookup(name)
			if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok && api[n] {
					mark(obj)
				}
			}
		}
		if len(work) == 0 {
			return reached
		}
	}
}

// apiTypes adds to api the named types a caller of t can be handed:
// those in its signatures, exported fields, interface methods and
// reached exported methods, followed through every type found.
func (m *surface) apiTypes(t types.Type, api map[*types.Named]bool, reached map[types.Object]bool) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if api[t] || t.Obj().Pkg() == nil || !strings.HasPrefix(t.Obj().Pkg().Path(), m.root.Path()) {
			return
		}
		api[t] = true
		for i := 0; i < t.TypeArgs().Len(); i++ {
			m.apiTypes(t.TypeArgs().At(i), api, reached)
		}
		ms := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < ms.Len(); i++ {
			if fn := ms.At(i).Obj(); fn.Exported() && reached[origin(fn)] {
				m.apiTypes(fn.Type(), api, reached)
			}
		}
		m.apiTypes(t.Underlying(), api, reached)
	case *types.Pointer:
		m.apiTypes(t.Elem(), api, reached)
	case *types.Slice:
		m.apiTypes(t.Elem(), api, reached)
	case *types.Array:
		m.apiTypes(t.Elem(), api, reached)
	case *types.Chan:
		m.apiTypes(t.Elem(), api, reached)
	case *types.Map:
		m.apiTypes(t.Key(), api, reached)
		m.apiTypes(t.Elem(), api, reached)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				m.apiTypes(tup.At(i).Type(), api, reached)
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				m.apiTypes(f.Type(), api, reached)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			m.apiTypes(t.Method(i).Type(), api, reached)
		}
	}
}

// origin maps an instantiated generic function, method or field back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// typeName is the declared name of t, if it has one.
func typeName(t types.Type) types.Object {
	switch t := t.(type) {
	case *types.Named:
		return t.Origin().Obj()
	case *types.Alias:
		return t.Obj()
	}
	return nil
}

// surfaceKey names obj as surfaceKept does.
func surfaceKey(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name = typeName(t).Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}
