package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// TestOnly flags production code that only tests call: a top-level
// function, method or type declared in a non-test file of an internal/
// or cmd/ package that no non-test code references outside its own
// declaration. Such code costs review and maintenance but cannot change
// a result, so it is deleted, or, when it is a test oracle, moved into
// an export_test.go file.
//
// The check is per declaration, against the reference index registered
// with Facts.AddRefs (cmd/dwmlint indexes the whole module plus the
// nested benchmark module, whatever packages it lints). Deleting one
// layer of findings can expose the next; a rerun finds it. Roots are
// whatever lies outside internal/ and cmd/ — the root package, examples/,
// benchmark/ — plus every main and init function. A method whose name
// any loaded interface declares counts as used: the check prefers a
// missed finding to a false one. A package that no non-test code
// imports is test support: it is reported once, at its package clause,
// and its declarations are not checked.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc: "flag functions, methods and types in internal/ and cmd/ that " +
		"no non-test code references, and packages only tests import",
	Run: runTestOnly,
}

// refIndex is the module-wide reference index behind TestOnly.
type refIndex struct {
	// used holds every object a non-test file references outside the
	// object's own declaration (generic methods by their origin).
	used map[types.Object]bool
	// ifaceMethods holds the method names of every interface type in
	// the registered packages, standard library included.
	ifaceMethods map[string]bool
	// imported holds the import paths named by non-test files.
	imported map[string]bool
}

// AddRefs registers a type-checked package with the reference index
// the testonly analyzer consults. Register every package of the program
// under analysis, dependencies included: only then is an interface
// method declared in the standard library known to be used.
func (f *Facts) AddRefs(files []*ast.File, info *types.Info) {
	if f.refs == nil {
		f.refs = &refIndex{
			used:         map[types.Object]bool{},
			ifaceMethods: map[string]bool{},
			imported:     map[string]bool{},
		}
	}
	r := f.refs
	for _, tv := range info.Types {
		if tv.IsType() {
			r.addInterface(tv.Type)
		}
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			r.addInterface(tn.Type())
		}
	}
	for _, file := range files {
		if isTestFile(f.fset, file) {
			continue
		}
		for _, imp := range file.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				r.imported[path] = true
			}
		}
		for _, decl := range file.Decls {
			r.addUses(decl, info)
		}
	}
}

func (r *refIndex) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		r.ifaceMethods[iface.Method(i).Name()] = true
	}
}

// addUses records the objects one top-level declaration references,
// minus its references to itself (recursion, a self-referential type).
func (r *refIndex) addUses(decl ast.Decl, info *types.Info) {
	type span struct {
		obj      types.Object
		pos, end token.Pos
	}
	var own []span
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own = append(own, span{info.Defs[d.Name], d.Pos(), d.End()})
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok {
				own = append(own, span{info.Defs[ts.Name], ts.Pos(), ts.End()})
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		for _, s := range own {
			if s.obj == obj && id.Pos() >= s.pos && id.Pos() < s.end {
				return true
			}
		}
		r.used[obj] = true
		return true
	})
}

// inTestOnlyScope reports whether the package's declarations are
// checked: those under an internal/ or cmd/ path element.
func inTestOnlyScope(pkgPath string) bool {
	for _, elem := range strings.Split(pkgPath, "/") {
		if elem == "internal" || elem == "cmd" {
			return true
		}
	}
	return false
}

func runTestOnly(pass *Pass) error {
	r := pass.Facts.refs
	if r == nil {
		return fmt.Errorf("no reference index: register the program's packages with Facts.AddRefs")
	}
	if !inTestOnlyScope(pass.PkgPath) {
		return nil
	}
	var files []*ast.File
	for _, f := range pass.Files {
		if !isTestFile(pass.Fset, f) {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil
	}
	if pass.Pkg.Name() != "main" && !r.imported[pass.PkgPath] {
		clause := files[0]
		for _, f := range files {
			if f.Doc != nil {
				clause = f
				break
			}
		}
		pass.Reportf(clause.Package, "package %s is imported only by tests; it is test support, so its declarations are not checked", pass.Pkg.Name())
		return nil
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if !ok || r.used[fn] || d.Name.Name == "_" {
					continue
				}
				if d.Recv == nil {
					if d.Name.Name != "init" && d.Name.Name != "main" {
						pass.Reportf(d.Name.Pos(), "func %s has no non-test reference; delete it or move it into a _test.go file", d.Name.Name)
					}
					continue
				}
				if !r.ifaceMethods[d.Name.Name] {
					pass.Reportf(d.Name.Pos(), "method %s.%s has no non-test reference; delete it or move it into a _test.go file", recvName(fn), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name == "_" {
						continue
					}
					if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil && !r.used[obj] {
						pass.Reportf(ts.Name.Pos(), "type %s has no non-test reference; delete it or move it into a _test.go file", ts.Name.Name)
					}
				}
			}
		}
	}
	return nil
}

// recvName names a method's receiver base type.
func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
