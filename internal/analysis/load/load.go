// Package load type-checks Go packages from source using only the
// standard library. It is the package loader behind cmd/dwmlint.
//
// The usual way to do this is golang.org/x/tools/go/packages, which is
// unavailable in the hermetic build environment, so load shells out to
// `go list -deps -json` for build metadata (file lists are already
// build-tag filtered and come in dependency order) and then runs
// go/parser + go/types over every package from source, standard library
// included. Everything is cached per Loader, loads are lazy, and the
// result order is the deterministic `go list` order.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// A Package is one type-checked package.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader caches list metadata and type-checked packages. It is not
// safe for concurrent use.
type Loader struct {
	// Fset positions every file the loader touches.
	Fset *token.FileSet

	dir  string // directory `go list` runs from
	meta map[string]*listPkg
	pkgs map[string]*Package
	busy map[string]bool
}

// NewLoader returns a loader that resolves patterns and import paths
// relative to dir (any directory inside the module).
func NewLoader(dir string) *Loader {
	return &Loader{
		Fset: token.NewFileSet(),
		dir:  dir,
		meta: make(map[string]*listPkg),
		pkgs: make(map[string]*Package),
		busy: make(map[string]bool),
	}
}

// Load resolves the `go list` patterns and returns the matched packages
// (dependencies are type-checked too, but only matches are returned),
// in the order go list reports them.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	return l.LoadIn(l.dir, patterns...)
}

// LoadIn is Load with the patterns resolved from dir instead of the
// loader's directory — how a nested module that imports this one (its
// go.mod replaces the outer module with a relative path) joins the same
// loader. Packages both modules import are type-checked once, so their
// objects are shared.
func (l *Loader) LoadIn(dir string, patterns ...string) ([]*Package, error) {
	roots, err := l.list(dir, patterns)
	if err != nil {
		return nil, err
	}
	out := make([]*Package, 0, len(roots))
	for _, path := range roots {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Packages returns every package type-checked so far, dependencies and
// the standard library included, sorted by import path.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// list runs `go list -deps -json` in dir, merges the metadata into the
// cache, and returns the import paths that matched the patterns directly.
func (l *Loader) list(dir string, patterns []string) ([]string, error) {
	args := append([]string{"list", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Analyze the pure-Go build configuration: with cgo enabled, net
	// (pulled in by net/http) imports "C", which a source-only type
	// checker cannot follow. CGO_ENABLED=0 selects the pure-Go variants
	// of those packages without changing anything this module compiles.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var roots []string
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if _, seen := l.meta[p.ImportPath]; !seen {
			l.meta[p.ImportPath] = p
		}
		if !p.DepOnly {
			roots = append(roots, p.ImportPath)
		}
	}
	return roots, nil
}

// load type-checks the package at the import path, loading metadata and
// dependencies on demand.
func (l *Loader) load(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{Path: path, Name: "unsafe", Types: types.Unsafe}, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	m, ok := l.meta[path]
	if !ok {
		if _, err := l.list(l.dir, []string{path}); err != nil {
			return nil, err
		}
		if m, ok = l.meta[path]; !ok {
			return nil, fmt.Errorf("load: go list did not report %s", path)
		}
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	for _, imp := range m.Imports {
		if imp == "C" {
			return nil, fmt.Errorf("load: %s uses cgo, which dwmlint does not support", path)
		}
		if _, err := l.load(l.resolve(m, imp)); err != nil {
			return nil, err
		}
	}

	files := make([]*ast.File, 0, len(m.GoFiles))
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(m.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := l.Check(path, files)
	if err != nil {
		return nil, err
	}
	p.Dir = m.Dir
	return p, nil
}

// resolve applies the importing package's vendor map to an import path.
func (l *Loader) resolve(m *listPkg, imp string) string {
	if mapped, ok := m.ImportMap[imp]; ok {
		return mapped
	}
	return imp
}

// Check type-checks already-parsed files as the package at path,
// resolving their imports through the loader (fetching metadata lazily —
// this is how analyzer test fixtures outside the module are checked).
// The package is cached under path.
func (l *Loader) Check(path string, files []*ast.File) (*Package, error) {
	m := l.meta[path] // nil for out-of-module fixture packages
	var errs []error
	conf := types.Config{
		Sizes: types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) { errs = append(errs, err) },
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if imp == "unsafe" {
				return types.Unsafe, nil
			}
			if m != nil {
				imp = l.resolve(m, imp)
			}
			p, err := l.load(imp)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		err = errs[0]
	}
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Name: tpkg.Name(), Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// ParseDir parses every .go file in dir (lexical order) with comments,
// for fixture directories `go list` cannot see. _test.go files are
// included; the analyzers tell them apart by name.
func (l *Loader) ParseDir(dir string) ([]*ast.File, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("load: no .go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
