package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Facts is the cross-package fact store of DESIGN.md §14. It answers
// questions about functions in other packages — does this callee write
// through its slice parameter, retain it, return an alias of it, or
// mutate anything at all — so analyzers can reason across package
// boundaries instead of allowlisting call sites per file.
//
// Facts are computed lazily from the registered packages' typed ASTs
// and memoized per function, so a whole-module dwmlint run only pays
// for the functions actually reached from a tracked value. Callees in
// unregistered packages have no facts and are judged optimistically
// (no finding), with a small built-in table covering the stdlib
// functions that matter (sort.*, slices.*).
type Facts struct {
	fset *token.FileSet
	pkgs []factPkg

	indexed bool
	funcs   map[*types.Func]funcSource

	slice     map[*types.Func]*SliceFacts
	sliceBusy map[*types.Func]bool

	fieldWritten map[*types.Var]bool
	fieldBusy    map[*types.Var]bool

	pure     map[*types.Func]bool
	pureBusy map[*types.Func]bool

	// refs is the testonly reference index, nil until AddRefs.
	refs *refIndex
}

type factPkg struct {
	files []*ast.File
	info  *types.Info
}

type funcSource struct {
	decl *ast.FuncDecl
	info *types.Info
}

// NewFacts returns an empty store; register packages with AddPackage.
func NewFacts(fset *token.FileSet) *Facts {
	return &Facts{
		fset:         fset,
		funcs:        map[*types.Func]funcSource{},
		slice:        map[*types.Func]*SliceFacts{},
		sliceBusy:    map[*types.Func]bool{},
		fieldWritten: map[*types.Var]bool{},
		fieldBusy:    map[*types.Var]bool{},
		pure:         map[*types.Func]bool{},
		pureBusy:     map[*types.Func]bool{},
	}
}

// AddPackage registers a type-checked package as a fact source.
func (f *Facts) AddPackage(files []*ast.File, info *types.Info) {
	f.pkgs = append(f.pkgs, factPkg{files: files, info: info})
	f.indexed = false
}

// index builds the object → declaration table for every registered
// package, once per registration epoch.
func (f *Facts) index() {
	if f.indexed {
		return
	}
	f.indexed = true
	for _, p := range f.pkgs {
		for _, file := range p.files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
					f.funcs[fn] = funcSource{decl: fd, info: p.info}
				}
			}
		}
	}
}

// SliceParamFact summarizes what a callee does with one slice-typed
// parameter.
type SliceParamFact struct {
	// Written: an element of the parameter's backing array is written
	// (directly, via copy, or transitively through a callee).
	Written bool
	// Retained: the parameter (or an alias) is stored into a struct
	// field or package-level variable, so it outlives the call.
	Retained bool
	// ReturnedAlias: the function returns the parameter or an alias of
	// it, so the caller's result shares backing memory with the input.
	ReturnedAlias bool
	// EscapesMutable: retained into a field that is itself written
	// through somewhere — the caller's slice is now aliased by mutable
	// state. This is the PR 7 Warmstart bug shape.
	EscapesMutable bool
}

// SliceFacts holds per-parameter facts, indexed by parameter position
// (receivers excluded).
type SliceFacts struct {
	Params []SliceParamFact
}

func (s *SliceFacts) param(i int) *SliceParamFact {
	if s == nil || len(s.Params) == 0 {
		return nil
	}
	if i >= len(s.Params) {
		// Variadic callee: trailing arguments share the final
		// parameter's fact.
		i = len(s.Params) - 1
	}
	if i < 0 {
		return nil
	}
	return &s.Params[i]
}

// builtinSliceFacts covers the stdlib functions the module calls with
// slices; everything else in the stdlib is judged optimistically.
var builtinSliceFacts = map[string]*SliceFacts{
	"sort.Ints":             {Params: []SliceParamFact{{Written: true}}},
	"sort.Strings":          {Params: []SliceParamFact{{Written: true}}},
	"sort.Float64s":         {Params: []SliceParamFact{{Written: true}}},
	"sort.Slice":            {Params: []SliceParamFact{{Written: true}}},
	"sort.SliceStable":      {Params: []SliceParamFact{{Written: true}}},
	"slices.Sort":           {Params: []SliceParamFact{{Written: true}}},
	"slices.SortFunc":       {Params: []SliceParamFact{{Written: true}}},
	"slices.SortStableFunc": {Params: []SliceParamFact{{Written: true}}},
	"slices.Reverse":        {Params: []SliceParamFact{{Written: true}}},
	"slices.Clone":          {Params: []SliceParamFact{{}}},
}

// SliceFacts returns the per-parameter facts for fn, or nil when fn is
// not declared in a registered package (unknown callees are judged
// optimistically by the analyzers).
func (f *Facts) SliceFacts(fn *types.Func) *SliceFacts {
	if fn == nil {
		return nil
	}
	fn = fn.Origin()
	if bf, ok := builtinSliceFacts[fn.FullName()]; ok {
		return bf
	}
	f.index()
	if cached, ok := f.slice[fn]; ok {
		return cached
	}
	src, ok := f.funcs[fn]
	if !ok {
		return nil
	}
	if f.sliceBusy[fn] {
		// Recursion: judge the cycle optimistically; the outer
		// invocation will record the fixed result.
		return nil
	}
	f.sliceBusy[fn] = true
	defer delete(f.sliceBusy, fn)

	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		f.slice[fn] = nil
		return nil
	}
	facts := &SliceFacts{Params: make([]SliceParamFact, sig.Params().Len())}
	// Map parameter objects to their positions so tracker events can be
	// attributed.
	paramIdx := map[*types.Var]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		paramIdx[sig.Params().At(i)] = i
	}
	retainedFields := map[int][]*types.Var{}
	trackSlices(src.info, f, src.decl, func(ev sliceEvent) {
		if ev.src.field != "" {
			// Facts describe slice parameters; struct-field aliases are
			// a caller-side concern handled by the analyzer directly.
			return
		}
		i, ok := paramIdx[ev.src.param]
		if !ok {
			return
		}
		pf := &facts.Params[i]
		switch ev.kind {
		case eventWritten:
			pf.Written = true
		case eventRetainedField:
			pf.Retained = true
			if ev.field != nil {
				retainedFields[i] = append(retainedFields[i], ev.field)
			}
		case eventRetainedGlobal:
			pf.Retained = true
			pf.EscapesMutable = true
		case eventReturned:
			pf.ReturnedAlias = true
		case eventPassed:
			if cf := f.SliceFacts(ev.callee); cf != nil {
				if sub := cf.param(ev.argIdx); sub != nil {
					pf.Written = pf.Written || sub.Written
					pf.Retained = pf.Retained || sub.Retained
					pf.EscapesMutable = pf.EscapesMutable || sub.EscapesMutable
				}
			}
		}
	})
	for i, fields := range retainedFields {
		for _, fld := range fields {
			if f.FieldElementWritten(fld) {
				facts.Params[i].EscapesMutable = true
			}
		}
	}
	f.slice[fn] = facts
	return facts
}

// FieldElementWritten reports whether any registered code writes through
// the given struct field's slice value — an index assignment x.f[i]=v,
// copy(x.f, …), or passing x.f to a callee that writes its parameter.
// Reassigning the whole field (x.f = v) does not count: that replaces
// the alias rather than mutating the shared backing array.
func (f *Facts) FieldElementWritten(field *types.Var) bool {
	if field == nil || !isSliceType(field.Type()) {
		return false
	}
	f.index()
	if cached, ok := f.fieldWritten[field]; ok {
		return cached
	}
	if f.fieldBusy[field] {
		return false
	}
	f.fieldBusy[field] = true
	defer delete(f.fieldBusy, field)

	written := false
	for _, p := range f.pkgs {
		if written {
			break
		}
		for _, file := range p.files {
			if written {
				break
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if f.fieldWrittenIn(p.info, fd, field) {
					written = true
					break
				}
			}
		}
	}
	f.fieldWritten[field] = written
	return written
}

// fieldWrittenIn scans one function for element writes through the
// field. Writes through locally-allocated values are construction of a
// fresh instance, not mutation of shared state, and do not count — the
// buildRows / spliceRows pattern.
func (f *Facts) fieldWrittenIn(info *types.Info, fd *ast.FuncDecl, field *types.Var) bool {
	local := localAllocs(info, fd.Body)
	written := false
	selects := func(e ast.Expr) bool {
		if !f.selectsField(info, e, field) {
			return false
		}
		if root := rootIdent(e); root != nil {
			if obj := info.ObjectOf(root); obj != nil && local[obj] {
				return false
			}
		}
		return true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if written {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if selects(idx.X) {
						written = true
					}
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if selects(idx.X) {
					written = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if id.Name == "copy" && len(n.Args) == 2 && selects(n.Args[0]) {
						written = true
					}
					return true
				}
			}
			callee := calleeFunc(info, n)
			if callee == nil {
				return true
			}
			for i, arg := range n.Args {
				if !selects(arg) {
					continue
				}
				if cf := f.SliceFacts(callee); cf != nil {
					if pf := cf.param(i); pf != nil && pf.Written {
						written = true
					}
				}
			}
		}
		return true
	})
	return written
}

// selectsField reports whether e is a selector (possibly sliced) whose
// resolved field object is field.
func (f *Facts) selectsField(info *types.Info, e ast.Expr, field *types.Var) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return sel.Obj() == field
			}
			return false
		default:
			return false
		}
	}
}

// MutationFree reports whether fn provably writes no memory that
// outlives the call: no assignments through pointers, slices, maps, or
// fields of non-local values, no channel operations, no goroutines, and
// only callees that are themselves mutation-free. Unknown callees make
// the answer false — purity must be proven, not assumed. This is how
// "graph.Graph accessors are mutation-free" propagates to other packages
// instead of being allowlisted per file.
func (f *Facts) MutationFree(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	fn = fn.Origin()
	f.index()
	if cached, ok := f.pure[fn]; ok {
		return cached
	}
	src, ok := f.funcs[fn]
	if !ok || src.decl.Body == nil {
		return false
	}
	if f.pureBusy[fn] {
		// A recursive cycle is pure if every other path is.
		return true
	}
	f.pureBusy[fn] = true
	defer delete(f.pureBusy, fn)

	local := localAllocs(src.info, src.decl.Body)
	// An object declared inside the function (and not a parameter or
	// receiver) is local by position; writes through it still need a
	// local allocation to be provably private.
	pure := true
	writeTarget := func(lhs ast.Expr) {
		lhs = ast.Unparen(lhs)
		if _, ok := lhs.(*ast.Ident); ok {
			return // rebinding a variable is always local
		}
		root := rootIdent(lhs)
		if root == nil {
			pure = false
			return
		}
		obj := src.info.ObjectOf(root)
		if obj == nil || !local[obj] {
			pure = false
		}
	}
	ast.Inspect(src.decl.Body, func(n ast.Node) bool {
		if !pure {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writeTarget(lhs)
			}
		case *ast.IncDecStmt:
			writeTarget(n.X)
		case *ast.SendStmt, *ast.GoStmt:
			pure = false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := src.info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "len", "cap", "min", "max", "make", "new", "panic", "recover", "print", "println":
					case "copy", "append", "delete", "clear":
						// Writes through an argument unless the target
						// is local; keep it simple and conservative.
						if len(n.Args) > 0 {
							writeTarget(n.Args[0])
						}
					default:
						pure = false
					}
					return true
				}
			}
			callee := calleeFunc(src.info, n)
			if callee == nil || !f.MutationFree(callee) {
				pure = false
			}
		}
		return true
	})
	f.pure[fn] = pure
	return pure
}
