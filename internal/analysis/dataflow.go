// Intraprocedural dataflow helpers shared by the DESIGN.md §14 analyzers
// (sliceshare, frozenmut, guardedfield, ctxflow) and by the fact store.
// The machinery is deliberately flow-insensitive: it walks one function
// body in source order over the typed AST, with no SSA construction, so
// it stays stdlib-only like the loader. That trades a little precision
// (a write anywhere in the body counts, branches are not distinguished)
// for zero dependencies and simple, auditable rules.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// sliceSource records what caller-owned memory a tracked value aliases:
// a slice-typed parameter, or a slice field of a struct(-pointer)
// parameter (the opts.Warmstart shape).
type sliceSource struct {
	param *types.Var
	field string // non-empty for a struct-parameter field alias
}

func (s sliceSource) describe() string {
	if s.field != "" {
		return s.param.Name() + "." + s.field
	}
	return "parameter " + s.param.Name()
}

func (s sliceSource) key() string {
	return s.param.Name() + "\x00" + s.field
}

// sliceEventKind classifies one observation about a tracked value.
type sliceEventKind int

const (
	// eventWritten: an element of the aliased memory is written
	// (index assignment, copy destination).
	eventWritten sliceEventKind = iota
	// eventRetainedField: the alias is stored into a struct field
	// (assignment or composite literal), so it outlives the call.
	eventRetainedField
	// eventRetainedGlobal: the alias is stored into a package-level
	// variable.
	eventRetainedGlobal
	// eventReturned: the alias is returned to the caller.
	eventReturned
	// eventPassed: the alias is passed as an argument to a named
	// function; the receiver consults the fact store for what the
	// callee does with it.
	eventPassed
)

type sliceEvent struct {
	kind   sliceEventKind
	pos    token.Pos
	src    sliceSource
	field  *types.Var  // eventRetainedField: the field stored into (may be nil if unresolved)
	callee *types.Func // eventPassed
	argIdx int         // eventPassed: the callee parameter index (receiver excluded)
}

// isSliceType reports whether t's underlying type is a slice.
func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isFreshCall reports whether a call produces memory that cannot alias
// any argument: make, new, conversions from constants, slices.Clone,
// any method or function named Clone, and append (the append-then-return
// copy idiom; see DESIGN.md §14 for why append is judged fresh).
func isFreshCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make", "new", "append":
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
				return true
			}
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Clone" {
			return true
		}
	}
	return false
}

// sliceTracker follows aliases of slice parameters through one function
// body and reports events. Facts resolve what callees do with arguments
// (written / retained / returned-as-alias).
type sliceTracker struct {
	info  *types.Info
	facts *Facts
	dirty map[types.Object]sliceSource
	// structParams are fn's parameters of struct or pointer-to-struct
	// type; their slice fields alias caller memory (opts.Warmstart).
	structParams map[types.Object]bool
	emit         func(sliceEvent)
}

// trackSlices seeds the tracker with fn's slice parameters and walks the
// body, emitting one event per observation. It is the engine behind both
// the sliceshare analyzer and SliceFacts computation.
func trackSlices(info *types.Info, facts *Facts, fn *ast.FuncDecl, emit func(sliceEvent)) {
	if fn.Body == nil {
		return
	}
	tr := &sliceTracker{
		info:         info,
		facts:        facts,
		dirty:        map[types.Object]sliceSource{},
		structParams: map[types.Object]bool{},
		emit:         emit,
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			for _, name := range f.Names {
				obj, ok := info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				if isSliceType(obj.Type()) {
					tr.dirty[obj] = sliceSource{param: obj}
				} else if structTypeOf(obj.Type()) != nil {
					tr.structParams[obj] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, tr.visit)
}

// classify resolves an expression to the caller memory it aliases, or
// nil when it is fresh or untracked. Slicing (v[a:b]) preserves the
// alias; a call is an alias only when the callee's fact says a parameter
// is returned.
func (tr *sliceTracker) classify(e ast.Expr) *sliceSource {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := tr.info.ObjectOf(e); obj != nil {
			if src, ok := tr.dirty[obj]; ok {
				return &src
			}
		}
	case *ast.SliceExpr:
		return tr.classify(e.X)
	case *ast.SelectorExpr:
		// A slice field of a struct(-pointer) parameter aliases the
		// caller's memory just like a slice parameter does.
		base, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok {
			return nil
		}
		obj, ok := tr.info.ObjectOf(base).(*types.Var)
		if !ok || !tr.structParams[obj] {
			return nil
		}
		if sel, ok := tr.info.Selections[e]; ok && sel.Kind() == types.FieldVal && isSliceType(sel.Obj().Type()) {
			return &sliceSource{param: obj, field: e.Sel.Name}
		}
	case *ast.CallExpr:
		if isFreshCall(tr.info, e) {
			return nil
		}
		if callee := calleeFunc(tr.info, e); callee != nil {
			if facts := tr.facts.SliceFacts(callee); facts != nil {
				for i, arg := range e.Args {
					src := tr.classify(arg)
					if src == nil {
						continue
					}
					if pf := facts.param(i); pf != nil && pf.ReturnedAlias {
						return src
					}
				}
			}
		}
	}
	return nil
}

func (tr *sliceTracker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		tr.assign(n)
	case *ast.IncDecStmt:
		if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
			if src := tr.classify(idx.X); src != nil {
				tr.emit(sliceEvent{kind: eventWritten, pos: n.Pos(), src: *src})
			}
		}
	case *ast.CallExpr:
		tr.call(n)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if src := tr.classify(res); src != nil {
				tr.emit(sliceEvent{kind: eventReturned, pos: n.Pos(), src: *src})
			}
		}
	case *ast.CompositeLit:
		tr.composite(n)
	}
	return true
}

func (tr *sliceTracker) assign(n *ast.AssignStmt) {
	// Write forms first: p[i] = v, p[i] += v, copy handled in call().
	for _, lhs := range n.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if src := tr.classify(idx.X); src != nil {
				tr.emit(sliceEvent{kind: eventWritten, pos: lhs.Pos(), src: *src})
			}
		}
	}
	// Alias propagation and retention need aligned lhs/rhs; a
	// multi-value call on the rhs produces fresh values.
	if len(n.Lhs) != len(n.Rhs) {
		for _, lhs := range n.Lhs {
			tr.clobber(lhs)
		}
		return
	}
	for i, lhs := range n.Lhs {
		src := tr.classify(n.Rhs[i])
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := tr.info.ObjectOf(lhs)
			if obj == nil {
				continue
			}
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				// Package-level variable: the alias outlives the call.
				if src != nil {
					tr.emit(sliceEvent{kind: eventRetainedGlobal, pos: lhs.Pos(), src: *src})
				}
				continue
			}
			if src != nil {
				tr.dirty[obj] = *src
			} else {
				delete(tr.dirty, obj)
			}
		case *ast.SelectorExpr:
			if src == nil {
				continue
			}
			if sel, ok := tr.info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
				fld, _ := sel.Obj().(*types.Var)
				tr.emit(sliceEvent{kind: eventRetainedField, pos: lhs.Pos(), src: *src, field: fld})
			} else if obj, ok := tr.info.ObjectOf(lhs.Sel).(*types.Var); ok && obj.Parent() == obj.Pkg().Scope() {
				tr.emit(sliceEvent{kind: eventRetainedGlobal, pos: lhs.Pos(), src: *src})
			}
		case *ast.IndexExpr:
			// p[i] handled above; m[k] = dirty stores into a map, which
			// is retention when the map outlives the call — treated as
			// fresh-local here (maps are rarely caller-visible in this
			// codebase and tracking them costs precision elsewhere).
		}
	}
}

// clobber removes an lhs identifier from the dirty set (it was assigned
// an untracked value).
func (tr *sliceTracker) clobber(lhs ast.Expr) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
		if obj := tr.info.ObjectOf(id); obj != nil {
			delete(tr.dirty, obj)
		}
	}
}

func (tr *sliceTracker) call(n *ast.CallExpr) {
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
		if _, isBuiltin := tr.info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "copy" && len(n.Args) == 2 {
				if src := tr.classify(n.Args[0]); src != nil {
					tr.emit(sliceEvent{kind: eventWritten, pos: n.Pos(), src: *src})
				}
			}
			return
		}
	}
	callee := calleeFunc(tr.info, n)
	if callee == nil {
		return
	}
	for i, arg := range n.Args {
		if src := tr.classify(arg); src != nil {
			tr.emit(sliceEvent{kind: eventPassed, pos: arg.Pos(), src: *src, callee: callee, argIdx: i})
		}
	}
}

func (tr *sliceTracker) composite(n *ast.CompositeLit) {
	st := structTypeOf(tr.info.TypeOf(n))
	if st == nil {
		return
	}
	for i, elt := range n.Elts {
		var value ast.Expr
		var fld *types.Var
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			value = kv.Value
			if key, ok := kv.Key.(*ast.Ident); ok {
				fld = structFieldByName(st, key.Name)
			}
		} else {
			value = elt
			if i < st.NumFields() {
				fld = st.Field(i)
			}
		}
		if src := tr.classify(value); src != nil {
			tr.emit(sliceEvent{kind: eventRetainedField, pos: value.Pos(), src: *src, field: fld})
		}
	}
}

// structTypeOf unwraps pointers and named types down to a struct type,
// or nil.
func structTypeOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

func structFieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// localAllocs returns the objects in fn's body that provably hold
// locally-allocated memory: assigned from a composite literal (possibly
// behind &), new, or make. Writes through such values are construction,
// not mutation of shared state — the buildRows / spliceRows pattern.
func localAllocs(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	if body == nil {
		return out
	}
	record := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		if isAllocExpr(info, rhs) {
			out[obj] = true
		} else {
			delete(out, obj)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				// var x T — zero value, locally owned.
				for _, name := range n.Names {
					if obj := info.ObjectOf(name); obj != nil {
						out[obj] = true
					}
				}
			} else if len(n.Values) == len(n.Names) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// isAllocExpr reports whether e evaluates to freshly allocated memory.
func isAllocExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return id.Name == "new" || id.Name == "make"
			}
		}
	}
	return false
}

// rootIdent returns the leftmost identifier of a selector/index/slice
// chain (s.jobs → s, gr.cache.rowPtr[i] → gr), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// fieldDirectives scans struct declarations for per-field annotations of
// the form //dwmlint:<verb> <args...> placed on the field's line or in
// its doc comment, returning the annotated field objects with the
// directive's whitespace-separated arguments.
func fieldDirectives(info *types.Info, files []*ast.File, verb string) map[*types.Var][]string {
	prefix := directivePrefix + verb + " "
	out := map[*types.Var][]string{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				args := directiveArgs(field.Comment, prefix)
				if args == nil {
					args = directiveArgs(field.Doc, prefix)
				}
				if args == nil {
					continue
				}
				for _, name := range field.Names {
					if obj, ok := info.Defs[name].(*types.Var); ok {
						out[obj] = args
					}
				}
			}
			return true
		})
	}
	return out
}

func directiveArgs(cg *ast.CommentGroup, prefix string) []string {
	if cg == nil {
		return nil
	}
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, prefix) {
			return strings.Fields(strings.TrimPrefix(c.Text, prefix))
		}
	}
	return nil
}

// holdsGuards returns the guard names a function's doc comment asserts
// are held by every caller (//dwmlint:holds <guard...>), the documented
// convention for lock-required helpers like Session.publish.
func holdsGuards(fn *ast.FuncDecl) []string {
	return directiveArgs(fn.Doc, directivePrefix+"holds ")
}

// packageCallers builds the in-package caller map: for every function or
// method declared in the files, the set of declared functions that call
// it. Used by frozenmut's "reachable only from sanctioned roots" rule.
func packageCallers(info *types.Info, files []*ast.File) map[*types.Func]map[*types.Func]bool {
	out := map[*types.Func]map[*types.Func]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(info, call)
				if callee == nil || callee.Pkg() == nil || caller.Pkg() == nil || callee.Pkg() != caller.Pkg() {
					return true
				}
				if out[callee] == nil {
					out[callee] = map[*types.Func]bool{}
				}
				out[callee][caller] = true
				return true
			})
		}
	}
	return out
}
