package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// FrozenMut pins the validate-then-mutate contract from DESIGN.md §13:
// a struct field annotated
//
//	rowPtr []int //dwmlint:frozen FromEdges FromTrace ApplyDeltas
//
// may only be written through (element assignment, copy destination,
// passed to a writing callee, or wholesale reassignment) inside the
// named sanctioned functions, inside unexported helpers reachable only
// from them, or through a locally-allocated value (construction of a
// fresh instance is not mutation — the buildRows / spliceRows pattern).
var FrozenMut = &Analyzer{
	Name: "frozenmut",
	Doc: "flags writes to //dwmlint:frozen struct fields outside their " +
		"sanctioned functions (writes through locally-built values are " +
		"construction and stay exempt)",
	Run: runFrozenMut,
}

func runFrozenMut(pass *Pass) error {
	frozen := fieldDirectives(pass.TypesInfo, pass.Files, "frozen")
	if len(frozen) == 0 {
		return nil
	}
	callers := packageCallers(pass.TypesInfo, pass.Files)
	sanctioned := map[string]map[*types.Func]bool{}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFrozen(pass, fd, frozen, callers, sanctioned)
		}
	}
	return nil
}

func checkFrozen(pass *Pass, fd *ast.FuncDecl, frozen map[*types.Var][]string, callers map[*types.Func]map[*types.Func]bool, sanctionedCache map[string]map[*types.Func]bool) {
	info := pass.TypesInfo
	local := localAllocs(info, fd.Body)
	self, _ := info.Defs[fd.Name].(*types.Func)

	// frozenField resolves a (possibly sliced) selector expression to an
	// annotated field, honoring the local-allocation exemption.
	frozenField := func(e ast.Expr) *types.Var {
		for {
			if sl, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
				e = sl.X
				continue
			}
			break
		}
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return nil
		}
		fld, ok := s.Obj().(*types.Var)
		if !ok {
			return nil
		}
		names, isFrozen := frozen[fld]
		if !isFrozen {
			return nil
		}
		if root := rootIdent(sel.X); root != nil {
			if obj := info.ObjectOf(root); obj != nil && local[obj] {
				return nil // construction of a fresh value
			}
		}
		if self != nil && sanctionedSet(pass, names, callers, sanctionedCache)[self] {
			return nil
		}
		return fld
	}
	report := func(pos ast.Node, fld *types.Var, names []string) {
		pass.Reportf(pos.Pos(),
			"frozen field %s written outside its sanctioned functions (%s); route the mutation through them",
			fld.Name(), strings.Join(names, ", "))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				// Element write: x.f[i] = v (any assign op).
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if fld := frozenField(idx.X); fld != nil {
						report(lhs, fld, frozen[fld])
					}
					continue
				}
				// Wholesale reassignment: x.f = v.
				if fld := frozenField(lhs); fld != nil {
					report(lhs, fld, frozen[fld])
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if fld := frozenField(idx.X); fld != nil {
					report(n, fld, frozen[fld])
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if id.Name == "copy" && len(n.Args) == 2 {
						if fld := frozenField(n.Args[0]); fld != nil {
							report(n, fld, frozen[fld])
						}
					}
					return true
				}
			}
			callee := calleeFunc(info, n)
			if callee == nil || pass.Facts.MutationFree(callee) {
				return true
			}
			for i, arg := range n.Args {
				fld := frozenField(arg)
				if fld == nil {
					continue
				}
				if cf := pass.Facts.SliceFacts(callee); cf != nil {
					if pf := cf.param(i); pf != nil && pf.Written {
						report(arg, fld, frozen[fld])
					}
				}
			}
		}
		return true
	})
}

// sanctionedSet computes (and caches per sanctioned-name list) the set
// of functions allowed to write a frozen field: the named roots plus
// every unexported function reachable only from the set — an exported
// helper stays outside because external callers could reach it.
func sanctionedSet(pass *Pass, names []string, callers map[*types.Func]map[*types.Func]bool, cache map[string]map[*types.Func]bool) map[*types.Func]bool {
	key := strings.Join(names, ",")
	if s, ok := cache[key]; ok {
		return s
	}
	set := map[*types.Func]bool{}
	named := map[string]bool{}
	for _, n := range names {
		named[n] = true
	}
	var all []*types.Func
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			all = append(all, fn)
			if named[fn.Name()] {
				set[fn] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range all {
			if set[fn] || fn.Exported() {
				continue
			}
			cs := callers[fn]
			if len(cs) == 0 {
				continue
			}
			allSanctioned := true
			for c := range cs {
				if !set[c] && c != fn {
					allSanctioned = false
					break
				}
			}
			if allSanctioned {
				set[fn] = true
				changed = true
			}
		}
	}
	cache[key] = set
	return set
}
