// Package analysis is the home of dwmlint, the project's determinism
// contract checker. It provides a small analyzer framework modeled on
// golang.org/x/tools/go/analysis (Analyzer / Pass / Diagnostic), built
// only on the standard library's go/ast and go/types so the module stays
// dependency-free in the hermetic build environment. The API mirrors
// x/tools closely enough that a later PR can swap the framework for the
// real one without rewriting the analyzers.
//
// The contract the analyzers enforce is the one DESIGN.md §9 documents:
// experiment results must be a pure function of (seed, config) — no
// global RNG state, no wall-clock reads, no map-iteration order, and no
// unstructured concurrency may influence a table row.
//
// A diagnostic at a site that is deliberately exempt is suppressed with
// an inline justification comment:
//
//	//dwmlint:ignore <analyzer> <justification>
//
// placed on the flagged line, on the line immediately above it, or in
// the doc comment of the enclosing function (which then covers the whole
// function body). A directive without a justification is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one rule of the determinism contract.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// dwmlint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the rule, shown by
	// `dwmlint -list`.
	Doc string
	// Run applies the rule to one package, reporting findings through
	// the Pass.
	Run func(*Pass) error
}

// All returns the dwmlint analyzer suite in stable order: the four
// syntactic determinism checks from DESIGN.md §9, the four dataflow
// analyzers from DESIGN.md §14, and testonly, the dead-code check that
// needs a whole-program reference index (DESIGN.md §9).
func All() []*Analyzer {
	return []*Analyzer{SeededRand, MapOrder, WallTime, BareGo, SliceShare, FrozenMut, GuardedField, CtxFlow, TestOnly}
}

// ByName resolves a comma-separated analyzer list; an unknown name is an
// error listing the valid ones.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			var valid []string
			for _, a := range All() {
				valid = append(valid, a.Name)
			}
			return nil, fmt.Errorf("unknown analyzer %q (valid: %s)", name, strings.Join(valid, ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// A Pass connects one analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts answers cross-package questions (is this parameter written,
	// retained, returned by the callee?). Never nil inside Run.
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, with its suppression state resolved by
// ApplySuppressions.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed is set when a dwmlint:ignore directive covers the
	// finding; Justification carries the directive's reason.
	Suppressed    bool
	Justification string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// RunPackage applies the analyzers to one package and returns the
// findings with suppression directives from the package's own files
// already applied, sorted by position. facts supplies cross-package
// conclusions; nil means an empty store (every callee judged
// optimistically).
func RunPackage(fset *token.FileSet, files []*ast.File, pkgPath string, pkg *types.Package, info *types.Info, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFacts(fset)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			PkgPath:   pkgPath,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     facts,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkgPath, a.Name, err)
		}
	}
	diags = append(diags, ApplySuppressions(fset, files, diags)...)
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreDirective is one parsed dwmlint:ignore comment, together with
// the source extent it binds to.
type ignoreDirective struct {
	analyzer      string
	justification string
	file          string
	// line is the line the directive comment sits on; groupEnd is the
	// last line of its comment group (a stacked block of directives
	// above a statement all cover the statement).
	line     int
	groupEnd int
	// doc marks a directive living in a declaration's doc comment; it
	// then covers exactly [declStart, declEnd] and nothing else.
	doc bool
	// declStart/declEnd bound the declaration the directive binds to:
	// the documented declaration for doc directives, the enclosing
	// declaration otherwise. Zero when the directive floats between
	// declarations.
	declStart, declEnd int
}

const (
	ignorePrefix    = "//dwmlint:ignore"
	directivePrefix = "//dwmlint:"
)

// directiveVerbs are the comment directives dwmlint understands. guard,
// frozen and holds are annotations consumed by the dataflow analyzers
// (DESIGN.md §14); ignore is the suppression directive.
var directiveVerbs = map[string]bool{
	"ignore": true,
	"guard":  true,
	"frozen": true,
	"holds":  true,
}

// knownAnalyzer reports whether name names an analyzer in the suite.
func knownAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

func validAnalyzerNames() string {
	var valid []string
	for _, a := range All() {
		valid = append(valid, a.Name)
	}
	return strings.Join(valid, ", ")
}

// declLineRange is the line extent of one top-level declaration.
type declLineRange struct {
	start, end int
	doc        *ast.CommentGroup
}

// parseDirectives extracts every dwmlint:ignore directive from the
// files and resolves the extent each one binds to. Malformed directives
// — no analyzer name, no justification, an analyzer name that does not
// exist, or an unknown dwmlint: verb — are returned as diagnostics so a
// bad directive can never silence a finding.
func parseDirectives(fset *token.FileSet, files []*ast.File) (list []ignoreDirective, bad []Diagnostic) {
	for _, f := range files {
		var decls []declLineRange
		for _, decl := range f.Decls {
			r := declLineRange{
				start: fset.Position(decl.Pos()).Line,
				end:   fset.Position(decl.End()).Line,
			}
			switch d := decl.(type) {
			case *ast.FuncDecl:
				r.doc = d.Doc
			case *ast.GenDecl:
				r.doc = d.Doc
			}
			decls = append(decls, r)
		}
		for _, cg := range f.Comments {
			groupEnd := fset.Position(cg.End()).Line
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				verb, rest, _ := strings.Cut(strings.TrimPrefix(c.Text, directivePrefix), " ")
				if !directiveVerbs[verb] {
					bad = append(bad, Diagnostic{
						Analyzer: "dwmlint",
						Pos:      pos,
						Message:  fmt.Sprintf("unknown directive dwmlint:%s (valid: ignore, guard, frozen, holds)", verb),
					})
					continue
				}
				if verb != "ignore" {
					continue
				}
				name, justification, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if name == "" || strings.TrimSpace(justification) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "dwmlint",
						Pos:      pos,
						Message:  "dwmlint:ignore directive needs an analyzer name and a justification",
					})
					continue
				}
				if !knownAnalyzer(name) {
					bad = append(bad, Diagnostic{
						Analyzer: "dwmlint",
						Pos:      pos,
						Message:  fmt.Sprintf("dwmlint:ignore names unknown analyzer %q (valid: %s)", name, validAnalyzerNames()),
					})
					continue
				}
				dir := ignoreDirective{
					analyzer:      name,
					justification: strings.TrimSpace(justification),
					file:          pos.Filename,
					line:          pos.Line,
					groupEnd:      groupEnd,
				}
				for _, r := range decls {
					if r.doc == cg {
						dir.doc = true
						dir.declStart, dir.declEnd = r.start, r.end
						break
					}
					if pos.Line >= r.start && pos.Line <= r.end {
						dir.declStart, dir.declEnd = r.start, r.end
						break
					}
				}
				list = append(list, dir)
			}
		}
	}
	return list, bad
}

// covers reports whether the directive suppresses a finding at the given
// line of its file.
func (dir ignoreDirective) covers(line int) bool {
	if dir.doc {
		// A doc-comment directive covers exactly the declaration it
		// documents — never the one after it, even when the documented
		// body is empty.
		return line >= dir.declStart && line <= dir.declEnd
	}
	// An inline directive covers its own line or the line directly below
	// its comment group (so stacked directives for several analyzers all
	// reach the statement under them) — but never across a declaration
	// boundary: a trailing directive on a one-line method must not leak
	// onto the next declaration.
	if dir.line != line && dir.groupEnd != line-1 {
		return false
	}
	if dir.declStart != 0 && (line < dir.declStart || line > dir.declEnd) {
		return false
	}
	return true
}

// ApplySuppressions marks diagnostics covered by dwmlint:ignore
// directives in the given files (same line, a directive block directly
// above, or the doc comment of the enclosing declaration) and returns
// extra diagnostics for malformed directives. The input slice is
// modified in place.
func ApplySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	directives, bad := parseDirectives(fset, files)
	for i := range diags {
		d := &diags[i]
		for _, dir := range directives {
			if dir.analyzer != d.Analyzer || dir.file != d.Pos.Filename {
				continue
			}
			if dir.covers(d.Pos.Line) {
				d.Suppressed = true
				d.Justification = dir.justification
				break
			}
		}
	}
	return bad
}

// isTestFile reports whether the file is a _test.go file; the contract
// governs experiment code, not tests.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go")
}

// calleeFunc resolves the called function (or method) of a call
// expression, nil when the callee is not a named function — a function
// literal, a conversion, or a builtin.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
