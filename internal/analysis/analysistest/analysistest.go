// Package analysistest runs an analyzer over golden fixture packages and
// checks its diagnostics against `// want` expectations, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture lives in testdata/src/<pkg>/ and annotates the lines where
// diagnostics are expected:
//
//	rand.Intn(6) // want `draws from the process-global source`
//
// The string is a regexp matched against the diagnostic message; several
// backquoted or double-quoted expectations may follow one want. Lines
// with a dwmlint:ignore directive exercise suppression: the diagnostic
// is filtered before matching, so a suppressed site carries no want.
//
//dwmlint:ignore testonly test support by design: the analyzer fixture tests in internal/analysis run through it
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// expectation is one want pattern waiting to be matched.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads each fixture package under filepath.Join(testdata, "src"),
// applies the analyzer, and reports mismatches between diagnostics and
// want expectations through t. The packages share one loader and one
// fact store, so a fixture may import the packages listed before it
// (name them dependencies first) and cross-package facts and references
// resolve as they do in a dwmlint run.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader := load.NewLoader(".")
	var checked []*load.Package
	for _, pkg := range pkgs {
		files, err := loader.ParseDir(filepath.Join(testdata, "src", pkg))
		if err != nil {
			t.Errorf("%s: %v", pkg, err)
			return
		}
		p, err := loader.Check(pkg, files)
		if err != nil {
			t.Errorf("%s: %v", pkg, err)
			return
		}
		checked = append(checked, p)
	}
	facts := analysis.NewFacts(loader.Fset)
	for _, p := range checked {
		facts.AddPackage(p.Files, p.Info)
	}
	for _, p := range loader.Packages() {
		facts.AddRefs(p.Files, p.Info)
	}
	for _, p := range checked {
		diags, err := analysis.RunPackage(loader.Fset, p.Files, p.Path, p.Types, p.Info, []*analysis.Analyzer{a}, facts)
		if err != nil {
			t.Errorf("%s: %v", p.Path, err)
			continue
		}
		wants, err := parseWants(loader, p)
		if err != nil {
			t.Errorf("%s: %v", p.Path, err)
			continue
		}
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			if !claim(wants, d) {
				t.Errorf("%s: unexpected diagnostic: %s", p.Path, d)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s: %s:%d: no diagnostic matched want %q", p.Path, filepath.Base(w.file), w.line, w.re)
			}
		}
	}
}

// claim marks the first unmatched expectation on the diagnostic's line
// whose pattern matches the message.
func claim(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.line != d.Pos.Line || w.file != d.Pos.Filename {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

var wantRe = regexp.MustCompile("// want (.*)$")

func parseWants(loader *load.Loader, pkg *load.Package) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				patterns, err := splitPatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %w", pos.Filename, pos.Line, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern: %w", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// splitPatterns parses a want payload: whitespace-separated backquoted
// or double-quoted strings.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquoted want pattern")
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			rest := s[1:]
			end := strings.IndexByte(rest, '"')
			if end < 0 {
				return nil, fmt.Errorf("unterminated quoted want pattern")
			}
			p, err := strconv.Unquote(s[:end+2])
			if err != nil {
				return nil, fmt.Errorf("bad quoted want pattern %s: %w", s[:end+2], err)
			}
			out = append(out, p)
			s = strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("want patterns must be backquoted or double-quoted, got %q", s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want comment with no pattern")
	}
	return out, nil
}
