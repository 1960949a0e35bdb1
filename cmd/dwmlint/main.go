// Command dwmlint checks the repository against the determinism and
// mutation contracts (DESIGN.md §9 and §14): experiment results must be
// a pure function of (seed, config), and shared state may only change
// through its sanctioned paths. It also keeps production code that only
// tests call out of internal/ and cmd/. It runs the internal/analysis
// suite — seededrand, maporder, walltime, barego, sliceshare, frozenmut,
// guardedfield, ctxflow, testonly — over the named packages and fails
// on any diagnostic not covered by an inline justification:
//
//	//dwmlint:ignore <analyzer> <justification>
//
// Usage:
//
//	dwmlint [-only analyzer,...] [-v] [-list] [-json] [-baseline FILE] [-bench FILE] [packages]
//
// Packages default to ./..., in the `go list` pattern syntax. -json
// emits the findings (suppressed ones included) as a JSON array usable
// directly as a -baseline file; -baseline FILE fails only on findings
// not present in FILE, so a new analyzer can land before its dogfood
// cleanup is complete; -bench FILE upserts the run's wall time into a
// dwmbench-style JSON report. testonly's reference index always spans
// the whole module and the nested benchmark module, whatever packages
// are named, so code only another package calls is never flagged. Exit
// status is 1 when unsuppressed (or, with -baseline, new) diagnostics
// remain, 2 on a loading or internal failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	verbose := flag.Bool("v", false, "also print suppressed diagnostics with their justifications")
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	baseline := flag.String("baseline", "", "JSON findings file; fail only on findings not in it")
	benchFile := flag.String("bench", "", "record the run's wall time under lint_bench in this JSON report")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	//dwmlint:ignore walltime lint wall-clock is tooling telemetry recorded outside any experiment result
	start := time.Now()
	findings, npkgs, nanalyzers, err := collect(*only, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwmlint:", err)
		os.Exit(2)
	}
	//dwmlint:ignore walltime lint wall-clock is tooling telemetry recorded outside any experiment result
	elapsed := time.Since(start)

	if *benchFile != "" {
		if err := recordBench(*benchFile, findings, npkgs, nanalyzers, elapsed); err != nil {
			fmt.Fprintln(os.Stderr, "dwmlint: -bench:", err)
			os.Exit(2)
		}
	}

	unsuppressed, suppressed := 0, 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		} else {
			unsuppressed++
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "dwmlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			if f.Suppressed {
				if *verbose {
					fmt.Printf("%s (suppressed: %s)\n", f, f.Justification)
				}
				continue
			}
			fmt.Println(f)
		}
		if *verbose || unsuppressed > 0 {
			fmt.Printf("dwmlint: %d package(s), %d diagnostic(s), %d suppressed\n", npkgs, unsuppressed, suppressed)
		}
	}

	if *baseline != "" {
		fresh, err := newFindings(*baseline, findings)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwmlint: -baseline:", err)
			os.Exit(2)
		}
		if len(fresh) > 0 {
			if !*jsonOut {
				for _, f := range fresh {
					fmt.Printf("new since baseline: %s\n", f)
				}
			}
			os.Exit(1)
		}
		return
	}
	if unsuppressed > 0 {
		os.Exit(1)
	}
}

// finding is the machine-readable form of one diagnostic.
type finding struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Col           int    `json:"col"`
	Analyzer      string `json:"analyzer"`
	Message       string `json:"message"`
	Suppressed    bool   `json:"suppressed"`
	Justification string `json:"justification,omitempty"`
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// key identifies a finding across runs for baseline comparison. Line
// and column are excluded on purpose: unrelated edits move findings
// without making them new.
func (f finding) key() string {
	return f.Analyzer + "\x00" + f.File + "\x00" + f.Message
}

// collect loads the packages, runs the analyzers with a module-wide
// fact store, and returns every diagnostic in position order, the
// number of packages linted and the number of analyzers run.
func collect(only string, patterns []string) ([]finding, int, int, error) {
	analyzers := analysis.All()
	if only != "" {
		var err error
		if analyzers, err = analysis.ByName(only); err != nil {
			return nil, 0, 0, err
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := load.NewLoader(".")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, 0, 0, err
	}

	// The fact store spans the whole module so cross-package
	// conclusions (purity, retention) propagate; stdlib callees are
	// covered by the built-in table.
	facts := analysis.NewFacts(loader.Fset)
	for _, pkg := range pkgs {
		if pkg.Path == "repro" || strings.HasPrefix(pkg.Path, "repro/") {
			facts.AddPackage(pkg.Files, pkg.Info)
		}
	}
	if slices.Contains(analyzers, analysis.TestOnly) {
		if err := addRefs(loader, facts); err != nil {
			return nil, 0, 0, err
		}
	}

	var findings []finding
	for _, pkg := range pkgs {
		diags, err := analysis.RunPackage(loader.Fset, pkg.Files, pkg.Path, pkg.Types, pkg.Info, analyzers, facts)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, d := range diags {
			findings = append(findings, finding{
				File:          d.Pos.Filename,
				Line:          d.Pos.Line,
				Col:           d.Pos.Column,
				Analyzer:      d.Analyzer,
				Message:       d.Message,
				Suppressed:    d.Suppressed,
				Justification: d.Justification,
			})
		}
	}
	return findings, len(pkgs), len(analyzers), nil
}

// addRefs builds testonly's reference index over the whole module and
// the nested benchmark module, which imports repro/internal/... and is
// a root like the root package and examples/. Every package the loader
// has type-checked is registered, the standard library included, so
// interface methods declared there count.
func addRefs(loader *load.Loader, facts *analysis.Facts) error {
	module, err := loader.Load("repro/...")
	if err != nil {
		return err
	}
	for _, pkg := range module {
		if pkg.Path == "repro" {
			if _, err := loader.LoadIn(filepath.Join(pkg.Dir, "benchmark"), "./..."); err != nil {
				return err
			}
		}
	}
	for _, pkg := range loader.Packages() {
		facts.AddRefs(pkg.Files, pkg.Info)
	}
	return nil
}

// newFindings returns the unsuppressed findings not covered by the
// baseline file (a JSON array in -json format). The comparison is a
// multiset on (analyzer, file, message): two identical findings in one
// file need two baseline entries.
func newFindings(path string, findings []finding) ([]finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base []finding
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	budget := map[string]int{}
	for _, f := range base {
		budget[f.key()]++
	}
	var fresh []finding
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		if budget[f.key()] > 0 {
			budget[f.key()]--
			continue
		}
		fresh = append(fresh, f)
	}
	return fresh, nil
}

// recordBench upserts a lint_bench entry into a dwmbench-style JSON
// report, preserving every other key (the same carry-across-merges
// contract cmd/dwmbench uses for partial runs).
func recordBench(path string, findings []finding, npkgs, nanalyzers int, elapsed time.Duration) error {
	report := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		}
	}
	report["lint_bench"] = map[string]any{
		"packages":   npkgs,
		"analyzers":  nanalyzers,
		"findings":   len(findings) - suppressed,
		"suppressed": suppressed,
		"wall_ns":    elapsed.Nanoseconds(),
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
