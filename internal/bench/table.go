// Package bench implements the evaluation harness: one runner per
// reconstructed table/figure of the paper (E1–E22), each producing a Table
// that cmd/dwmbench prints and bench_test.go wraps in testing.B targets.
//
// Every experiment is deterministic for a given Config seed, so the
// numbers in EXPERIMENTS.md are exactly reproducible.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table is a formatted experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "E2").
	ID string
	// Title describes what the table/figure reproduces.
	Title string
	// Headers labels the columns.
	Headers []string
	// Rows holds the cell values.
	Rows [][]string
	// Notes are free-form footnotes (parameters, caveats).
	Notes []string
}

// normRow returns row resized to exactly n cells: short rows are padded
// with empty cells and long rows truncated, so a ragged row can neither
// leak cells from a previously rendered row nor crash a renderer. The
// returned slice is freshly allocated — renderers must not share a cell
// buffer across rows (a reused buffer is exactly how stale cells leaked
// before).
func normRow(row []string, n int) []string {
	out := make([]string, n)
	copy(out, row)
	return out
}

// Format renders the table with aligned columns.
func (t *Table) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Headers, "\t"))
	sep := make([]string, len(t.Headers))
	for i, h := range t.Headers {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(normRow(row, len(t.Headers)), "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Markdown renders the table as a GitHub-flavored markdown section with a
// heading, the table, and the notes as a blockquote — the format
// EXPERIMENTS.md embeds.
func (t *Table) Markdown(w io.Writer) error {
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	if _, err := fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	head := make([]string, len(t.Headers))
	for i, h := range t.Headers {
		head[i] = esc(h)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(head, " | "))
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		cells := normRow(row, len(t.Headers))
		for i, c := range cells {
			cells[i] = esc(c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n> %s\n", esc(n)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// cell formatting helpers shared by the experiments.

func itoa(v int64) string { return fmt.Sprintf("%d", v) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats the relative reduction of got versus base as a percentage.
func pct(base, got int64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(base-got)/float64(base))
}
