package bench

import (
	"strings"
	"testing"
)

// raggedTable mixes a well-formed row with a short and a long one.
func raggedTable() *Table {
	return &Table{
		ID:      "EX",
		Title:   "ragged rows",
		Headers: []string{"a", "b", "c"},
		Rows: [][]string{
			{"r1a", "r1b", "r1c"},
			{"r2a"},                      // short: must pad, not leak r1b/r1c
			{"r3a", "r3b", "r3c", "r3d"}, // long: must truncate, not panic
		},
	}
}

// Regression: Markdown reused one cells buffer across rows, so a short
// row silently emitted the previous row's stale cells and a long row
// panicked with index out of range.
func TestTableMarkdownRaggedRows(t *testing.T) {
	var buf strings.Builder
	if err := raggedTable().Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var short string
	for _, l := range lines {
		if strings.Contains(l, "r2a") {
			short = l
		}
	}
	if short == "" {
		t.Fatalf("short row missing:\n%s", out)
	}
	if strings.Contains(short, "r1b") || strings.Contains(short, "r1c") {
		t.Errorf("short row leaked stale cells from the previous row: %q", short)
	}
	if want := "| r2a |  |  |"; short != want {
		t.Errorf("short row = %q, want %q", short, want)
	}
	if strings.Contains(out, "r3d") {
		t.Errorf("long row not truncated to the header width:\n%s", out)
	}
	// Every table line has exactly len(Headers) columns.
	for _, l := range lines {
		if !strings.HasPrefix(l, "|") {
			continue
		}
		if n := strings.Count(l, "|") - 1; n != 3 {
			t.Errorf("line %q has %d columns, want 3", l, n)
		}
	}
}

func TestTableFormatRaggedRows(t *testing.T) {
	var buf strings.Builder
	if err := raggedTable().Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "r2a") || strings.Contains(out, "r3d") {
		t.Errorf("Format must pad short rows and truncate long ones:\n%s", out)
	}
}

// Well-formed tables must render byte-identically to the pre-fix code:
// normalization only touches ragged rows.
func TestTableNormalizationNoOpOnWellFormed(t *testing.T) {
	tb := &Table{
		ID:      "EY",
		Title:   "well formed",
		Headers: []string{"x", "y"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
		Notes:   []string{"note"},
	}
	var md, txt strings.Builder
	if err := tb.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if err := tb.Format(&txt); err != nil {
		t.Fatal(err)
	}
	wantMD := "## EY — well formed\n\n| x | y |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |\n\n> note\n\n"
	if md.String() != wantMD {
		t.Errorf("Markdown = %q, want %q", md.String(), wantMD)
	}
	if !strings.Contains(txt.String(), "1  2") {
		t.Errorf("Format output unexpected: %q", txt.String())
	}
}
