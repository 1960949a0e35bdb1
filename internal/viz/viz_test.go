package viz

import (
	"strings"
	"testing"

	"repro/internal/layout"
)

func TestTapeMapBasics(t *testing.T) {
	p := layout.Placement{0, 2} // item0 hot at slot0, item1 at slot2
	freq := []int64{100, 1}
	out, err := TapeMap(p, freq, 4, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 lines, got %d: %q", len(lines), out)
	}
	heat := []rune(lines[0])
	if heat[0] != '|' || heat[len(heat)-1] != '|' {
		t.Errorf("heat line not framed: %q", lines[0])
	}
	// Slot 0 hottest -> '@'; slot 1 empty -> ' '; slot 2 cold but present.
	if heat[1] != '@' {
		t.Errorf("hot slot rendered %q", heat[1])
	}
	if heat[2] != ' ' {
		t.Errorf("empty slot rendered %q", heat[2])
	}
	if heat[3] == ' ' {
		t.Error("occupied cold slot rendered blank")
	}
	// Marker line: leading space then one mark per slot; port 1 -> index 2.
	marks := []rune(lines[1])
	if marks[2] != '^' {
		t.Errorf("port marker line %q", lines[1])
	}
}

func TestTapeMapErrors(t *testing.T) {
	if _, err := TapeMap(layout.Placement{0, 0}, nil, 4, []int{0}); err == nil {
		t.Error("invalid placement accepted")
	}
	if _, err := TapeMap(layout.Identity(4), nil, 4, []int{7}); err == nil {
		t.Error("bad port accepted")
	}
}

func TestTapeMapItemBeyondFreqTable(t *testing.T) {
	p := layout.Identity(3)
	out, err := TapeMap(p, []int64{5}, 3, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(strings.Split(out, "\n")[0], " ") != 0 {
		t.Errorf("slots with unknown-frequency items should not be blank: %q", out)
	}
}

func TestHeatCharClamps(t *testing.T) {
	if heatChar(-1) != ' ' {
		t.Error("below range not clamped to blank")
	}
	if heatChar(2) != '@' {
		t.Error("above range not clamped to max")
	}
}
