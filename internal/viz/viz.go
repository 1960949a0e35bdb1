// Package viz renders a placement as a plain-text figure for the CLI
// tools: a tape map showing where hot items landed relative to the
// ports. Pure string formatting — no terminal control sequences — so
// output is stable, testable, and pipeable.
package viz

import (
	"fmt"

	"repro/internal/layout"
)

// heatRamp maps intensity 0..1 to a density character.
var heatRamp = []rune(" .:-=+*#%@")

// heatChar returns the ramp character for x in [0,1].
func heatChar(x float64) rune {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	i := int(x * float64(len(heatRamp)-1))
	return heatRamp[i]
}

// TapeMap renders a single tape as two lines: a heat line where each slot
// is shaded by the access frequency of the item stored there (blank =
// empty slot), and a marker line flagging port positions with '^'. freq
// is indexed by item ID; items beyond the frequency table count as cold.
func TapeMap(p layout.Placement, freq []int64, tapeLen int, ports []int) (string, error) {
	if err := p.Validate(tapeLen); err != nil {
		return "", fmt.Errorf("viz: %w", err)
	}
	itemAt := make([]int, tapeLen)
	for i := range itemAt {
		itemAt[i] = -1
	}
	for item, slot := range p {
		itemAt[slot] = item
	}
	var maxF int64 = 1
	for _, f := range freq {
		if f > maxF {
			maxF = f
		}
	}
	heat := make([]rune, tapeLen)
	for s, item := range itemAt {
		if item < 0 {
			heat[s] = ' ' // empty slot
			continue
		}
		c := heatRamp[1] // occupied slots render at least '.'
		if item < len(freq) {
			if h := heatChar(float64(freq[item]) / float64(maxF)); h != ' ' {
				c = h
			}
		}
		heat[s] = c
	}
	marks := make([]rune, tapeLen)
	for i := range marks {
		marks[i] = ' '
	}
	for _, q := range ports {
		if q < 0 || q >= tapeLen {
			return "", fmt.Errorf("viz: port %d outside [0,%d)", q, tapeLen)
		}
		marks[q] = '^'
	}
	return "|" + string(heat) + "|\n " + string(marks), nil
}
