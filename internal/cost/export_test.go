package cost

import "fmt"

// Verify recomputes the cost from scratch and reports whether the
// incremental bookkeeping agrees: the tests' oracle for SwapDelta and
// SwapKnown.
func (e *Evaluator) Verify() error {
	c, err := Linear(e.g, e.pos)
	if err != nil {
		return err
	}
	if c != e.cur {
		return fmt.Errorf("cost: evaluator drift: incremental %d, recomputed %d", e.cur, c)
	}
	return nil
}
