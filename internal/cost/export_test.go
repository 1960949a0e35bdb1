package cost

import "fmt"

// Verify recomputes the cost from scratch and reports whether the
// incremental bookkeeping agrees: the tests' oracle for SwapDelta,
// SwapKnown and Rebase. When the evaluator was built from a live graph it
// recomputes against that graph's current state, so it also flags drift
// caused by graph edits the frozen snapshot cannot observe.
func (e *Evaluator) Verify() error {
	var c int64
	var err error
	if e.g != nil {
		c, err = Linear(e.g, e.pos)
	} else {
		c, err = LinearCSR(e.csr, e.pos)
	}
	if err != nil {
		return err
	}
	if c != e.cur {
		return fmt.Errorf("cost: evaluator drift: incremental %d, recomputed %d", e.cur, c)
	}
	return nil
}
