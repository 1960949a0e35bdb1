package core

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/dwm"
	"repro/internal/trace"
)

func TestPortAwareValidAndCompetitive(t *testing.T) {
	tr := firTrace()
	tapeLen := 64
	ports := dwm.SpreadPorts(tapeLen, 2)
	p, c, err := PortAware(tr, tapeLen, ports, PortAwareOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(tapeLen); err != nil {
		t.Fatal(err)
	}
	actual, err := cost.MultiPort(tr.Items(), p, ports, tapeLen)
	if err != nil {
		t.Fatal(err)
	}
	if actual != c {
		t.Errorf("reported cost %d != actual %d", c, actual)
	}
	// Must beat the program-order baseline centered on the tape.
	po, err := ProgramOrder(tr)
	if err != nil {
		t.Fatal(err)
	}
	poCentered, err := CenterOnPort(po, tapeLen, tapeLen/2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cost.MultiPort(tr.Items(), poCentered, ports, tapeLen)
	if err != nil {
		t.Fatal(err)
	}
	if c > base {
		t.Errorf("port-aware (%d) worse than program order (%d)", c, base)
	}
}

func TestPortAwareSinglePortReduces(t *testing.T) {
	tr := chaseTrace()
	tapeLen := tr.NumItems
	p, c, err := PortAware(tr, tapeLen, []int{tapeLen / 2}, PortAwareOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(tapeLen); err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Errorf("suspicious zero cost %d for pointer chase", c)
	}
}

func TestPortAwareMorePortsNoWorse(t *testing.T) {
	tr := zigzagTrace()
	tapeLen := 64
	_, c1, err := PortAware(tr, tapeLen, dwm.SpreadPorts(tapeLen, 1), PortAwareOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, c4, err := PortAware(tr, tapeLen, dwm.SpreadPorts(tapeLen, 4), PortAwareOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With the same optimization budget, 4 ports should not lose to 1
	// port by more than noise; assert a generous bound.
	if c4 > c1 {
		t.Errorf("4 ports (%d) worse than 1 port (%d)", c4, c1)
	}
}

func TestPortAwareErrors(t *testing.T) {
	tr := seqTrace(4, 0, 1, 2, 3)
	if _, _, err := PortAware(tr, 2, []int{0}, PortAwareOptions{}); err == nil {
		t.Error("overfull tape accepted")
	}
	if _, _, err := PortAware(tr, 8, nil, PortAwareOptions{}); err == nil {
		t.Error("no ports accepted")
	}
	bad := trace.New("bad", 1)
	bad.Read(5)
	if _, _, err := PortAware(bad, 8, []int{0}, PortAwareOptions{}); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestSegmentedStartIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	chain := rng.Perm(20)
	p, err := segmentedStart(chain, 32, []int{4, 27})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(32); err != nil {
		t.Error(err)
	}
	// Degenerate: segments collide near a shared port region.
	p2, err := segmentedStart(chain, 20, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Validate(20); err != nil {
		t.Error(err)
	}
}
