package cost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/layout"
)

// headWalkReference is the nearest-port head walk written the long way:
// one pass over the ports finds the nearest distance, a second pass picks
// the first port at that distance and moves the tape's head there. It is
// the oracle the shared kernel behind MultiPort, MultiTape and
// MultiTapeBreakdown is checked against. It assumes valid inputs.
func headWalkReference(seq []int, mp layout.MultiPlacement, tapes int, ports []int) []int64 {
	offsets := make([]int, tapes)
	perTape := make([]int64, tapes)
	for _, item := range seq {
		tp, slot := mp.Tape[item], mp.Slot[item]
		best := -1
		for _, q := range ports {
			d := abs(slot - q - offsets[tp])
			if best == -1 || d < best {
				best = d
			}
		}
		for _, q := range ports {
			if abs(slot-q-offsets[tp]) == best {
				offsets[tp] = slot - q
				break
			}
		}
		perTape[tp] += int64(best)
	}
	return perTape
}

// arbitraryPorts draws a port list that the device model never builds
// but the cost functions accept: unsorted, with duplicates, and with
// pairs equidistant from a center, so that head walks hit ties between
// ports and the tie rule (first nearest port in list order) decides the
// next offset.
func arbitraryPorts(rng *rand.Rand, tapeLen int) []int {
	ports := make([]int, 1+rng.Intn(4))
	for i := range ports {
		ports[i] = rng.Intn(tapeLen)
	}
	if rng.Intn(2) == 0 {
		ports = append(ports, ports[rng.Intn(len(ports))])
	}
	c, d := rng.Intn(tapeLen), 1+rng.Intn(3)
	if c-d >= 0 && c+d < tapeLen {
		if rng.Intn(2) == 0 {
			ports = append(ports, c+d, c-d)
		} else {
			ports = append(ports, c-d, c+d)
		}
	}
	rng.Shuffle(len(ports), func(i, j int) { ports[i], ports[j] = ports[j], ports[i] })
	return ports
}

func TestHeadWalkMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tapes := 1 + rng.Intn(3)
		tapeLen := 2 + rng.Intn(10)
		n := 1 + rng.Intn(tapes*tapeLen)
		locs := rng.Perm(tapes * tapeLen)[:n]
		mp := layout.NewMultiPlacement(n)
		for i, loc := range locs {
			mp.Tape[i], mp.Slot[i] = loc/tapeLen, loc%tapeLen
		}
		seq := make([]int, rng.Intn(200))
		for i := range seq {
			seq[i] = rng.Intn(n)
		}
		ports := arbitraryPorts(rng, tapeLen)
		want := headWalkReference(seq, mp, tapes, ports)

		per, err := MultiTapeBreakdown(seq, mp, tapes, tapeLen, ports)
		if err != nil || len(per) != tapes {
			t.Logf("seed %d: breakdown %v, %v", seed, per, err)
			return false
		}
		var sum int64
		for i := range want {
			if per[i] != want[i] {
				t.Logf("seed %d ports %v: tape %d = %d, reference %d", seed, ports, i, per[i], want[i])
				return false
			}
			sum += want[i]
		}
		total, err := MultiTape(seq, mp, tapes, tapeLen, ports)
		if err != nil || total != sum {
			t.Logf("seed %d: MultiTape = %d, %v; reference %d", seed, total, err, sum)
			return false
		}
		if tapes == 1 {
			single, err := MultiPort(seq, layout.Placement(mp.Slot), ports, tapeLen)
			if err != nil || single != sum {
				t.Logf("seed %d: MultiPort = %d, %v; reference %d", seed, single, err, sum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHeadWalkTieKeepsFirstPort pins the tie rule on a case small enough
// to check by hand: ports 1 and 3 are both one shift from slot 2, and the
// walk must align at the first-listed one, which decides what the next
// access costs.
func TestHeadWalkTieKeepsFirstPort(t *testing.T) {
	p := layout.Identity(5)
	seq := []int{2, 4}
	for _, tc := range []struct {
		ports []int
		want  int64
	}{
		// Aligned at port 1: offset 1 puts slot 4 under port 3.
		{[]int{1, 3}, 1 + 0},
		// Aligned at port 3: offset -1 leaves slot 4 two from port 3.
		{[]int{3, 1}, 1 + 2},
	} {
		got, err := MultiPort(seq, p, tc.ports, 5)
		if err != nil || got != tc.want {
			t.Errorf("ports %v: cost = %d, %v; want %d", tc.ports, got, err, tc.want)
		}
	}
}
