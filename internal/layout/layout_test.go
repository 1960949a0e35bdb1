package layout

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	p := Identity(4)
	if !reflect.DeepEqual(p, Placement{0, 1, 2, 3}) {
		t.Errorf("Identity = %v", p)
	}
	if err := p.Validate(4); err != nil {
		t.Error(err)
	}
}

func TestFromOrderAndOrderInverse(t *testing.T) {
	order := []int{2, 0, 1} // slot0=item2, slot1=item0, slot2=item1
	p, err := FromOrder(order)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, Placement{1, 2, 0}) {
		t.Errorf("FromOrder = %v", p)
	}
	back, err := p.Order()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, order) {
		t.Errorf("Order = %v, want %v", back, order)
	}
}

func TestFromOrderErrors(t *testing.T) {
	if _, err := FromOrder([]int{0, 0}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := FromOrder([]int{0, 5}); err == nil {
		t.Error("out of range accepted")
	}
	if _, err := FromOrder([]int{-1, 0}); err == nil {
		t.Error("negative accepted")
	}
}

func TestValidate(t *testing.T) {
	if err := (Placement{0, 2}).Validate(3); err != nil {
		t.Errorf("sparse placement rejected: %v", err)
	}
	cases := []struct {
		p     Placement
		slots int
	}{
		{Placement{}, 1},
		{Placement{0, 1, 2}, 2},
		{Placement{0, 0}, 2},
		{Placement{0, 3}, 3},
		{Placement{-1, 0}, 2},
	}
	for i, c := range cases {
		if err := c.p.Validate(c.slots); err == nil {
			t.Errorf("case %d accepted: %v over %d", i, c.p, c.slots)
		}
	}
}

func TestOrderRejectsSparse(t *testing.T) {
	if _, err := (Placement{0, 2}).Order(); err == nil {
		t.Error("Order on sparse placement accepted")
	}
}

func TestCloneAndSwap(t *testing.T) {
	p := Identity(3)
	q := p.Clone()
	q.Swap(0, 2)
	if !reflect.DeepEqual(p, Placement{0, 1, 2}) {
		t.Error("Clone shares storage")
	}
	if !reflect.DeepEqual(q, Placement{2, 1, 0}) {
		t.Errorf("Swap = %v", q)
	}
}

// mirror returns the placement reflected across the tape: slot s
// becomes slots-1-s.
func mirror(p Placement, slots int) Placement {
	m := make(Placement, len(p))
	for item, s := range p {
		m[item] = slots - 1 - s
	}
	return m
}

func TestMirror(t *testing.T) {
	p := Placement{0, 3, 1}
	m := mirror(p, 4)
	if !reflect.DeepEqual(m, Placement{3, 0, 2}) {
		t.Errorf("mirror = %v", m)
	}
	if err := m.Validate(4); err != nil {
		t.Errorf("mirrored placement invalid: %v", err)
	}
	// Mirror twice is identity.
	if !reflect.DeepEqual(mirror(m, 4), p) {
		t.Error("double mirror is not identity")
	}
}

func TestMultiPlacementValidate(t *testing.T) {
	mp := NewMultiPlacement(3)
	if err := mp.Validate(2, 4); err == nil {
		t.Error("unassigned entries accepted")
	}
	mp.Tape = []int{0, 0, 1}
	mp.Slot = []int{0, 1, 0}
	if err := mp.Validate(2, 4); err != nil {
		t.Errorf("valid multi-placement rejected: %v", err)
	}
	dup := MultiPlacement{Tape: []int{0, 0}, Slot: []int{1, 1}}
	if err := dup.Validate(1, 4); err == nil {
		t.Error("colliding placement accepted")
	}
	if err := (MultiPlacement{Tape: []int{2}, Slot: []int{0}}).Validate(2, 4); err == nil {
		t.Error("bad tape accepted")
	}
	if err := (MultiPlacement{Tape: []int{0}, Slot: []int{4}}).Validate(2, 4); err == nil {
		t.Error("bad slot accepted")
	}
	if err := (MultiPlacement{Tape: []int{0}, Slot: []int{0, 1}}).Validate(2, 4); err == nil {
		t.Error("mismatched lengths accepted")
	}
	big := MultiPlacement{Tape: []int{0, 0, 0}, Slot: []int{0, 1, 2}}
	if err := big.Validate(1, 2); err == nil {
		t.Error("overfull device accepted")
	}
}

func TestMultiPlacementCloneIndependence(t *testing.T) {
	mp := MultiPlacement{Tape: []int{0, 1}, Slot: []int{2, 3}}
	c := mp.Clone()
	c.Tape[0], c.Slot[0] = 9, 9
	if mp.Tape[0] != 0 || mp.Slot[0] != 2 {
		t.Error("Clone shares storage")
	}
}

func TestSingleTape(t *testing.T) {
	p := Placement{2, 0, 1}
	mp := SingleTape(p)
	if err := mp.Validate(1, 3); err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if mp.Tape[i] != 0 || mp.Slot[i] != p[i] {
			t.Errorf("item %d: tape %d slot %d", i, mp.Tape[i], mp.Slot[i])
		}
	}
}

// Property: FromOrder and Order are inverse bijections on permutations.
func TestOrderRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		order := rng.Perm(n)
		p, err := FromOrder(order)
		if err != nil {
			return false
		}
		back, err := p.Order()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(order, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
