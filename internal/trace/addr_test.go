package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMapAddressesWordTruncation(t *testing.T) {
	events := []AddrEvent{
		{Addr: 0x1000},              // word 0x1000 -> item 0
		{Addr: 0x1004, Write: true}, // same 8-byte word -> item 0
		{Addr: 0x1008},              // next word -> item 1
		{Addr: 0x1000},              // item 0 again
	}
	tr, words, err := MapAddresses("t", events, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumItems != 2 {
		t.Fatalf("NumItems = %d", tr.NumItems)
	}
	if !reflect.DeepEqual(words, []uint64{0x1000, 0x1008}) {
		t.Errorf("words = %#x", words)
	}
	wantItems := []int{0, 0, 1, 0}
	if got := tr.Items(); !reflect.DeepEqual(got, wantItems) {
		t.Errorf("items = %v", got)
	}
	if !tr.Accesses[1].Write || tr.Accesses[0].Write {
		t.Error("write flags lost")
	}
}

func TestMapAddressesErrors(t *testing.T) {
	if _, _, err := MapAddresses("t", nil, 8); err == nil {
		t.Error("empty stream accepted")
	}
	ev := []AddrEvent{{Addr: 1}}
	for _, wb := range []int{0, -4, 3, 12} {
		if _, _, err := MapAddresses("t", ev, wb); err == nil {
			t.Errorf("wordBytes %d accepted", wb)
		}
	}
}

func TestDecodeAddr(t *testing.T) {
	in := `
# raw pin trace
R 0x1000
W 0x1004
R 4104
`
	tr, words, err := DecodeAddr(strings.NewReader(in), "pin", 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "pin" || tr.NumItems != 2 || tr.Len() != 3 {
		t.Errorf("trace %+v", tr)
	}
	// 4104 = 0x1008.
	if words[1] != 0x1008 {
		t.Errorf("words = %#x", words)
	}
}

func TestDecodeAddrErrors(t *testing.T) {
	cases := []string{
		"X 0x10\n",
		"R\n",
		"R nothex\n",
		"R 0x10 extra\n",
		"", // empty -> empty stream
	}
	for i, in := range cases {
		if _, _, err := DecodeAddr(strings.NewReader(in), "t", 8); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// Property: the mapped trace validates, item count equals distinct words,
// and round-tripping through the words table reproduces the word
// addresses.
func TestMapAddressesProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		events := make([]AddrEvent, n)
		for i := range events {
			events[i] = AddrEvent{
				Addr:  uint64(rng.Intn(64)) * 4,
				Write: rng.Intn(2) == 0,
			}
		}
		tr, words, err := MapAddresses("p", events, 16)
		if err != nil {
			return false
		}
		if tr.Validate() != nil || tr.NumItems != len(words) {
			return false
		}
		for i, e := range events {
			if words[tr.Accesses[i].Item] != e.Addr&^uint64(15) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func FuzzDecodeAddr(f *testing.F) {
	f.Add("R 0x10\nW 32\n")
	f.Add("# comment\n\nR 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, words, err := DecodeAddr(strings.NewReader(in), "fuzz", 8)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoded invalid trace: %v", err)
		}
		if tr.NumItems != len(words) {
			t.Fatalf("items %d != words %d", tr.NumItems, len(words))
		}
	})
}
