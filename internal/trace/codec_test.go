package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := New("fir taps=8", 16)
	tr.Read(3)
	tr.Write(5)
	tr.Read(0)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	tr := New("bad", 2)
	tr.Read(5)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err == nil {
		t.Error("Encode accepted invalid trace")
	}
}

func TestDecodeToleratesCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
dwmtrace 1

name demo
items 3
# body
R 0

W 2
`
	tr, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "demo" || tr.NumItems != 3 || tr.Len() != 2 {
		t.Errorf("decoded %+v", tr)
	}
	if !tr.Accesses[1].Write || tr.Accesses[1].Item != 2 {
		t.Errorf("second access = %+v", tr.Accesses[1])
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad magic", "nottrace 1\nitems 1\n"},
		{"bad version", "dwmtrace 9\nitems 1\n"},
		{"missing items", "dwmtrace 1\nname x\nR 0\n"},
		{"bad items", "dwmtrace 1\nitems many\n"},
		{"bad id", "dwmtrace 1\nitems 2\nR x\n"},
		{"out of range", "dwmtrace 1\nitems 2\nR 2\n"},
		{"junk line", "dwmtrace 1\nitems 2\nZ 0\n"},
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDecodeNameWithSpaces(t *testing.T) {
	in := "dwmtrace 1\nname matrix multiply 4x4\nitems 1\nR 0\n"
	tr, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "matrix multiply 4x4" {
		t.Errorf("Name = %q", tr.Name)
	}
}

// Property: Decode(Encode(t)) == t for arbitrary valid traces.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		tr := New("prop", n)
		for i := 0; i < rng.Intn(500); i++ {
			if rng.Intn(2) == 0 {
				tr.Read(rng.Intn(n))
			} else {
				tr.Write(rng.Intn(n))
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// refDecode is the plain form of the text decoder: a bufio.Scanner
// that builds one string per line and parses it with the strings and
// strconv functions. It is the oracle Decode must match on every input,
// trace and error text alike.
func refDecode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return s, true
		}
		return "", false
	}

	hdr, ok := next()
	if !ok {
		return nil, fmt.Errorf("trace: empty input")
	}
	fields := strings.Fields(hdr)
	if len(fields) != 2 || fields[0] != formatMagic {
		return nil, fmt.Errorf("trace: line %d: bad magic %q", line, hdr)
	}
	if fields[1] != "1" {
		return nil, fmt.Errorf("trace: line %d: unsupported version %q", line, fields[1])
	}

	t := &Trace{}
	seenItems := false
	for {
		s, ok := next()
		if !ok {
			break
		}
		switch {
		case s == "name": // explicit empty name
			t.Name = ""
		case strings.HasPrefix(s, "name "):
			t.Name = strings.TrimSpace(strings.TrimPrefix(s, "name "))
		case strings.HasPrefix(s, "items "):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(s, "items ")))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad items count: %v", line, err)
			}
			t.NumItems = n
			seenItems = true
		case strings.HasPrefix(s, "R ") || strings.HasPrefix(s, "W "):
			id, err := strconv.Atoi(strings.TrimSpace(s[2:]))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad item id: %v", line, err)
			}
			t.Accesses = append(t.Accesses, Access{Item: id, Write: s[0] == 'W'})
		default:
			return nil, fmt.Errorf("trace: line %d: unrecognized line %q", line, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if !seenItems {
		return nil, fmt.Errorf("trace: missing 'items' header")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// checkDecodeMatchesRef fails t unless Decode and refDecode agree on
// in, read through wrap: the same trace, or the same error text.
func checkDecodeMatchesRef(t *testing.T, in string, wrap func(io.Reader) io.Reader) {
	t.Helper()
	got, gerr := Decode(wrap(strings.NewReader(in)))
	want, werr := refDecode(wrap(strings.NewReader(in)))
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("error mismatch on %.80q:\n got %.200v\nwant %.200v", in, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace mismatch on %.80q:\n got %+v\nwant %+v", in, got, want)
	}
}

// TestDecodeMatchesReference drives Decode and refDecode over the
// format's edge cases: CRLF endings, Unicode spaces, signs and
// out-of-range IDs, a missing final newline, the 16 MiB line limit, and
// readers that split, delay or fail their reads.
func TestDecodeMatchesReference(t *testing.T) {
	ins := []string{
		"",
		"\n\n# only comments\n",
		"dwmtrace 1\r\nname a b\r\nitems 3\r\nR 0\r\nW 2\r\n",
		"dwmtrace 1\nitems 3\nR 1",
		"dwmtrace 1\nitems 3\nR +1\nW -0\nR 007\n",
		"dwmtrace 1\nitems 3\nR -1\n",
		"dwmtrace 1\nitems 3\nR 99999999999999999999\n",
		"dwmtrace 1\nitems 3\nR 1_0\n",
		"dwmtrace 1\nitems 3\nR\t1\n",
		"dwmtrace 1\nitems 3\nR  \u00a02\u2003\n",
		"dwmtrace 1\nitems 3\nR \u00851\n",
		"dwmtrace 1\nitems 3\nR 1\r0\n",
		"dwmtrace 1\nitems  4 \nname\nR 3\n",
		"dwmtrace 1\nitems 3\nname\t x\n",
		"dwmtrace 1\nitems 0x3\n",
		"dwmtrace 1\nitems 2\nR 1\nW 2\n",
		"dwmtrace 1\nitems 2\nRW 1\n",
		"dwmtrace 1\nitems 2\nR\n",
		"dwmtrace 1\nitems 2\nr 1\n",
		"  dwmtrace   1  \nitems 1\n",
		"dwmtrace 1 2\nitems 1\n",
		"dwmtrace 01\nitems 1\n",
		"dwmtrace\xff 1\nitems 1\n",
		"dwmtrace 1\nitems 1\nname \xff\xfe\n",
		"dwmtrace 1\nitems 1\nname " + strings.Repeat("y", 3000) + "\nR 0\n",
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"plain", func(r io.Reader) io.Reader { return r }},
		{"half", iotest.HalfReader},
		{"onebyte", iotest.OneByteReader},
		{"dataerr", iotest.DataErrReader},
		{"timeout", iotest.TimeoutReader},
	}
	for i, in := range ins {
		for _, rd := range readers {
			t.Run(fmt.Sprintf("%d/%s", i, rd.name), func(t *testing.T) {
				checkDecodeMatchesRef(t, in, rd.wrap)
			})
		}
	}
	const maxLine = 16 << 20
	long := func(n int) string { return "name " + strings.Repeat("x", n-len("name ")) }
	limits := []string{
		"dwmtrace 1\nitems 1\n" + long(maxLine-1) + "\n",
		"dwmtrace 1\nitems 1\nR 1\n" + long(maxLine) + "\nR 0\n",
	}
	for i, in := range limits {
		for _, rd := range readers[:2] { // one byte at a time, 16 MiB is slow
			t.Run(fmt.Sprintf("limit%d/%s", i, rd.name), func(t *testing.T) {
				checkDecodeMatchesRef(t, in, rd.wrap)
			})
		}
	}
}

func FuzzDecode(f *testing.F) {
	f.Add("dwmtrace 1\nname x\nitems 3\nR 0\nW 2\n")
	f.Add("dwmtrace 1\nitems 1\n")
	f.Add("garbage")
	f.Add("dwmtrace 1\r\nitems 2\r\nR +1\r\n# c\n\nW 0")
	f.Fuzz(func(t *testing.T, in string) {
		checkDecodeMatchesRef(t, in, func(r io.Reader) io.Reader { return r })
		tr, err := Decode(strings.NewReader(in))
		if err != nil {
			return
		}
		// Anything Decode accepts must validate and re-encode cleanly.
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoded invalid trace: %v", err)
		}
		var sb strings.Builder
		if err := Encode(&sb, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Decode(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatal("re-decode mismatch")
		}
	})
}
