package graph

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
	"testing/quick"
)

// A text format for transition graphs. Nothing outside tests reads or
// writes it; it stays here, with the tests that pin it:
//
//	dwmgraph 1
//	vertices <N>
//	e <u> <v> <w>
//	...
//
// Blank lines and '#' comments are ignored. Edges are written sorted
// (descending weight, then by endpoints), which makes the encoding
// canonical: equal graphs encode to equal bytes.

const graphMagic = "dwmgraph"

// encode writes the graph in the canonical text format.
func encode(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s 1\n", graphMagic)
	fmt.Fprintf(bw, "vertices %d\n", g.N())
	for _, e := range edges(g) {
		fmt.Fprintf(bw, "e %d %d %d\n", e.U, e.V, e.W)
	}
	return bw.Flush()
}

// decode parses a graph from the text format.
func decode(r io.Reader) (*Graph, error) {
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
		return nil, fmt.Errorf("graph: empty input")
	}
	fields := strings.Fields(hdr)
	if len(fields) != 2 || fields[0] != graphMagic || fields[1] != "1" {
		return nil, fmt.Errorf("graph: line %d: bad header %q", line, hdr)
	}
	var g *Graph
	for {
		s, ok := next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(s, "vertices "):
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate vertices header", line)
			}
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(s, "vertices ")))
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex count: %v", line, err)
			}
			if g, err = New(n); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
		case strings.HasPrefix(s, "e "):
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before vertices header", line)
			}
			f := strings.Fields(s)
			if len(f) != 4 {
				return nil, fmt.Errorf("graph: line %d: want 'e u v w', got %q", line, s)
			}
			u, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.Atoi(f[2])
			wgt, err3 := strconv.ParseInt(f[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge %q", line, s)
			}
			if u < 0 || u >= g.N() || v < 0 || v >= g.N() || u == v || wgt <= 0 {
				return nil, fmt.Errorf("graph: line %d: invalid edge %d-%d w=%d", line, u, v, wgt)
			}
			if g.Weight(u, v) != 0 {
				return nil, fmt.Errorf("graph: line %d: duplicate edge %d-%d", line, u, v)
			}
			g.AddWeight(u, v, wgt)
		default:
			return nil, fmt.Errorf("graph: line %d: unrecognized line %q", line, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing vertices header")
	}
	return g, nil
}

func TestGraphCodecRoundTrip(t *testing.T) {
	g := mustNew(t, 5)
	g.AddWeight(0, 4, 7)
	g.AddWeight(1, 2, 3)
	var buf bytes.Buffer
	if err := encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 5 || got.Weight(0, 4) != 7 || got.Weight(1, 2) != 3 || len(edges(got)) != 2 {
		t.Errorf("round trip wrong: %d vertices, %d edges", got.N(), len(edges(got)))
	}
}

func TestGraphCodecCanonical(t *testing.T) {
	// Same graph built in different insertion orders encodes identically.
	a := mustNew(t, 4)
	a.AddWeight(0, 1, 2)
	a.AddWeight(2, 3, 5)
	b := mustNew(t, 4)
	b.AddWeight(3, 2, 5)
	b.AddWeight(1, 0, 2)
	var ba, bb bytes.Buffer
	if err := encode(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := encode(&bb, b); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Errorf("encodings differ:\n%s\nvs\n%s", ba.String(), bb.String())
	}
}

func TestGraphDecodeErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad magic", "nope 1\nvertices 2\n"},
		{"bad version", "dwmgraph 2\nvertices 2\n"},
		{"no vertices", "dwmgraph 1\ne 0 1 1\n"},
		{"dup vertices", "dwmgraph 1\nvertices 2\nvertices 2\n"},
		{"bad count", "dwmgraph 1\nvertices x\n"},
		{"zero count", "dwmgraph 1\nvertices 0\n"},
		{"short edge", "dwmgraph 1\nvertices 2\ne 0 1\n"},
		{"bad edge ints", "dwmgraph 1\nvertices 2\ne 0 x 1\n"},
		{"self loop", "dwmgraph 1\nvertices 2\ne 0 0 1\n"},
		{"range", "dwmgraph 1\nvertices 2\ne 0 2 1\n"},
		{"zero weight", "dwmgraph 1\nvertices 2\ne 0 1 0\n"},
		{"dup edge", "dwmgraph 1\nvertices 2\ne 0 1 1\ne 1 0 2\n"},
		{"junk", "dwmgraph 1\nvertices 2\nzzz\n"},
		{"only header", "dwmgraph 1\n"},
	}
	for _, c := range cases {
		if _, err := decode(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestGraphDecodeComments(t *testing.T) {
	in := "# header comment\ndwmgraph 1\n\nvertices 3\n# edge\ne 0 2 4\n"
	g, err := decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 2) != 4 {
		t.Errorf("weight = %d", g.Weight(0, 2))
	}
}

func TestGraphCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		g, err := New(n)
		if err != nil {
			return false
		}
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddWeight(u, v, int64(rng.Intn(50)+1))
			}
		}
		var buf bytes.Buffer
		if err := encode(&buf, g); err != nil {
			return false
		}
		got, err := decode(&buf)
		if err != nil {
			return false
		}
		return got.N() == g.N() && reflect.DeepEqual(edges(got), edges(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
