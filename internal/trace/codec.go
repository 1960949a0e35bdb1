package trace

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// The text format is line oriented:
//
//	dwmtrace 1
//	name <workload name, may contain spaces>
//	items <N>
//	R <item>
//	W <item>
//	...
//
// Blank lines and lines starting with '#' are ignored. The format is
// deliberately trivial so traces can be produced by any tool (or by hand)
// and inspected with standard text utilities.

const formatMagic = "dwmtrace"

// Encode writes the trace in the text format.
func Encode(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s 1\n", formatMagic)
	if t.Name != "" {
		fmt.Fprintf(bw, "name %s\n", t.Name)
	}
	fmt.Fprintf(bw, "items %d\n", t.NumItems)
	for _, a := range t.Accesses {
		op := "R"
		if a.Write {
			op = "W"
		}
		fmt.Fprintf(bw, "%s %d\n", op, a.Item)
	}
	return bw.Flush()
}

// Decode parses a trace from the text format and validates it.
func Decode(r io.Reader) (*Trace, error) {
	_, span := obs.StartSpan(context.Background(), "trace.decode")
	defer span.End()
	t, err := decode(r)
	if err != nil {
		span.SetAttr("error", true)
		return nil, err
	}
	span.SetAttr("name", t.Name).
		SetAttr("accesses", t.Len()).
		SetAttr("items", t.NumItems)
	return t, nil
}

// decode parses the text format line by line. Strings are built only
// for the header, name and items lines and for error messages, so an
// access line costs no allocation: strconv.Atoi copies its input only
// into an error, so the string(b) conversion of a short item ID stays
// on the stack.
func decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	// next returns the next significant line, trimmed, as a slice into
	// the scanner's buffer: valid until the following call.
	next := func() ([]byte, bool) {
		for sc.Scan() {
			line++
			b := bytes.TrimSpace(sc.Bytes())
			if len(b) == 0 || b[0] == '#' {
				continue
			}
			return b, true
		}
		return nil, false
	}

	hdrb, ok := next()
	if !ok {
		return nil, fmt.Errorf("trace: empty input")
	}
	hdr := string(hdrb)
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
		case len(s) > 2 && (s[0] == 'R' || s[0] == 'W') && s[1] == ' ':
			id, err := strconv.Atoi(string(bytes.TrimSpace(s[2:])))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad item id: %v", line, err)
			}
			t.Accesses = append(t.Accesses, Access{Item: id, Write: s[0] == 'W'})
		case string(s) == "name": // explicit empty name
			t.Name = ""
		case bytes.HasPrefix(s, []byte("name ")):
			t.Name = string(bytes.TrimSpace(s[len("name "):]))
		case bytes.HasPrefix(s, []byte("items ")):
			n, err := strconv.Atoi(string(bytes.TrimSpace(s[len("items "):])))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad items count: %v", line, err)
			}
			t.NumItems = n
			seenItems = true
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
