package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition of a Snapshot, the payload of dwmserved's
// GET /metrics. Instrument names use dots as namespace separators
// ("core.anneal.iterations"); the exposition sanitizes them to the
// Prometheus grammar ("core_anneal_iterations") and prefixes everything
// with "dwm_" so the scrape namespace is unambiguous. Histograms expand
// to the standard <name>_bucket{le="..."} cumulative series plus
// <name>_sum and <name>_count.
//
// Every metric name is validated against the exposition grammar before
// it is written and every label value is escaped (backslash, quote,
// newline), so a hostile or merely unusual instrument name can never
// corrupt the scrape. LintExpositionOpts is the matching conformance
// checker, run by cmd/promlint and the obs-smoke CI target.

// promName sanitizes an instrument name to a legal Prometheus metric
// name: [a-zA-Z_:][a-zA-Z0-9_:]*, with the project prefix applied.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("dwm_")
	for _, r := range name {
		switch {
		// The dwm_ prefix already provides the required non-digit first
		// character, so digits pass through at any position.
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// ValidMetricName reports whether name is a legal Prometheus metric
// name.
func ValidMetricName(name string) bool { return metricNameRE.MatchString(name) }

// escapeLabelValue escapes a label value per the text exposition
// format: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// sortedKeys returns the map's keys in lexical order, the exposition's
// (and the text Format's) deterministic ordering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatLe renders a bucket upper bound as Prometheus expects it.
func formatLe(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): a # TYPE line per metric followed by its
// samples, in lexical instrument order. It refuses (with an error, not
// a corrupt exposition) to write a metric whose sanitized name still
// fails the grammar.
func (s Snapshot) WriteProm(w io.Writer) error {
	typeLine := func(name, typ string) error {
		if !ValidMetricName(name) {
			return fmt.Errorf("obs: %q is not a valid Prometheus metric name", name)
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		return err
	}
	emit := func(name, typ string, value int64) error {
		if err := typeLine(name, typ); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", name, value)
		return err
	}
	// writeHist emits one histogram series: cumulative buckets (each
	// carrying its exemplar, when the bucket has one, as an
	// OpenMetrics-style " # {trace_id=...} value" annotation), then
	// _sum and _count. labels is the series' non-le label set body,
	// empty for unlabeled histograms.
	writeHist := func(base, labels string, st HistStats) error {
		var cum int64
		for i, c := range st.Counts {
			cum += c
			le := math.Inf(1)
			if i < len(st.Bounds) {
				le = st.Bounds[i]
			}
			sep := ""
			if labels != "" {
				sep = ","
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d",
				base, labels, sep, escapeLabelValue(formatLe(le)), cum); err != nil {
				return err
			}
			if st.Exemplars != nil && st.Exemplars[i] != nil {
				ex := st.Exemplars[i]
				if _, err := fmt.Fprintf(w, " # {trace_id=\"%s\"} %d",
					escapeLabelValue(ex.Trace), ex.Value); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		_, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", base, suffix, st.Sum, base, suffix, cum)
		return err
	}
	for _, name := range sortedKeys(s.Counters) {
		if err := emit(promName(name), "counter", s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.LabeledCounters) {
		st := s.LabeledCounters[name]
		base := promName(name)
		if err := typeLine(base, "counter"); err != nil {
			return err
		}
		for _, ls := range st.Series {
			if _, err := fmt.Fprintf(w, "%s{%s} %d\n", base, labelPairs(st.Keys, ls.Values), ls.Value); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := emit(promName(name), "gauge", s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		st := s.Histograms[name]
		base := promName(name)
		if err := typeLine(base, "histogram"); err != nil {
			return err
		}
		if err := writeHist(base, "", st); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.LabeledHistograms) {
		st := s.LabeledHistograms[name]
		base := promName(name)
		if err := typeLine(base, "histogram"); err != nil {
			return err
		}
		for _, ls := range st.Series {
			if err := writeHist(base, labelPairs(st.Keys, ls.Values), ls.Hist); err != nil {
				return err
			}
		}
	}
	return nil
}

// lintLineRE matches one sample line: name, optional label set, value.
var lintLineRE = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$`)

// lintLabelRE matches one label pair inside a label set, with a
// properly escaped quoted value.
var lintLabelRE = regexp.MustCompile(
	`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)

// lintExemplarRE matches the OpenMetrics-style exemplar annotation the
// snapshot writer appends to bucket samples: a one-label set (the trace
// ID) and the exemplar's value.
var lintExemplarRE = regexp.MustCompile(
	`^\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"\} -?[0-9]+(\.[0-9]+)?$`)

// LintOptions tunes LintExpositionOpts.
type LintOptions struct {
	// MaxSeriesPerMetric bounds the number of distinct label sets (the
	// le bucket label excluded) any one metric family may carry; 0
	// disables the check. Exceeding the bound is the signature of an
	// unbounded label — cardinality that grows with the data instead of
	// with the code — which the in-process vecs prevent by construction
	// (see labels.go) and this check catches at the scrape.
	MaxSeriesPerMetric int
}

// LintExpositionOpts is the conformance checker for the text exposition
// format the snapshot writer produces: every sample's metric name is
// valid and preceded by a matching # TYPE line, no metric is declared
// twice, no series is emitted twice, label sets parse with escaped
// values, exemplar annotations are well-formed, and every histogram
// series is complete (a +Inf bucket whose cumulative count equals its
// _count, with non-decreasing bucket counts and a _sum — tracked per
// label set, since labeled histograms restart the cumulative sequence
// for each series). opts adds the cardinality bound cmd/promlint
// exposes; see LintOptions. It returns the first violation found, or nil.
func LintExpositionOpts(r io.Reader, opts LintOptions) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	declared := map[string]string{} // metric name -> type
	seenSeries := map[string]bool{}
	type histState struct {
		lastCum  int64
		infCum   int64
		sawInf   bool
		sawSum   bool
		sawCount bool
		count    int64
	}
	hists := map[string]bool{}            // declared histogram families
	histSeries := map[string]*histState{} // family + "\xff" + non-le label set
	cardinality := map[string]map[string]bool{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE line: %q", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				if !ValidMetricName(name) {
					return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := declared[name]; dup {
					return fmt.Errorf("line %d: metric %q declared twice", lineNo, name)
				}
				declared[name] = typ
				if typ == "histogram" {
					hists[name] = true
				}
			}
			continue // HELP and free comments pass through
		}
		// Split off an exemplar annotation before parsing the sample:
		// `name{labels} value # {trace_id="..."} exemplar-value`.
		sample := line
		if i := strings.Index(line, " # "); i >= 0 {
			sample = line[:i]
			if !lintExemplarRE.MatchString(line[i+3:]) {
				return fmt.Errorf("line %d: malformed exemplar annotation %q", lineNo, line[i+3:])
			}
		}
		m := lintLineRE.FindStringSubmatch(sample)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample line: %q", lineNo, line)
		}
		name, labels, value := m[1], m[3], m[4]
		if m[2] != "" {
			for _, pair := range splitLabels(labels) {
				if !lintLabelRE.MatchString(pair) {
					return fmt.Errorf("line %d: malformed label pair %q", lineNo, pair)
				}
			}
		}
		base, ok := seriesBase(name, declared)
		if !ok {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE declaration", lineNo, name)
		}
		series := name + "{" + labels + "}"
		if seenSeries[series] {
			return fmt.Errorf("line %d: series %q emitted twice", lineNo, series)
		}
		seenSeries[series] = true
		ident := stripLabel(labels, "le")
		if cardinality[base] == nil {
			cardinality[base] = map[string]bool{}
		}
		cardinality[base][ident] = true
		if opts.MaxSeriesPerMetric > 0 && len(cardinality[base]) > opts.MaxSeriesPerMetric {
			return fmt.Errorf("line %d: metric %q exceeds %d distinct label sets — unbounded label cardinality",
				lineNo, base, opts.MaxSeriesPerMetric)
		}
		if hists[base] {
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: histogram sample %q has non-integer value %q", lineNo, name, value)
			}
			key := base + "\xff" + ident
			h := histSeries[key]
			if h == nil {
				h = &histState{}
				histSeries[key] = h
			}
			switch {
			case name == base+"_bucket":
				le := labelValue(labels, "le")
				if le == "" {
					return fmt.Errorf("line %d: %s_bucket sample without le label", lineNo, base)
				}
				if v < h.lastCum {
					return fmt.Errorf("line %d: %s bucket counts decrease (%d after %d)", lineNo, base, v, h.lastCum)
				}
				h.lastCum = v
				if le == "+Inf" {
					h.sawInf = true
					h.infCum = v
				}
			case name == base+"_sum":
				h.sawSum = true
			case name == base+"_count":
				h.sawCount = true
				h.count = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, key := range sortedKeys(histSeries) {
		h := histSeries[key]
		name, ident, _ := strings.Cut(key, "\xff")
		if ident != "" {
			name = name + "{" + ident + "}"
		}
		switch {
		case !h.sawInf:
			return fmt.Errorf("histogram %q has no +Inf bucket", name)
		case !h.sawSum:
			return fmt.Errorf("histogram %q has no _sum sample", name)
		case !h.sawCount:
			return fmt.Errorf("histogram %q has no _count sample", name)
		case h.infCum != h.count:
			return fmt.Errorf("histogram %q: +Inf bucket %d != count %d", name, h.infCum, h.count)
		}
	}
	return nil
}

// stripLabel removes one label pair from a label set body, preserving
// the order of the rest — a histogram series' identity is its label set
// without the le bucket label.
func stripLabel(labels, key string) string {
	if labels == "" {
		return ""
	}
	var kept []string
	for _, pair := range splitLabels(labels) {
		if k, _, ok := strings.Cut(pair, "="); ok && k == key {
			continue
		}
		kept = append(kept, pair)
	}
	return strings.Join(kept, ",")
}

// seriesBase resolves a sample name to its declared metric: exact match
// first, then the histogram/summary child suffixes.
func seriesBase(name string, declared map[string]string) (string, bool) {
	if _, ok := declared[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if t, ok := declared[base]; ok && (t == "histogram" || t == "summary") {
			return base, true
		}
	}
	return "", false
}

// splitLabels splits a label set body on commas that sit outside quoted
// values.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(r)
		case r == '\\' && inQuote:
			escaped = true
			cur.WriteRune(r)
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// labelValue extracts the (unescaped) value of one label from a label
// set body, empty when absent.
func labelValue(labels, key string) string {
	for _, pair := range splitLabels(labels) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k != key {
			continue
		}
		v = strings.TrimPrefix(v, `"`)
		v = strings.TrimSuffix(v, `"`)
		var b strings.Builder
		escaped := false
		for _, r := range v {
			switch {
			case escaped:
				switch r {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteRune(r)
				}
				escaped = false
			case r == '\\':
				escaped = true
			default:
				b.WriteRune(r)
			}
		}
		return b.String()
	}
	return ""
}
