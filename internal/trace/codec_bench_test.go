package trace_test

import (
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkDecode decodes the text form of the 15 suite kernels (seed 1)
// per op: the service's trace-decode layer on realistic inputs.
func BenchmarkDecode(b *testing.B) {
	var texts []string
	size := 0
	for _, gen := range workload.Suite() {
		var sb strings.Builder
		if err := trace.Encode(&sb, gen.Make(1)); err != nil {
			b.Fatal(err)
		}
		texts = append(texts, sb.String())
		size += sb.Len()
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range texts {
			if _, err := trace.Decode(strings.NewReader(s)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
