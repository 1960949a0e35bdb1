package sim

import (
	"testing"

	"repro/internal/dwm"
	"repro/internal/layout"
	"repro/internal/workload"
)

// BenchmarkRun times Simulator.Run alone on the 64-item FIR trace of the
// root BenchmarkSimulatorRun, whose loop also builds the device and the
// simulator, and reports the cost per access as ns/access. The device is
// built once, outside the timed region; under HeadStay each run starts
// where the last one parked the head, so every run after the first does
// the same work.
func BenchmarkRun(b *testing.B) {
	tr := workload.FIR(32, 64)
	dev, err := dwm.NewDevice(dwm.Geometry{Tapes: 1, DomainsPerTape: tr.NumItems, PortsPerTape: 1}, dwm.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSingleTape(dev, layout.Identity(tr.NumItems), HeadStay)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/access")
}
