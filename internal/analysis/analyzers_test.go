package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer's fixture covers a true positive, a suppressed site, and
// a false-positive guard (see testdata/src/<name>/a.go).

func TestSeededRand(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.SeededRand, "seededrand")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.MapOrder, "maporder")
}

func TestWallTime(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.WallTime, "walltime")
}

func TestBareGo(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.BareGo, "barego")
}

func TestSliceShare(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.SliceShare, "sliceshare")
}

func TestFrozenMut(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.FrozenMut, "frozenmut")
}

func TestGuardedField(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.GuardedField, "guardedfield")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CtxFlow, "ctxflow")
}

func TestByName(t *testing.T) {
	got, err := analysis.ByName("maporder, walltime")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "maporder" || got[1].Name != "walltime" {
		t.Fatalf("ByName returned %v", got)
	}
	if _, err := analysis.ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
	if _, err := analysis.ByName(""); err == nil {
		t.Fatal("ByName accepted an empty selection")
	}
}

// The testonly fixture spans three packages: lib (findings, the
// interface-method and cross-package guards, a doc suppression and a
// test-only caller), support (test support, reported at its package
// clause) and app (a root outside internal/).
func TestTestOnly(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.TestOnly,
		"testonly/internal/support", "testonly/internal/lib", "testonly/app")
}
