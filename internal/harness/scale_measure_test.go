package harness

import (
	"runtime"
	"testing"
	"time"
)

// TestMeasureScaleSmoke runs the 100-node cells of the scale ablation and
// checks the protocols actually converged: OLSR must have learned routes at
// the mid-grid node, and every AODV probe must have resolved.
func TestMeasureScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke is seconds-long; skipped in -short")
	}
	olsr, err := MeasureScale(ScaleSpec{Protocol: "olsr", Nodes: 100})
	if err != nil {
		t.Fatalf("olsr: %v", err)
	}
	if olsr.Stats.RxFrames == 0 {
		t.Fatalf("olsr: no frames delivered: %+v", olsr.Stats)
	}
	if olsr.Routes == 0 {
		t.Fatalf("olsr: mid-grid node learned no routes")
	}
	aodv, err := MeasureScale(ScaleSpec{Protocol: "aodv", Nodes: 100})
	if err != nil {
		t.Fatalf("aodv: %v", err)
	}
	// Every probe but the deliberately-unreachable far-corner one must
	// have discovered its route inside the window.
	if want := aodv.Spec.Probes - 1; aodv.Routes < want {
		t.Fatalf("aodv: %d of %d near probes established routes (stats %+v)",
			aodv.Routes, want, aodv.Stats)
	}
	t.Logf("olsr: %s", olsr.Digest())
	t.Logf("aodv: %s", aodv.Digest())
}

// TestMeasureScaleReplay is satellite coverage for the campaign-metric level
// of the determinism story: the full harness measurement — protocols, medium,
// probes, route liveness — must produce identical deterministic digests when
// the host parallelism changes underneath it.
func TestMeasureScaleReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("scale replay is seconds-long; skipped in -short")
	}
	spec := ScaleSpec{Protocol: "aodv", Nodes: 300, Window: 3 * time.Second}
	prev := runtime.GOMAXPROCS(1)
	serial, err := MeasureScale(spec)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallel, err := MeasureScale(spec)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if got, want := parallel.Digest(), serial.Digest(); got != want {
		t.Fatalf("campaign metrics diverged across GOMAXPROCS:\n 1:   %s\n %d: %s",
			want, runtime.GOMAXPROCS(0), got)
	}
}
