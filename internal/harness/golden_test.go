package harness

// Golden tests: one small scripted run per protocol family, traced
// through the observability layer, with the trace fingerprint committed to
// testdata/golden_fingerprints.json. The virtual clock and seeded medium
// make the span stream a pure function of (composition, seed), so any
// change to dispatch order, timer firing, message handling or the frame
// pipeline shows up as a fingerprint drift — the strongest whole-stack
// determinism regression we have.
//
// The same file pins what the metrics registry reports for one storm seed
// per family: the end-of-run counter map, and the fingerprint of a
// bus-attached storm's flight recorder, which carries every sampled
// metrics delta. The counter map is pinned itself, not through
// ChaosReport.Fingerprint, which also hashes the medium's Stats struct.
//
// When a change legitimately alters protocol behaviour (or the span
// schema), regenerate the committed goldens with
//
//	MANETKIT_UPDATE_GOLDEN=1 go test ./internal/harness -run TestGoldenTraces -update
//
// The env var is a second key on the trigger: -update alone fails loudly,
// so a stray flag in someone's test invocation can never silently rewrite
// the goldens.

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"manetkit/internal/metrics"
	"manetkit/internal/telemetry"
	"manetkit/internal/testbed"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden_fingerprints.json from this run (requires MANETKIT_UPDATE_GOLDEN=1)")

const goldenPath = "testdata/golden_fingerprints.json"

// goldenSeed is the storm seed the metric pins run.
const goldenSeed = 7

// goldenFile is the committed testdata, keyed by protocol family.
type goldenFile struct {
	// Traces is the span fingerprint of the scripted goldenTrace run.
	Traces map[string]string `json:"traces"`
	// StormMetrics is ChaosReport.Metrics at the end of the storm.
	StormMetrics map[string]map[string]uint64 `json:"storm_metrics"`
	// Recorders is the flight-recorder fingerprint of the same storm run,
	// which has a telemetry bus (and so a Sampler) attached.
	Recorders map[string]string `json:"recorders"`
}

// goldenTrace drives the canonical scripted run for one protocol family:
// a 3-node line, 13s of convergence, one end-to-end data packet, then 10s
// of settling — all traced.
func goldenTrace(t *testing.T, proto string) *telemetry.Bus {
	t.Helper()
	bus := telemetry.New(telemetry.Config{Epoch: testbed.Epoch})
	c, err := testbed.New(3, testbed.Options{
		Seed: 1, Telemetry: bus, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("testbed.New: %v", err)
	}
	defer c.Close()
	if err := c.Line(); err != nil {
		t.Fatalf("Line: %v", err)
	}
	for _, node := range c.Nodes {
		if _, err := DeployFamily(c, node, proto); err != nil {
			t.Fatalf("deploy %s: %v", proto, err)
		}
	}
	c.Run(13 * time.Second)
	if err := c.Nodes[0].Sys.Filter().SendData(c.Nodes[2].Addr, []byte("golden")); err != nil {
		t.Fatalf("SendData: %v", err)
	}
	c.Run(10 * time.Second)
	return bus
}

// goldenStorm runs the storm for one family with a telemetry bus, and
// fails when the bus's recorder could not hold the whole run.
func goldenStorm(t *testing.T, proto string) (*ChaosReport, *telemetry.Bus) {
	t.Helper()
	bus := telemetry.New(telemetry.Config{Epoch: testbed.Epoch})
	defer bus.Close()
	rep, err := RunChaos(ChaosConfig{
		Proto: proto, Scenario: ScenarioStorm, Seed: goldenSeed, Telemetry: bus,
	})
	if err != nil {
		t.Fatalf("RunChaos %s: %v", proto, err)
	}
	if n := bus.Evicted(); n != 0 {
		t.Fatalf("recorder evicted %d events; the golden must cover the whole run", n)
	}
	return rep, bus
}

// goldenRecorder is the flight-recorder fingerprint of one storm.
func goldenRecorder(t *testing.T, proto string) string {
	t.Helper()
	_, bus := goldenStorm(t, proto)
	return bus.Fingerprint()
}

// loadGoldens reads the committed goldens.
func loadGoldens(t *testing.T) goldenFile {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s: %v (regenerate with MANETKIT_UPDATE_GOLDEN=1 go test -run TestGoldenTraces -update)", goldenPath, err)
	}
	var out goldenFile
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return out
}

// writeGoldens rewrites the testdata file deterministically.
func writeGoldens(t *testing.T, g goldenFile) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatalf("mkdir testdata: %v", err)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatalf("marshal goldens: %v", err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write %s: %v", goldenPath, err)
	}
	t.Logf("rewrote %s for %d families", goldenPath, len(g.Traces))
}

// goldenProtos lists the protocol families under golden coverage, in
// stable order.
func goldenProtos[V any](m map[string]V) []string {
	protos := make([]string, 0, len(m))
	for p := range m {
		protos = append(protos, p)
	}
	sort.Strings(protos)
	return protos
}

func TestGoldenTraces(t *testing.T) {
	if *updateGolden {
		if os.Getenv("MANETKIT_UPDATE_GOLDEN") == "" {
			t.Fatal("-update passed without MANETKIT_UPDATE_GOLDEN=1; refusing to rewrite the goldens")
		}
		fresh := goldenFile{
			Traces:       map[string]string{},
			StormMetrics: map[string]map[string]uint64{},
			Recorders:    map[string]string{},
		}
		for _, proto := range ChaosProtos() {
			rep, bus := goldenStorm(t, proto)
			fresh.Traces[proto] = goldenTrace(t, proto).SpanFingerprint()
			fresh.StormMetrics[proto] = rep.Metrics
			fresh.Recorders[proto] = bus.Fingerprint()
		}
		writeGoldens(t, fresh)
		return
	}
	golden := loadGoldens(t).Traces
	for _, proto := range goldenProtos(golden) {
		proto, want := proto, golden[proto]
		t.Run(proto, func(t *testing.T) {
			bus := goldenTrace(t, proto)
			n := len(bus.Spans())
			if n == 0 {
				t.Fatal("empty trace")
			}
			if bus.SpansDropped() != 0 {
				t.Fatalf("trace evicted %d spans; raise the capacity so the golden covers the whole run", bus.SpansDropped())
			}
			if got := bus.SpanFingerprint(); got != want {
				t.Errorf("%s golden trace fingerprint = %s, want %s (%d spans)\n"+
					"If this change intentionally alters protocol behaviour, regenerate with\n"+
					"MANETKIT_UPDATE_GOLDEN=1 go test ./internal/harness -run TestGoldenTraces -update",
					proto, got, want, n)
			}
		})
	}
}

// TestGoldenTraceReproducible guards the foundation the committed
// fingerprints stand on: two identical runs must produce byte-identical
// traces on any host.
func TestGoldenTraceReproducible(t *testing.T) {
	a := goldenTrace(t, "dymo")
	b := goldenTrace(t, "dymo")
	if fa, fb := a.SpanFingerprint(), b.SpanFingerprint(); fa != fb {
		t.Fatalf("same-seed traces diverged: %s vs %s", fa, fb)
	}
}

// TestGoldenStormMetrics pins every counter name and value the registry
// reports at the end of one storm per family.
func TestGoldenStormMetrics(t *testing.T) {
	golden := loadGoldens(t).StormMetrics
	if len(golden) == 0 {
		t.Fatal("no storm metrics pinned")
	}
	for _, proto := range goldenProtos(golden) {
		proto, want := proto, golden[proto]
		t.Run(proto, func(t *testing.T) {
			rep, _ := goldenStorm(t, proto)
			got := rep.Metrics
			if !maps.Equal(got, want) {
				t.Errorf("%s storm metrics drifted:\n got %v\nwant %v", proto, got, want)
			}
		})
	}
}

// TestGoldenFlightRecorder pins the flight-recorder dump of one
// bus-attached storm per family: spans, engine epochs, journal, health and
// every sampled metrics delta.
func TestGoldenFlightRecorder(t *testing.T) {
	golden := loadGoldens(t).Recorders
	if len(golden) == 0 {
		t.Fatal("no recorder fingerprints pinned")
	}
	for _, proto := range goldenProtos(golden) {
		proto, want := proto, golden[proto]
		t.Run(proto, func(t *testing.T) {
			if got := goldenRecorder(t, proto); got != want {
				t.Errorf("%s flight-recorder fingerprint = %s, want %s", proto, got, want)
			}
		})
	}
}
