package harness

// Streaming telemetry over full chaos runs: subscribers watch a storm —
// deploys, a sniffer deployed on every node, partitions, corruption — live
// on every stream while the invariant layer runs. The gates: exact
// per-subscriber drop accounting, no perturbation of the fingerprinted
// report, and a flight-recorder dump that is byte-identical across
// GOMAXPROCS 1 and all CPUs.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"manetkit/internal/telemetry"
	"manetkit/internal/testbed"
)

// chaosWithBus runs one storm with a bus and one subscriber per stream,
// returning the report, the recorder dump and the drained event counts.
func chaosWithBus(t *testing.T, spanBuffer int) (*ChaosReport, []byte, map[string]int) {
	t.Helper()
	bus := telemetry.New(telemetry.Config{Epoch: testbed.Epoch})
	subs := make(map[string]*telemetry.Subscription)
	for _, name := range telemetry.Streams() {
		buf := 1 << 16
		if name == telemetry.StreamSpans {
			buf = spanBuffer
		}
		subs[name] = bus.Subscribe(buf, name)
	}
	rep, err := RunChaos(ChaosConfig{
		Proto: "olsr", Scenario: ScenarioStorm, Seed: 7, Telemetry: bus,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	var dump bytes.Buffer
	if err := telemetry.WriteEvents(&dump, bus.Events()); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	bus.Close()

	drained := make(map[string]int)
	for name, sub := range subs {
		for range sub.C() {
			drained[name]++
		}
		st := sub.Stats()
		if st.Published != st.Delivered+st.Dropped {
			t.Errorf("%s accounting broken: %+v", name, st)
		}
		if st.Delivered != uint64(drained[name]) {
			t.Errorf("%s delivered counter %d but consumer read %d", name, st.Delivered, drained[name])
		}
	}
	return rep, dump.Bytes(), drained
}

func TestChaosTelemetryStreaming(t *testing.T) {
	rep, dump, drained := chaosWithBus(t, 1<<16)
	if !rep.OK() {
		t.Fatalf("invariants broke under telemetry:\n%s", rep.Summary())
	}
	// Every busy stream carried traffic: the storm deploys protocols and
	// reconfigures (journal), commits epochs (engine), samples counters
	// (metrics) and traces frames (spans).
	for _, name := range []string{
		telemetry.StreamEngine, telemetry.StreamJournal,
		telemetry.StreamMetrics, telemetry.StreamSpans,
	} {
		if drained[name] == 0 {
			t.Errorf("stream %s delivered no events during a storm", name)
		}
	}
	// The journal stream and the report's journal agree on the churn.
	if got, want := drained[telemetry.StreamJournal], len(rep.Journal); got != want {
		t.Errorf("journal stream carried %d entries, report has %d", got, want)
	}
	if len(dump) == 0 {
		t.Fatal("flight recorder empty after a storm")
	}

	// The bus is passive: the fingerprinted report of a bus-attached run
	// equals the run without one, but for the recorder's own eviction
	// counter, which only a bus reports.
	plain, err := RunChaos(ChaosConfig{Proto: "olsr", Scenario: ScenarioStorm, Seed: 7})
	if err != nil {
		t.Fatalf("RunChaos (plain): %v", err)
	}
	if dropped, ok := rep.Metrics["trace_dropped_total"]; !ok || dropped != 0 {
		t.Errorf("bus run reports trace_dropped_total %d (present %v), want 0", dropped, ok)
	}
	if _, ok := plain.Metrics["trace_dropped_total"]; ok {
		t.Error("run without a bus reports trace_dropped_total")
	}
	delete(rep.Metrics, "trace_dropped_total")
	if f1, f2 := rep.Fingerprint(), plain.Fingerprint(); f1 != f2 {
		t.Errorf("attaching telemetry perturbed the report: %s vs %s\nbus:\n%splain:\n%s",
			f1, f2, rep.Summary(), plain.Summary())
	}
}

// TestChaosTelemetryBackpressure: a starved spans subscriber drops (the
// accounting is checked inside chaosWithBus) while the run itself and the
// recorder stay intact.
func TestChaosTelemetryBackpressure(t *testing.T) {
	rep, dump, drained := chaosWithBus(t, 4)
	if !rep.OK() {
		t.Fatalf("invariants broke:\n%s", rep.Summary())
	}
	if drained[telemetry.StreamSpans] > 4 {
		t.Errorf("starved subscriber read %d spans with buffer 4 and no consumer", drained[telemetry.StreamSpans])
	}
	if len(dump) == 0 {
		t.Fatal("recorder must be unaffected by subscriber backpressure")
	}
}

// TestChaosFlightRecorderAcrossGOMAXPROCS is the acceptance gate on the
// recorded streams: the full storm dump — spans, engine epochs, journal,
// health, metric deltas — is byte-identical with the scheduler pinned to
// one CPU and with all of them.
func TestChaosFlightRecorderAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	_, serial, _ := chaosWithBus(t, 1<<16)
	runtime.GOMAXPROCS(prev)
	_, parallel, _ := chaosWithBus(t, 1<<16)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("flight-recorder dump diverged across GOMAXPROCS 1 vs %d (%d vs %d bytes)",
			runtime.GOMAXPROCS(0), len(serial), len(parallel))
	}
	events, err := telemetry.ReadEvents(bytes.NewReader(serial))
	if err != nil {
		t.Fatalf("dump unreadable: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty dump")
	}
}

// TestChaosRecorderSpansFromZero: a storm's recorder holds its spans from
// the very first — each node's System-CF rebind while the cluster is
// built — so, with nothing evicted, they are numbered 0, 1, 2, ... with no
// gap, in every family.
func TestChaosRecorderSpansFromZero(t *testing.T) {
	for _, proto := range ChaosProtos() {
		bus := telemetry.New(telemetry.Config{Epoch: testbed.Epoch})
		if _, err := RunChaos(ChaosConfig{Proto: proto, Scenario: ScenarioStorm, Seed: 7, Telemetry: bus}); err != nil {
			t.Fatalf("RunChaos %s: %v", proto, err)
		}
		bus.Close()
		if n := bus.Evicted(); n != 0 {
			t.Fatalf("%s: recorder evicted %d events", proto, n)
		}
		next := uint64(0)
		for _, ev := range bus.Events() {
			if ev.Stream != telemetry.StreamSpans {
				continue
			}
			var s telemetry.Span
			if err := json.Unmarshal(ev.Data, &s); err != nil {
				t.Fatal(err)
			}
			if s.Seq != next {
				t.Fatalf("%s: recorded span %d has seq %d: the recorder missed spans", proto, next, s.Seq)
			}
			next++
		}
		if next == 0 {
			t.Fatalf("%s: no spans recorded", proto)
		}
	}
}
