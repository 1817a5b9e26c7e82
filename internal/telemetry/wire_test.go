package telemetry

import (
	"encoding/json"
	"slices"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/inspect"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/trace"
	"manetkit/internal/vclock"
)

func newTestManager(t *testing.T) *core.Manager {
	t.Helper()
	m, err := core.NewManager(core.Config{
		Node:  mnet.MustParseAddr("10.0.0.1"),
		Clock: vclock.NewVirtual(testEpoch),
		Model: core.SingleThreaded,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestAttachTracerStreamsSpans(t *testing.T) {
	b := New(Config{Epoch: testEpoch})
	tr := trace.New(testEpoch, 16)
	AttachTracer(b, tr)
	sub := b.Subscribe(8, StreamSpans)

	tr.Record(testEpoch.Add(time.Second), trace.Span{
		Node: "10.0.0.1", Kind: trace.KindEmit, Event: "HELLO_IN",
	})
	b.Close()
	got := drain(sub)
	if len(got) != 1 {
		t.Fatalf("got %d span events, want 1", len(got))
	}
	ev := got[0]
	if ev.Stream != StreamSpans || ev.Kind != trace.KindEmit || ev.Node != "10.0.0.1" {
		t.Fatalf("envelope %+v", ev)
	}
	if ev.T != time.Second {
		t.Fatalf("event T %s, want the span's own offset 1s", ev.T)
	}
	var s trace.Span
	if err := json.Unmarshal(ev.Data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Event != "HELLO_IN" || s.T != time.Second || s.Seq != 0 {
		t.Fatalf("payload span %+v: must carry the tracer-stamped Seq/T", s)
	}
}

// TestTraceDroppedTotalCountsEvictions is the ring-overflow accounting:
// a registry reading the tracer reports every span the ring evicted as
// trace_dropped_total. Tracer.Reset restarts Dropped, but the counter
// neither falls nor counts an eviction twice, and a Sampler's delta never
// underflows.
func TestTraceDroppedTotalCountsEvictions(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	reg := metrics.NewRegistry()
	b := New(Config{Epoch: testEpoch})
	sub := b.Subscribe(8, StreamMetrics)
	s := NewSampler(b, reg, clk, time.Second)
	tr := trace.New(testEpoch, 4)
	reg.Attach(tr.ReadMetrics)
	s.Start()
	defer s.Stop()
	record := func(n int) {
		for i := 0; i < n; i++ {
			tr.Record(testEpoch, trace.Span{Kind: trace.KindEmit})
		}
	}

	record(10)
	if tr.Dropped() != 6 {
		t.Fatalf("tracer dropped %d, want 6 (10 records, capacity 4)", tr.Dropped())
	}
	if got := reg.Snapshot().Counters["trace_dropped_total"]; got != 6 {
		t.Fatalf("trace_dropped_total = %d, want 6", got)
	}
	clk.Advance(time.Second)
	record(2) // two more evictions, then a Reset before anyone reads
	tr.Reset()
	record(5) // one eviction after the Reset
	if tr.Dropped() != 1 {
		t.Fatalf("tracer dropped %d since Reset, want 1", tr.Dropped())
	}
	if got := reg.Snapshot().Counters["trace_dropped_total"]; got != 9 {
		t.Fatalf("trace_dropped_total = %d after Reset, want 9 (6+2+1)", got)
	}
	clk.Advance(time.Second)
	s.Stop()
	b.Close()

	var deltas []uint64
	for _, ev := range drain(sub) {
		var d MetricsDelta
		if err := json.Unmarshal(ev.Data, &d); err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d.Counters["trace_dropped_total"])
	}
	if !slices.Equal(deltas, []uint64{6, 3}) {
		t.Fatalf("sampled trace_dropped_total deltas %v, want [6 3]", deltas)
	}
}

func TestAttachJournalStreamsEntries(t *testing.T) {
	b := New(Config{Epoch: testEpoch})
	j := inspect.NewJournal(testEpoch)
	AttachJournal(b, j)
	sub := b.Subscribe(8, StreamJournal)

	m := newTestManager(t)
	j.Watch(m)
	p := core.NewProtocol("aodv")
	if err := m.Deploy(p); err != nil { // rewires -> journalled as deploy:aodv
		t.Fatal(err)
	}
	b.Close()

	got := drain(sub)
	if len(got) != j.Len() || len(got) == 0 {
		t.Fatalf("got %d journal events, journal has %d entries", len(got), j.Len())
	}
	want := j.Entries()[0]
	ev := got[0]
	if ev.Kind != want.Reason || ev.Node != want.Node || ev.T != want.T {
		t.Fatalf("event %+v vs entry %+v", ev, want)
	}
}

// TestAttachHealthStreamsTransitions drives a monitor through a
// degrade/recover cycle and checks the bus sees both level transitions
// with flap counts, and that the report's states carry since/flap data.
func TestAttachHealthStreamsTransitions(t *testing.T) {
	b := New(Config{Epoch: testEpoch})
	reg := metrics.NewRegistry()
	mon := inspect.NewMonitor(testEpoch, reg)
	AttachHealth(b, mon)
	sub := b.Subscribe(8, StreamHealth)

	depth := int64(600) // past the watermark
	reg.AttachGauge("core_dedicated_depth:aodv", func() int64 { return depth })
	r1 := mon.Check(testEpoch.Add(time.Second))
	depth = 3
	r2 := mon.Check(testEpoch.Add(4 * time.Second))
	b.Close()

	got := drain(sub)
	if len(got) != 2 {
		t.Fatalf("got %d health events, want 2 (ok->warn, warn->ok)", len(got))
	}
	if got[0].Kind != string(inspect.LevelWarn) || got[1].Kind != string(inspect.LevelOK) {
		t.Fatalf("transition kinds %q, %q", got[0].Kind, got[1].Kind)
	}
	if got[0].Node != "aodv" {
		t.Fatalf("transition key %q, want aodv", got[0].Node)
	}
	var tr2 inspect.Transition
	if err := json.Unmarshal(got[1].Data, &tr2); err != nil {
		t.Fatal(err)
	}
	if tr2.From != inspect.LevelWarn || tr2.To != inspect.LevelOK || tr2.Flaps != 2 {
		t.Fatalf("recovery transition %+v, want warn->ok flaps 2", tr2)
	}
	if tr2.T != 4*time.Second {
		t.Fatalf("transition T %s, want the check's virtual offset 4s", tr2.T)
	}

	// The reports expose the same state machine.
	if len(r1.States) != 1 || r1.States[0].Level != inspect.LevelWarn ||
		r1.States[0].Since != time.Second || r1.States[0].Flaps != 1 {
		t.Fatalf("r1 states %+v", r1.States)
	}
	if r2.States[0].Level != inspect.LevelOK || r2.States[0].Since != 4*time.Second ||
		r2.States[0].Flaps != 2 {
		t.Fatalf("r2 states %+v", r2.States)
	}
}

func TestSamplerDeltas(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	reg := metrics.NewRegistry()
	b := New(Config{Epoch: testEpoch})
	sub := b.Subscribe(8, StreamMetrics)
	s := NewSampler(b, reg, clk, time.Second)
	frames, depth := uint64(0), int64(0)
	reg.Attach(func(emit func(string, uint64)) { emit("frames", frames) })
	reg.AttachGauge("depth", func() int64 { return depth })

	frames, depth = 5, 7 // pre-Start activity is baseline, not delta
	s.Start()
	defer s.Stop()

	frames, depth = 8, 9
	clk.Advance(time.Second) // first sample: the changes since Start
	clk.Advance(time.Second) // second sample: nothing changed, no event
	frames += 2
	clk.Advance(time.Second) // third sample: counter delta only
	s.Stop()
	b.Close()

	got := drain(sub)
	if len(got) != 2 {
		t.Fatalf("got %d metrics events, want 2 (quiet windows publish nothing)", len(got))
	}
	var d1, d2 MetricsDelta
	if err := json.Unmarshal(got[0].Data, &d1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got[1].Data, &d2); err != nil {
		t.Fatal(err)
	}
	if d1.Counters["frames"] != 3 || d1.Gauges["depth"] != 9 {
		t.Fatalf("first delta %+v, want frames+3 depth=9 (not the pre-Start totals)", d1)
	}
	if got[0].T != time.Second {
		t.Fatalf("first sample at %s, want the virtual 1s mark", got[0].T)
	}
	if d2.Counters["frames"] != 2 || len(d2.Gauges) != 0 {
		t.Fatalf("third-window delta %+v, want frames+2 only", d2)
	}
}

// TestSamplerInactiveAdvancesBaseline: while the bus is inactive the
// sampler still moves its baseline, so a subscriber attaching later sees
// deltas from attachment rather than a catch-all burst.
func TestSamplerInactiveAdvancesBaseline(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	reg := metrics.NewRegistry()
	b := New(Config{Epoch: testEpoch, RecorderCapacity: -1}) // inactive until subscribed
	s := NewSampler(b, reg, clk, time.Second)
	frames := uint64(0)
	reg.Attach(func(emit func(string, uint64)) { emit("frames", frames) })
	s.Start()
	defer s.Stop()

	frames = 5
	s.SampleNow() // inactive: publishes nothing, advances baseline
	sub := b.Subscribe(8, StreamMetrics)
	frames += 2
	s.SampleNow()
	b.Close()

	got := drain(sub)
	if len(got) != 1 {
		t.Fatalf("got %d metrics events, want 1", len(got))
	}
	var d MetricsDelta
	if err := json.Unmarshal(got[0].Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Counters["frames"] != 2 {
		t.Fatalf("delta %+v, want frames+2 (the 5 pre-subscription increments skipped)", d)
	}
}
