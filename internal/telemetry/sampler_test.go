package telemetry

import (
	"encoding/json"
	"slices"
	"testing"
	"time"

	"manetkit/internal/metrics"
	"manetkit/internal/vclock"
)

// TestTraceDroppedTotalCountsEvictions is the ring-overflow accounting:
// a registry reading the bus reports every event the recorder evicted —
// spans and the sampler's own deltas alike — as trace_dropped_total, and
// a Sampler publishes its deltas.
func TestTraceDroppedTotalCountsEvictions(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch)
	reg := metrics.NewRegistry()
	b := New(Config{Epoch: testEpoch, RecorderCapacity: 4})
	sub := b.Subscribe(8, StreamMetrics)
	s := NewSampler(b, reg, clk, time.Second)
	reg.Attach(b.ReadMetrics)
	s.Start()
	defer s.Stop()
	record := func(n int) {
		for i := 0; i < n; i++ {
			b.Record(testEpoch, Span{Kind: KindEmit})
		}
	}

	record(10)
	if b.SpansDropped() != 6 {
		t.Fatalf("bus dropped %d spans, want 6 (10 records, capacity 4)", b.SpansDropped())
	}
	if got := reg.Snapshot().Counters["trace_dropped_total"]; got != 6 {
		t.Fatalf("trace_dropped_total = %d, want 6", got)
	}
	clk.Advance(time.Second) // samples 6, and its delta evicts a 7th event
	record(3)
	if got := reg.Snapshot().Counters["trace_dropped_total"]; got != 10 {
		t.Fatalf("trace_dropped_total = %d, want 10 (6 + the delta + 3 spans)", got)
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
	if !slices.Equal(deltas, []uint64{6, 4}) {
		t.Fatalf("sampled trace_dropped_total deltas %v, want [6 4]", deltas)
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
