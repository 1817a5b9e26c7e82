package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRecordAndSpans(t *testing.T) {
	b := New(Config{Epoch: testEpoch, RecorderCapacity: 8})
	b.Record(testEpoch.Add(time.Millisecond), Span{Kind: KindEmit, Node: "10.0.0.1", Event: "HELLO_OUT"})
	b.Record(testEpoch.Add(2*time.Millisecond), Span{Kind: KindDispatch, Node: "10.0.0.1", To: "mpr", QDepth: 1})
	spans := b.Spans()
	if len(spans) != 2 {
		t.Fatalf("len(spans) = %d, want 2", len(spans))
	}
	if spans[0].Seq != 0 || spans[1].Seq != 1 {
		t.Fatalf("sequence numbers not assigned in order: %d, %d", spans[0].Seq, spans[1].Seq)
	}
	if spans[0].T != time.Millisecond {
		t.Fatalf("span T = %v, want 1ms", spans[0].T)
	}
	if spans[1] != (Span{Seq: 1, T: 2 * time.Millisecond, Kind: KindDispatch, Node: "10.0.0.1", To: "mpr", QDepth: 1}) {
		t.Fatalf("span view decoded %+v", spans[1])
	}
	if b.SpansDropped() != 0 {
		t.Fatalf("dropped = %d, want 0", b.SpansDropped())
	}
}

// TestRecordSpansEvictOldest: spans share the recorder ring with the
// other streams; the span view keeps the newest spans and counts the
// evicted ones.
func TestRecordSpansEvictOldest(t *testing.T) {
	b := New(Config{Epoch: testEpoch, RecorderCapacity: 3})
	for i := 0; i < 5; i++ {
		b.Record(testEpoch.Add(time.Duration(i)*time.Second), Span{Kind: KindEmit, Event: "E"})
	}
	spans := b.Spans()
	if len(spans) != 3 {
		t.Fatalf("len = %d, want 3", len(spans))
	}
	if spans[0].Seq != 2 || spans[2].Seq != 4 {
		t.Fatalf("ring kept wrong window: first seq %d, last seq %d", spans[0].Seq, spans[2].Seq)
	}
	if b.SpansDropped() != 2 {
		t.Fatalf("dropped = %d, want 2", b.SpansDropped())
	}
	b.PublishAt(5*time.Second, StreamEngine, "epoch", "", payload{N: 5}) // evicts span 2
	if got := b.Spans(); len(got) != 2 || got[0].Seq != 3 || b.SpansDropped() != 3 {
		t.Fatalf("after an engine event: spans %+v, dropped %d; want seqs 3..4, 3 dropped", got, b.SpansDropped())
	}
}

// TestRecordStreamsSpans: a recorded span reaches subscribers on
// StreamSpans, timestamped with its own offset, and keeps its own
// numbering whatever else the bus carried before it.
func TestRecordStreamsSpans(t *testing.T) {
	b := New(Config{Epoch: testEpoch})
	sub := b.Subscribe(8, StreamSpans)
	b.PublishAt(0, StreamEngine, "epoch", "", payload{N: 0})
	b.Record(testEpoch.Add(time.Second), Span{Node: "10.0.0.1", Kind: KindEmit, Event: "HELLO_IN"})
	b.Close()
	got := drain(sub)
	if len(got) != 1 {
		t.Fatalf("got %d span events, want 1", len(got))
	}
	ev := got[0]
	if ev.Stream != StreamSpans || ev.Kind != KindEmit || ev.Node != "10.0.0.1" || ev.Seq != 1 {
		t.Fatalf("envelope %+v, want the second bus event", ev)
	}
	if ev.T != time.Second {
		t.Fatalf("event T %s, want the span's own offset 1s", ev.T)
	}
	var s Span
	if err := json.Unmarshal(ev.Data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Event != "HELLO_IN" || s.T != time.Second || s.Seq != 0 {
		t.Fatalf("payload span %+v: must carry the span's own Seq 0 and T", s)
	}
}

func TestWriteSpansDeterministic(t *testing.T) {
	build := func() *Bus {
		b := New(Config{Epoch: testEpoch, RecorderCapacity: 16})
		b.Record(testEpoch.Add(1500*time.Microsecond), Span{Kind: KindFrameTx, Node: "10.0.0.1", To: "10.0.0.2", Bytes: 42})
		b.PublishAt(2*time.Millisecond, StreamEngine, "epoch", "", payload{N: 1}) // not a span
		b.Record(testEpoch.Add(3*time.Millisecond), Span{Kind: KindFrameRx, Node: "10.0.0.2", From: "10.0.0.1", Bytes: 42})
		return b
	}
	var a, c bytes.Buffer
	if err := build().WriteSpans(&a); err != nil {
		t.Fatalf("WriteSpans: %v", err)
	}
	if err := build().WriteSpans(&c); err != nil {
		t.Fatalf("WriteSpans: %v", err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatalf("identical buses encoded differently:\n%s\n---\n%s", a.String(), c.String())
	}
	want := `{"seq":0,"t_ns":1500000,"node":"10.0.0.1","kind":"frame-tx","to":"10.0.0.2","qdepth":0,"bytes":42}` + "\n" +
		`{"seq":1,"t_ns":3000000,"node":"10.0.0.2","kind":"frame-rx","from":"10.0.0.1","qdepth":0,"bytes":42}` + "\n"
	if a.String() != want {
		t.Fatalf("span JSONL:\n%s\nwant:\n%s", a.String(), want)
	}
	if build().SpanFingerprint() != build().SpanFingerprint() {
		t.Fatalf("fingerprint not stable")
	}
	if build().SpanFingerprint() == New(Config{Epoch: testEpoch}).SpanFingerprint() {
		t.Fatalf("fingerprint ignores content")
	}
}

// TestSpanRoundTripQDepthZero: a dispatch span with queue depth 0 must
// keep that depth through serialization. QDepth deliberately has no
// omitempty — depth 0 (an idle dedicated queue) is a legitimate
// measurement, distinct from "not a queued dispatch", and eliding it
// corrupted path correlation on quiet nodes.
func TestSpanRoundTripQDepthZero(t *testing.T) {
	in := Span{
		Kind: KindDispatch, Node: "10.0.0.1", Event: "HELLO_IN",
		To: "mpr", Corr: "HELLO:10.0.0.2:7", QDepth: 0,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !strings.Contains(string(data), `"qdepth":0`) {
		t.Fatalf("qdepth 0 elided from JSON: %s", data)
	}
	var out Span
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out != in {
		t.Fatalf("span did not round-trip:\n in=%+v\nout=%+v", in, out)
	}
	// A non-zero depth round-trips too.
	in.QDepth = 3
	data, _ = json.Marshal(in)
	var out2 Span
	if err := json.Unmarshal(data, &out2); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out2.QDepth != 3 {
		t.Fatalf("qdepth = %d after round trip, want 3", out2.QDepth)
	}
}

// nilAndDormantBuses are the two buses a producer may record to without
// paying for it: no bus at all, and a bus built with recording disabled.
func nilAndDormantBuses() []struct {
	name string
	b    *Bus
} {
	return []struct {
		name string
		b    *Bus
	}{
		{"nil", nil},
		{"dormant", New(Config{Epoch: testEpoch, RecorderCapacity: -1})},
	}
}

// TestRecordNilAndDormantAllocs: recording to a nil or a dormant bus
// allocates nothing — the same contract as a nil metrics registry.
func TestRecordNilAndDormantAllocs(t *testing.T) {
	s := Span{Kind: KindDispatch, Node: "n", Event: "E"}
	for _, tc := range nilAndDormantBuses() {
		name, b := tc.name, tc.b
		if n := testing.AllocsPerRun(1000, func() { b.Record(testEpoch, s) }); n != 0 {
			t.Errorf("%s bus: Record allocated %.1f per run, want 0", name, n)
		}
	}
}

// TestNilAndDormantBusIsNoOp: a nil or dormant bus keeps nothing that was
// recorded to it and writes no span output.
func TestNilAndDormantBusIsNoOp(t *testing.T) {
	for _, tc := range nilAndDormantBuses() {
		name, b := tc.name, tc.b
		b.Record(testEpoch, Span{Kind: KindEmit})
		if len(b.Spans()) != 0 || b.SpansDropped() != 0 || b.Seq() != 0 {
			t.Errorf("%s bus retained spans", name)
		}
		var buf bytes.Buffer
		if err := b.WriteSpans(&buf); err != nil || buf.Len() != 0 {
			t.Errorf("%s bus: WriteSpans wrote %q, %v", name, buf.String(), err)
		}
	}
}

func BenchmarkRecordDormant(b *testing.B) {
	bus := New(Config{Epoch: testEpoch, RecorderCapacity: -1})
	s := Span{Kind: KindDispatch}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Record(testEpoch, s)
	}
}

func BenchmarkRecordRecording(b *testing.B) {
	bus := New(Config{Epoch: testEpoch, RecorderCapacity: 1 << 12})
	s := Span{Kind: KindDispatch, Node: "10.0.0.1", Event: "HELLO_OUT"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Record(testEpoch.Add(time.Duration(i)), s)
	}
}
