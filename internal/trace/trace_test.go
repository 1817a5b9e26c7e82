package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestRecordAndSpans(t *testing.T) {
	tr := New(epoch, 8)
	tr.Record(epoch.Add(time.Millisecond), Span{Kind: KindEmit, Node: "10.0.0.1", Event: "HELLO_OUT"})
	tr.Record(epoch.Add(2*time.Millisecond), Span{Kind: KindDispatch, Node: "10.0.0.1", To: "mpr", QDepth: 1})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("len(spans) = %d, want 2", len(spans))
	}
	if spans[0].Seq != 0 || spans[1].Seq != 1 {
		t.Fatalf("sequence numbers not assigned in order: %d, %d", spans[0].Seq, spans[1].Seq)
	}
	if spans[0].T != time.Millisecond {
		t.Fatalf("span T = %v, want 1ms", spans[0].T)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := New(epoch, 3)
	for i := 0; i < 5; i++ {
		tr.Record(epoch.Add(time.Duration(i)*time.Second), Span{Kind: KindEmit, Event: "E"})
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("len = %d, want 3", len(spans))
	}
	if spans[0].Seq != 2 || spans[2].Seq != 4 {
		t.Fatalf("ring kept wrong window: first seq %d, last seq %d", spans[0].Seq, spans[2].Seq)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New(epoch, 16)
		tr.Record(epoch.Add(1500*time.Microsecond), Span{Kind: KindFrameTx, Node: "10.0.0.1", To: "10.0.0.2", Bytes: 42})
		tr.Record(epoch.Add(3*time.Millisecond), Span{Kind: KindFrameRx, Node: "10.0.0.2", From: "10.0.0.1", Bytes: 42})
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identical tracers encoded differently:\n%s\n---\n%s", a.String(), b.String())
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("line count = %d, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"frame-tx"`) || !strings.Contains(lines[0], `"t_ns":1500000`) {
		t.Fatalf("unexpected first line: %s", lines[0])
	}
	if build().Fingerprint() != build().Fingerprint() {
		t.Fatalf("fingerprint not stable")
	}
	if build().Fingerprint() == New(epoch, 16).Fingerprint() {
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

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Record(epoch, Span{Kind: KindEmit})
	if tr.Len() != 0 || tr.Dropped() != 0 || len(tr.Spans()) != 0 {
		t.Fatalf("nil tracer retained state")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil tracer wrote output: %q", buf.String())
	}
	tr.Reset()
}

// The disabled path must not allocate — same contract as metrics.
func TestNilRecordAllocatesNothing(t *testing.T) {
	var tr *Tracer
	s := Span{Kind: KindDispatch, Node: "n", Event: "E"}
	if n := testing.AllocsPerRun(1000, func() {
		tr.Record(epoch, s)
	}); n != 0 {
		t.Fatalf("nil Record allocated %.1f per run, want 0", n)
	}
}

func TestReset(t *testing.T) {
	tr := New(epoch, 4)
	tr.Record(epoch, Span{Kind: KindEmit})
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("len after reset = %d", tr.Len())
	}
	tr.Record(epoch, Span{Kind: KindEmit})
	if got := tr.Spans()[0].Seq; got != 0 {
		t.Fatalf("seq after reset = %d, want 0", got)
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	var tr *Tracer
	s := Span{Kind: KindDispatch}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(epoch, s)
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	tr := New(epoch, 1<<12)
	s := Span{Kind: KindDispatch, Node: "10.0.0.1", Event: "HELLO_OUT"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(epoch.Add(time.Duration(i)), s)
	}
}
