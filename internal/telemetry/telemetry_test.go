package telemetry

import (
	"bytes"
	"encoding/json"
	"go/build"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

var testEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type payload struct {
	N int `json:"n"`
}

// publishN publishes n events on stream with increasing timestamps.
func publishN(b *Bus, stream string, n int) {
	for i := 0; i < n; i++ {
		b.PublishAt(time.Duration(i)*time.Millisecond, stream, "k", "", payload{N: i})
	}
}

// drain empties a closed subscription's channel.
func drain(s *Subscription) []Event {
	var out []Event
	for ev := range s.C() {
		out = append(out, ev)
	}
	return out
}

func TestPublishSubscribeFiltering(t *testing.T) {
	b := New(Config{Epoch: testEpoch})
	all := b.Subscribe(64)
	spans := b.Subscribe(64, StreamSpans)

	b.PublishAt(time.Second, StreamSpans, "emit", "10.0.0.1", payload{N: 1})
	b.PublishAt(2*time.Second, StreamEngine, "epoch", "", payload{N: 2})
	b.Publish(testEpoch.Add(3*time.Second), StreamHealth, "warn", "n1", payload{N: 3})
	b.Close()

	got := drain(all)
	if len(got) != 3 {
		t.Fatalf("all-streams subscriber got %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i) {
			t.Errorf("event %d: seq %d, want %d (publish order)", i, ev.Seq, i)
		}
	}
	if got[0].Stream != StreamSpans || got[0].Kind != "emit" || got[0].Node != "10.0.0.1" {
		t.Errorf("event 0 envelope wrong: %+v", got[0])
	}
	if got[2].T != 3*time.Second {
		t.Errorf("Publish stamped T %s, want 3s (epoch-relative)", got[2].T)
	}
	var p payload
	if err := json.Unmarshal(got[1].Data, &p); err != nil || p.N != 2 {
		t.Errorf("payload roundtrip: %v / %+v", err, p)
	}

	only := drain(spans)
	if len(only) != 1 || only[0].Stream != StreamSpans {
		t.Fatalf("spans-only subscriber got %+v, want the one span event", only)
	}
	st := spans.Stats()
	if st.Published != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("spans stats %+v: filter must not count non-matching events", st)
	}
}

// TestDropAccountingExactness pins the backpressure contract: a full
// subscriber loses events, never stalls the publisher, and
// published == delivered + dropped exactly, with delivered equal to what
// the consumer actually reads. The publisher runs against a deadline, so a
// publish that blocks on the full subscriber fails here within seconds.
func TestDropAccountingExactness(t *testing.T) {
	b := New(Config{Epoch: testEpoch})
	sub := b.Subscribe(4, StreamEngine)
	const total = 100
	published := make(chan struct{})
	go func() {
		publishN(b, StreamEngine, total)
		close(published)
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("publishing to a full subscriber blocked: the publisher must drop, not wait")
	}
	b.Close()

	got := drain(sub)
	st := sub.Stats()
	if st.Published != total {
		t.Fatalf("published %d, want %d", st.Published, total)
	}
	if st.Delivered != uint64(len(got)) {
		t.Fatalf("delivered counter %d but consumer read %d events", st.Delivered, len(got))
	}
	if st.Published != st.Delivered+st.Dropped {
		t.Fatalf("accounting broken: published %d != delivered %d + dropped %d",
			st.Published, st.Delivered, st.Dropped)
	}
	if st.Dropped != total-4 {
		t.Fatalf("dropped %d, want %d (buffer 4, nothing consumed)", st.Dropped, total-4)
	}
	// The events that survive are the oldest (drop-newest policy).
	for i, ev := range got {
		if ev.Seq != uint64(i) {
			t.Errorf("survivor %d has seq %d, want %d", i, ev.Seq, i)
		}
	}
}

func TestRecorderRingEviction(t *testing.T) {
	b := New(Config{Epoch: testEpoch, RecorderCapacity: 8})
	publishN(b, StreamEngine, 20)

	events := b.Events()
	if len(events) != 8 {
		t.Fatalf("recorder holds %d events, want 8", len(events))
	}
	if b.Evicted() != 12 {
		t.Fatalf("evicted %d, want 12", b.Evicted())
	}
	if events[0].Seq != 12 || events[7].Seq != 19 {
		t.Fatalf("ring window [%d..%d], want [12..19]", events[0].Seq, events[7].Seq)
	}
	sum := Summarize(events)
	if sum.Total != 8 || sum.Evicted != 12 || sum.ByStream[StreamEngine] != 8 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.FirstT != 12*time.Millisecond || sum.LastT != 19*time.Millisecond {
		t.Fatalf("summary window [%s..%s]", sum.FirstT, sum.LastT)
	}
}

// TestInactiveBusIsFreeAndDormant: with the recorder disabled and no
// subscribers, Active is false, publishes are discarded before encoding,
// and attaching/detaching a subscriber toggles the flag.
func TestInactiveBusIsFreeAndDormant(t *testing.T) {
	b := New(Config{Epoch: testEpoch, RecorderCapacity: -1})
	if b.Active() {
		t.Fatal("recorder-less bus with no subscribers must be inactive")
	}
	// Publishing a value json.Marshal would choke on proves no encoding
	// happens on the inactive path.
	b.PublishAt(0, StreamEngine, "k", "", func() {})
	if b.Seq() != 0 {
		t.Fatalf("inactive publish advanced seq to %d", b.Seq())
	}
	sub := b.Subscribe(4)
	if !b.Active() {
		t.Fatal("bus with a subscriber must be active")
	}
	publishN(b, StreamEngine, 2)
	sub.Close()
	if b.Active() {
		t.Fatal("bus must go dormant when its last subscriber detaches")
	}
	if st := sub.Stats(); st.Published != 2 || st.Delivered != 2 {
		t.Fatalf("stats %+v", st)
	}
	var nilBus *Bus
	if nilBus.Active() {
		t.Fatal("nil bus must report inactive")
	}
}

// TestSubscribeWithBacklog pins the no-gap-no-duplicate contract: history
// from the recorder, then live events, with contiguous sequence numbers.
func TestSubscribeWithBacklog(t *testing.T) {
	b := New(Config{Epoch: testEpoch})
	publishN(b, StreamEngine, 10)
	sub := b.SubscribeWithBacklog(1, StreamEngine) // buffer grows to fit history
	publishN(b, StreamEngine, 10)
	b.Close()

	got := drain(sub)
	if len(got) != 20 {
		t.Fatalf("got %d events, want 20 (10 backlog + 10 live)", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: gap or duplicate at the backlog/live seam", i, ev.Seq)
		}
	}
	if st := sub.Stats(); st.Published != 20 || st.Delivered != 20 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCloseSemantics(t *testing.T) {
	b := New(Config{Epoch: testEpoch})
	sub := b.Subscribe(4)
	publishN(b, StreamEngine, 2)
	b.Close()
	b.Close() // idempotent

	if got := drain(sub); len(got) != 2 {
		t.Fatalf("subscriber drained %d events after close, want the 2 buffered", len(got))
	}
	seq := b.Seq()
	publishN(b, StreamEngine, 5)
	if b.Seq() != seq {
		t.Fatal("publish after Close must be discarded")
	}
	if len(b.Events()) != 2 {
		t.Fatalf("flight recorder must stay readable after Close, got %d events", len(b.Events()))
	}
	late := b.Subscribe(4)
	if _, ok := <-late.C(); ok {
		t.Fatal("Subscribe on a closed bus must return a closed subscription")
	}
	sub.Close() // closing again after bus close must not panic
}

func TestDumpRoundtripAndFingerprint(t *testing.T) {
	b := New(Config{Epoch: testEpoch})
	b.PublishAt(time.Millisecond, StreamSpans, "emit", "10.0.0.1", payload{N: 1})
	b.PublishAt(time.Second, StreamEngine, "epoch", "", map[string]int{"events": 7})
	b.PublishAt(2*time.Second, StreamHealth, "warn", "n1/aodv", nil)

	var buf bytes.Buffer
	if err := WriteEvents(&buf, b.Events()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, b.Events()) {
		t.Fatalf("roundtrip diverged:\n dump %+v\n read %+v", b.Events(), back)
	}
	if got, want := FingerprintEvents(back), b.Fingerprint(); got != want {
		t.Fatalf("fingerprint of re-read dump %s != bus fingerprint %s", got, want)
	}

	// A different event order must fingerprint differently.
	rev := append([]Event(nil), back...)
	rev[0], rev[1] = rev[1], rev[0]
	if FingerprintEvents(rev) == b.Fingerprint() {
		t.Fatal("fingerprint insensitive to event order")
	}
}

// TestConcurrentPublishSubscribeClose exercises the lock discipline under
// the race detector: publishers, span recorders, a span reader, churning
// subscribers and a bus close must never panic (send on closed channel),
// accounting must stay exact and spans stay numbered in record order.
func TestConcurrentPublishSubscribeClose(t *testing.T) {
	b := New(Config{Epoch: testEpoch, RecorderCapacity: 128})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if p%2 == 0 {
					b.PublishAt(time.Duration(i), StreamEngine, "k", "", payload{N: p})
				} else {
					b.Record(testEpoch.Add(time.Duration(i)), Span{Kind: KindEmit})
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = b.Spans()
			_ = b.SpanFingerprint()
		}
	}()
	var subs []*Subscription
	var smu sync.Mutex
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := b.Subscribe(8, StreamEngine)
				for j := 0; j < 4; j++ {
					select {
					case <-s.C():
					default:
					}
				}
				if i%2 == 0 {
					s.Close()
				}
				smu.Lock()
				subs = append(subs, s)
				smu.Unlock()
			}
		}()
	}
	wg.Wait()
	b.Close()
	b.Record(testEpoch, Span{Kind: KindEmit}) // after Close: discarded
	for _, s := range subs {
		for range s.C() {
		}
		if st := s.Stats(); st.Published != st.Delivered+st.Dropped {
			t.Fatalf("accounting broken under concurrency: %+v", st)
		}
	}
	spans := b.Spans()
	if got := uint64(len(spans)) + b.SpansDropped(); got != 1000 {
		t.Fatalf("%d spans held + %d dropped, want the 1000 recorded", len(spans), b.SpansDropped())
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq != spans[i-1].Seq+1 {
			t.Fatalf("span seq %d follows %d: not numbered in record order", spans[i].Seq, spans[i-1].Seq)
		}
	}
}

// TestImportsNoProducer pins the one-way dependency arrow: producers
// (core, emunet, inspect, ...) import the bus and publish to it, so the
// bus may import nothing of the module beyond metrics and vclock.
func TestImportsNoProducer(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"manetkit/internal/metrics": true, "manetkit/internal/vclock": true}
	for _, path := range pkg.Imports {
		if strings.HasPrefix(path, "manetkit/") && !allowed[path] {
			t.Errorf("telemetry imports %s; producers must import the bus, not the other way round", path)
		}
	}
}
