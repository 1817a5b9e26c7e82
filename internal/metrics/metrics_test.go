package metrics

import (
	"bytes"
	"expvar"
	"strings"
	"testing"
	"time"
)

// counter is a producer's own count, read through Attach.
type counter struct {
	name string
	v    uint64
}

func (c *counter) read(emit func(string, uint64)) { emit(c.name, c.v) }

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	a, b := &counter{name: "frames_tx", v: 2}, &counter{name: "frames_tx", v: 10}
	r.Attach(a.read)
	r.Attach(b.read)
	if got := r.Snapshot().Counters["frames_tx"]; got != 0 {
		t.Fatalf("counter at attach = %d, want 0 (counts before attach are baseline)", got)
	}
	a.v += 1
	b.v += 4
	if got := r.Snapshot().Counters["frames_tx"]; got != 5 {
		t.Fatalf("counter = %d, want 5 (readers sum by name)", got)
	}

	depth := int64(7)
	r.AttachGauge("queue_depth", func() int64 { return depth })
	r.AttachGauge("queue_depth", func() int64 { return -2 })
	if got := r.Snapshot().Gauges["queue_depth"]; got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	h := r.Histogram("lat", time.Millisecond, 10*time.Millisecond)
	if r.Histogram("lat") != h {
		t.Fatalf("histogram not interned by name")
	}
	h.Observe(500 * time.Microsecond) // bucket ≤1ms
	h.Observe(2 * time.Millisecond)   // bucket ≤10ms
	h.Observe(time.Minute)            // overflow bucket
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("histogram count = %d, want 3", snap.Count)
	}
	if len(snap.Buckets) != 3 {
		t.Fatalf("bucket count = %d, want 3", len(snap.Buckets))
	}
	wantCounts := []uint64{1, 1, 1}
	for i, b := range snap.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if snap.Buckets[2].UpperBound != 0 {
		t.Fatalf("overflow bucket bound = %v, want 0 (+inf)", snap.Buckets[2].UpperBound)
	}
	if got, want := snap.Mean(), (500*time.Microsecond+2*time.Millisecond+time.Minute)/3; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

// TestCounterNeverFallsNorDoubleCounts: detaching keeps what a reader
// counted; a producer attached again (restarted, or its counts carried
// into a new instance) counts only what it does afterwards; a producer
// whose count restarts from zero does not take the counter down.
func TestCounterNeverFallsNorDoubleCounts(t *testing.T) {
	r := NewRegistry()
	c := &counter{name: "x"}
	detach := r.Attach(c.read)
	c.v = 4
	if got := r.Snapshot().Counters["x"]; got != 4 {
		t.Fatalf("x = %d, want 4", got)
	}
	c.v = 6 // counted by the final read at detach
	detach()
	detach()
	c.v = 9 // not attached: not counted
	if got := r.Snapshot().Counters["x"]; got != 6 {
		t.Fatalf("x after detach = %d, want 6", got)
	}
	r.Attach(c.read) // the same counts again: baseline 9
	c.v = 10
	if got := r.Snapshot().Counters["x"]; got != 7 {
		t.Fatalf("x after re-attach = %d, want 7", got)
	}
	c.v = 2 // the producer reset
	if got := r.Snapshot().Counters["x"]; got != 9 {
		t.Fatalf("x after reset = %d, want 9 (continues from the reset value)", got)
	}
	d := r.AttachGauge("g", func() int64 { return 3 })
	d()
	if got, ok := r.Snapshot().Gauges["g"]; !ok || got != 0 {
		t.Fatalf("detached gauge = %d (present %v), want 0", got, ok)
	}
}

func TestNilRegistryHandsOutNilInstruments(t *testing.T) {
	var r *Registry
	if h := r.Histogram("x"); h != nil {
		t.Fatalf("nil registry returned non-nil histogram")
	}
	// All nil-registry operations must be safe no-ops.
	r.Histogram("x").Observe(time.Second)
	if r.Histogram("x").Snapshot().Count != 0 {
		t.Fatalf("nil histogram reported non-zero count")
	}
	read := 0
	r.Attach(func(func(string, uint64)) { read++ })()
	r.AttachGauge("x", func() int64 { read++; return 1 })()
	if read != 0 {
		t.Fatalf("nil registry called its readers %d times", read)
	}
	r.PublishExpvar("manetkit-test-nil")
	if expvar.Get("manetkit-test-nil") != nil {
		t.Fatalf("nil registry published an expvar")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// The disabled path must not allocate: this is the contract the core
// dispatch overhead guard builds on.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var r *Registry
	h := r.Histogram("x")
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(time.Millisecond)
	}); n != 0 {
		t.Fatalf("disabled histogram allocated %.1f per run, want 0", n)
	}
}

// Enabled histograms must not allocate on the hot path either — only
// atomics.
func TestEnabledPathAllocatesNothing(t *testing.T) {
	h := NewRegistry().Histogram("x")
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(time.Millisecond)
	}); n != 0 {
		t.Fatalf("enabled histogram allocated %.1f per run, want 0", n)
	}
}

func TestSnapshotWriteTextIsSorted(t *testing.T) {
	r := NewRegistry()
	zeta, alpha := &counter{name: "zeta"}, &counter{name: "alpha"}
	r.Attach(zeta.read)
	r.Attach(alpha.read)
	zeta.v, alpha.v = 1, 2
	r.AttachGauge("mid", func() int64 { return 9 })
	r.Histogram("lat").Observe(time.Millisecond)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "alpha 2\n") || !strings.Contains(out, "zeta 1\n") {
		t.Fatalf("missing counters in output:\n%s", out)
	}
	if strings.Index(out, "alpha") > strings.Index(out, "zeta") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
	// Two snapshots of the same registry must render identically.
	var buf2 bytes.Buffer
	if err := r.Snapshot().WriteText(&buf2); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("snapshot rendering not deterministic")
	}
}

// TestPublishExpvarFollowsTheLatestRegistry: publishing a second registry
// under a name already published must point the name at the new registry
// (mkemu -http runs one emulation per process, but a process that builds
// a second deployment must not keep serving the first one's numbers).
func TestPublishExpvarFollowsTheLatestRegistry(t *testing.T) {
	const name = "manetkit-test-republish"
	first, second := NewRegistry(), NewRegistry()
	first.Histogram("first").Observe(time.Millisecond)
	second.Histogram("second").Observe(time.Millisecond)
	first.PublishExpvar(name)
	if got := expvar.Get(name).String(); !strings.Contains(got, `"first"`) {
		t.Fatalf("expvar %s = %s, want the first registry", name, got)
	}
	second.PublishExpvar(name)
	got := expvar.Get(name).String()
	if !strings.Contains(got, `"second"`) || strings.Contains(got, `"first"`) {
		t.Fatalf("expvar %s = %s, want the second registry", name, got)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("default")
	h.Observe(50 * time.Microsecond)
	snap := h.Snapshot()
	if len(snap.Buckets) != len(DefaultLatencyBuckets)+1 {
		t.Fatalf("bucket count = %d, want %d", len(snap.Buckets), len(DefaultLatencyBuckets)+1)
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var r *Registry
	h := r.Histogram("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := NewRegistry().Histogram("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
