// Package trace records structured spans from MANETKit's event machinery
// into a bounded ring buffer: one Tracer per cluster, shared by every
// node's Framework Manager, the protocol demuxes and the emulated medium.
//
// Spans are stamped with virtual-clock offsets from a fixed epoch, never
// wall time, so a run under vclock.Virtual yields a byte-identical trace
// for the same seed — the property the golden-trace tests pin down. A nil
// *Tracer is a no-op recorder, so the disabled path costs one nil check
// (see the overhead guard in internal/core).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"
)

// Span kinds recorded by the framework.
const (
	KindEmit      = "emit"       // an event entered the Framework Manager
	KindDispatch  = "dispatch"   // a delivery was queued/routed to a unit
	KindHandle    = "handle"     // a handler matched and ran
	KindDrop      = "drop"       // a delivery was dropped (no chain, queue full)
	KindRebind    = "rebind"     // the manager re-derived its event topology
	KindFrameTx   = "frame-tx"   // the medium accepted a frame for transmission
	KindFrameRx   = "frame-rx"   // a NIC delivered a frame to its receiver
	KindFrameDrop = "frame-drop" // the medium dropped a frame (loss, no link)
)

// Span is one structured trace record. Field order is the JSONL field
// order; everything is either an integer or a string so encoding is
// platform-independent.
type Span struct {
	// Seq is the tracer-assigned record sequence number.
	Seq uint64 `json:"seq"`
	// T is the virtual-clock offset from the tracer's epoch, in
	// nanoseconds.
	T time.Duration `json:"t_ns"`
	// Node is the local node address ("" for cluster-global records).
	Node string `json:"node,omitempty"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Event is the event type or frame class the span describes.
	Event string `json:"event,omitempty"`
	// From and To name the source and destination units (or addresses for
	// frame spans).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Handler names the handler component for KindHandle spans.
	Handler string `json:"handler,omitempty"`
	// Corr is the message correlation ID, derived from PacketBB message
	// identity (type:originator:seqnum, or data:<src>:<id> for data
	// packets). Every span a message touches — emit, dispatch, handle and
	// the frame spans on every hop, on every node — carries the same value,
	// which is what lets inspect.Correlate stitch cross-node causal paths.
	Corr string `json:"corr,omitempty"`
	// QDepth is the delivery-queue depth observed at dispatch time. No
	// omitempty: a queue depth of 0 is a legitimate observation and must
	// survive a JSONL round trip.
	QDepth int `json:"qdepth"`
	// Bytes is the payload size for frame spans.
	Bytes int `json:"bytes,omitempty"`
}

// Tracer is a bounded ring buffer of spans. Construct with New; a nil
// Tracer drops everything at the cost of one nil check.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	buf     []Span
	head    int // index of the oldest span
	count   int
	seq     uint64
	evicted uint64 // spans lost to ring overflow since New
	resetAt uint64 // evicted at the last Reset
	obs     func(Span)
}

// DefaultCapacity bounds a tracer when New is given a non-positive
// capacity.
const DefaultCapacity = 1 << 16

// New creates a tracer whose span timestamps are offsets from epoch,
// keeping at most capacity spans (DefaultCapacity when capacity <= 0).
func New(epoch time.Time, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{epoch: epoch, buf: make([]Span, capacity)}
}

// SetObserver installs fn to be called for every recorded span, after the
// tracer has stamped its sequence number and timestamp, in record order.
// fn runs under the tracer's lock and must not call back into the tracer;
// the telemetry bus uses it to stream spans live. nil detaches.
func (t *Tracer) SetObserver(fn func(Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.obs = fn
	t.mu.Unlock()
}

// Record appends one span, stamping its sequence number and converting now
// into an epoch offset. When the ring is full the oldest span is evicted
// and counted in Dropped. Nil tracers discard the span.
func (t *Tracer) Record(now time.Time, s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s.Seq = t.seq
	t.seq++
	s.T = now.Sub(t.epoch)
	if t.count == len(t.buf) {
		t.buf[t.head] = s
		t.head = (t.head + 1) % len(t.buf)
		t.evicted++
	} else {
		t.buf[(t.head+t.count)%len(t.buf)] = s
		t.count++
	}
	if t.obs != nil {
		t.obs(s)
	}
	t.mu.Unlock()
}

// Len returns the number of buffered spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Dropped returns how many spans were evicted by ring overflow since the
// last Reset.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted - t.resetAt
}

// ReadMetrics reports every span evicted by ring overflow, Resets
// included, as trace_dropped_total — a reader for metrics.Registry.Attach,
// which closes the silent gap where a full ring discarded history
// unnoticed.
func (t *Tracer) ReadMetrics(emit func(name string, v uint64)) {
	t.mu.Lock()
	evicted := t.evicted
	t.mu.Unlock()
	emit("trace_dropped_total", evicted)
}

// Spans copies out the buffered spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, t.count)
	for i := 0; i < t.count; i++ {
		out[i] = t.buf[(t.head+i)%len(t.buf)]
	}
	return out
}

// Reset discards all buffered spans and restarts the sequence counter.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.head, t.count, t.seq, t.resetAt = 0, 0, 0, t.evicted
	t.mu.Unlock()
}

// WriteJSONL streams the buffered spans as one JSON object per line,
// oldest first. The encoding is deterministic: struct field order, integer
// timestamps, no floats.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range t.Spans() {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Fingerprint digests the buffered spans (and the overflow count) into a
// short stable hex string — the committed golden value in the trace
// determinism tests.
func (t *Tracer) Fingerprint() string {
	h := fnv.New64a()
	if t != nil {
		fmt.Fprintf(h, "dropped=%d\n", t.Dropped())
	}
	_ = t.WriteJSONL(h)
	return fmt.Sprintf("%016x", h.Sum64())
}
