package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
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

// Span is one structured trace record, the payload of a StreamSpans
// event. Field order is the JSONL field order; everything is either an
// integer or a string so encoding is platform-independent.
type Span struct {
	// Seq is the bus-assigned span sequence number: spans are numbered
	// apart from the bus's own event sequence.
	Seq uint64 `json:"seq"`
	// T is the virtual-clock offset from the bus epoch, in nanoseconds.
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

// Record stamps s with the next span sequence number and its offset from
// the bus epoch, then publishes it on StreamSpans. A span's bytes never
// depend on which other streams share the bus. Call sites test Active
// before reading the clock or building the span, so a dormant bus costs
// them one atomic load.
func (b *Bus) Record(now time.Time, s Span) {
	if !b.Active() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	s.Seq = b.spanSeq
	b.spanSeq++
	s.T = now.Sub(b.epoch)
	data, _ := json.Marshal(s) // integers and strings only: cannot fail
	sp := new(Span)            // allocated here, not at entry: a dormant call allocates nothing
	*sp = s
	b.publishLocked(Event{T: s.T, Stream: StreamSpans, Kind: s.Kind, Node: s.Node, Data: data, span: sp})
}

// spanEvents copies out the recorded span events, oldest first, and how
// many recorded spans the ring no longer holds.
func (b *Bus) spanEvents() (events []Event, dropped uint64) {
	if b == nil {
		return nil, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < b.count; i++ {
		if ev := b.ring[(b.head+i)%len(b.ring)]; ev.span != nil {
			events = append(events, ev)
		}
	}
	return events, b.spanSeq - uint64(len(events))
}

// Spans is the recorder's typed span view, oldest first — what
// inspect.Correlate stitches into packet paths.
func (b *Bus) Spans() []Span {
	events, _ := b.spanEvents()
	out := make([]Span, len(events))
	for i, ev := range events {
		out[i] = *ev.span
	}
	return out
}

// SpansDropped returns how many recorded spans the ring has evicted.
func (b *Bus) SpansDropped() uint64 {
	_, dropped := b.spanEvents()
	return dropped
}

// WriteSpans streams the recorded spans as one JSON object per line,
// oldest first. The encoding is deterministic: struct field order,
// integer timestamps, no floats.
func (b *Bus) WriteSpans(w io.Writer) error {
	events, _ := b.spanEvents()
	return writeData(w, events)
}

// SpanFingerprint digests the recorded spans and the span eviction count
// into a short stable hex string — the committed golden value of the
// trace determinism tests.
func (b *Bus) SpanFingerprint() string {
	events, dropped := b.spanEvents()
	h := fnv.New64a()
	fmt.Fprintf(h, "dropped=%d\n", dropped)
	_ = writeData(h, events)
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeData writes each event's payload followed by a newline.
func writeData(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		if _, err := bw.Write(ev.Data); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
