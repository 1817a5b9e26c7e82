// Package telemetry is MANETKit's observability bus and its one recorder,
// behind mkemu's -record dump and its live /stream endpoints. Five event
// streams — metrics deltas, trace spans, health state transitions,
// rewire-journal entries and engine epochs — flow through one Bus, which
// fans them out to subscribers and (optionally) into a bounded ring-buffer
// flight recorder for post-mortem replay. Producers (the Framework Manager,
// the medium, the journal and the health monitor) publish to the *Bus they
// are handed; the package itself imports no producer, only metrics and
// vclock.
//
// The contract with the hot path:
//
//   - Zero subscribers and no recorder cost one atomic load per potential
//     publish (Active is false, so no span is built and no payload is
//     ever encoded). A nil *Bus costs one nil check. The dispatch path's
//     allocation and time budgets hold with a dormant bus attached, pinned
//     by TestTelemetryOverheadGuard.
//   - Publishing never blocks. A subscriber whose channel is full loses
//     the event and its drop counter advances; the accounting is exact:
//     published == delivered + dropped, per subscriber, always.
//   - Recorded streams are deterministic: every event is stamped with a
//     virtual-clock offset and a bus sequence number assigned in publish
//     order, and every span with its own span sequence number. Under
//     vclock.Virtual all publishers run on the clock goroutine (timer
//     callbacks, epoch commits, rewire hooks), so the recorder's contents
//     — and hence Fingerprint — are byte-identical for the same seed at
//     any GOMAXPROCS. Nothing GOMAXPROCS-dependent (worker counts, wall
//     time) is allowed into an Event.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stream names. A subscriber names the streams it wants; an empty list
// subscribes to all of them.
const (
	StreamMetrics = "metrics" // metric counter/gauge deltas (Sampler)
	StreamSpans   = "spans"   // trace spans, live as they are recorded
	StreamHealth  = "health"  // health state transitions (inspect.Monitor)
	StreamJournal = "journal" // rewire-journal entries (inspect.Journal)
	StreamEngine  = "engine"  // one event per engine epoch: ordinal, events, commit lag, queue depth
)

// Streams lists the stream names in a stable order.
func Streams() []string {
	return []string{StreamEngine, StreamHealth, StreamJournal, StreamMetrics, StreamSpans}
}

// Event is one bus record. Field order is the NDJSON field order;
// timestamps are virtual-clock offsets, never wall time, so recorded
// streams replay byte-identically.
type Event struct {
	// Seq is the bus-assigned sequence number, in publish order.
	Seq uint64 `json:"seq"`
	// T is the virtual-clock offset from the bus epoch, in nanoseconds.
	T time.Duration `json:"t_ns"`
	// Stream is one of the Stream* constants.
	Stream string `json:"stream"`
	// Kind subdivides a stream (span kind, health level, journal reason).
	Kind string `json:"kind,omitempty"`
	// Node is the originating node address, when the event has one.
	Node string `json:"node,omitempty"`
	// Data is the stream-specific payload, pre-encoded at publish time.
	Data json.RawMessage `json:"data"`

	span *Span // the decoded Data of a span Record put on this bus
}

// DefaultRecorderCapacity bounds the flight recorder when Config leaves
// RecorderCapacity zero.
const DefaultRecorderCapacity = 1 << 16

// DefaultSubscriberBuffer is the channel depth Subscribe applies when
// given a non-positive buffer.
const DefaultSubscriberBuffer = 256

// Config tunes a Bus.
type Config struct {
	// Epoch anchors event timestamps; use the deployment's virtual-clock
	// epoch so bus offsets line up with journal and health offsets.
	Epoch time.Time
	// RecorderCapacity sizes the flight-recorder ring: 0 means
	// DefaultRecorderCapacity, negative disables recording entirely (the
	// bus is then pure fan-out and costs nothing without subscribers).
	RecorderCapacity int
}

// Bus is the streaming observability bus. Construct with New; a nil *Bus
// is a valid no-op (Active is false, Publish discards).
type Bus struct {
	epoch time.Time

	// active is true whenever publishing can have an effect: the recorder
	// is enabled or at least one subscriber is attached. Publishers read
	// it with one atomic load before doing any encoding work.
	active atomic.Bool

	mu      sync.Mutex
	seq     uint64
	spanSeq uint64  // spans recorded, numbered apart from seq
	ring    []Event // flight recorder; nil when disabled
	head    int     // index of the oldest recorded event
	count   int
	evicted uint64 // recorder ring overwrites
	subs    map[*Subscription]struct{}
	closed  bool
	// watchers run after every flip of active (Watch).
	watchers []*func()
}

// New creates a bus. See Config for the recorder policy.
func New(cfg Config) *Bus {
	b := &Bus{subs: make(map[*Subscription]struct{})}
	b.epoch = cfg.Epoch
	switch {
	case cfg.RecorderCapacity == 0:
		b.ring = make([]Event, DefaultRecorderCapacity)
	case cfg.RecorderCapacity > 0:
		b.ring = make([]Event, cfg.RecorderCapacity)
	}
	b.active.Store(b.ring != nil)
	return b
}

// Active reports whether a publish could currently have any effect. The
// instrumentation hooks call this before encoding a payload, so an idle
// bus costs one atomic load per event source.
func (b *Bus) Active() bool { return b != nil && b.active.Load() }

// Publish encodes payload and fans it out, stamping now as an offset from
// the bus epoch. It never blocks: full subscribers drop the event.
// TestDropAccountingExactness pins that at run time — a publisher facing
// a full subscriber must finish within its deadline, with published ==
// delivered + dropped.
func (b *Bus) Publish(now time.Time, stream, kind, node string, payload any) {
	if !b.Active() {
		return
	}
	b.PublishAt(now.Sub(b.epoch), stream, kind, node, payload)
}

// PublishAt is Publish for sources that already carry an epoch offset
// (journal entries, health transitions), avoiding a second clock read and
// guaranteeing the bus timestamp equals the source's.
func (b *Bus) PublishAt(t time.Duration, stream, kind, node string, payload any) {
	if !b.Active() {
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		// Payloads are the runtime's own structs; an encoding failure is a
		// programming error. Surface it as a bus event rather than losing
		// it silently.
		data, _ = json.Marshal(map[string]string{"encode_error": err.Error()})
	}
	b.mu.Lock()
	b.publishLocked(Event{T: t, Stream: stream, Kind: kind, Node: node, Data: data})
	b.mu.Unlock()
}

// publishLocked stamps ev with the next bus sequence number, records it
// and fans it out. The caller holds b.mu.
func (b *Bus) publishLocked(ev Event) {
	if b.closed {
		return
	}
	ev.Seq = b.seq
	b.seq++
	if b.ring != nil {
		if b.count == len(b.ring) {
			b.ring[b.head] = ev
			b.head = (b.head + 1) % len(b.ring)
			b.evicted++
		} else {
			b.ring[(b.head+b.count)%len(b.ring)] = ev
			b.count++
		}
	}
	for s := range b.subs {
		if !s.wants(ev.Stream) {
			continue
		}
		s.published.Add(1)
		select {
		case s.ch <- ev:
			s.delivered.Add(1)
		default:
			s.dropped.Add(1)
		}
	}
}

// Subscribe attaches a consumer for the named streams (none = all) with
// the given channel buffer (<= 0 = DefaultSubscriberBuffer). The returned
// subscription's channel is closed by Subscription.Close or Bus.Close. On
// a closed bus, Subscribe returns an already-closed subscription.
func (b *Bus) Subscribe(buffer int, streams ...string) *Subscription {
	return b.subscribe(buffer, streams, false)
}

// SubscribeWithBacklog is Subscribe, but the subscription's channel is
// pre-loaded with the recorder's matching contents (oldest first) before
// any live event, with no gap and no duplicate: the snapshot and the
// attachment happen under one lock. The buffer is grown to hold the
// backlog, so a fresh subscriber always sees the recorded history even if
// it is slow to start reading.
func (b *Bus) SubscribeWithBacklog(buffer int, streams ...string) *Subscription {
	return b.subscribe(buffer, streams, true)
}

func (b *Bus) subscribe(buffer int, streams []string, backlog bool) *Subscription {
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	s := &Subscription{bus: b}
	if len(streams) > 0 {
		s.streams = make(map[string]bool, len(streams))
		for _, name := range streams {
			s.streams[name] = true
		}
	}
	notify := func() {}
	defer func() { notify() }() // after the unlock below
	b.mu.Lock()
	defer b.mu.Unlock()
	var hist []Event
	if backlog && b.ring != nil {
		for i := 0; i < b.count; i++ {
			ev := b.ring[(b.head+i)%len(b.ring)]
			if s.wants(ev.Stream) {
				hist = append(hist, ev)
			}
		}
		if buffer < len(hist)+DefaultSubscriberBuffer {
			buffer = len(hist) + DefaultSubscriberBuffer
		}
	}
	s.ch = make(chan Event, buffer)
	for _, ev := range hist {
		s.published.Add(1)
		s.delivered.Add(1)
		s.ch <- ev
	}
	if b.closed {
		s.closed = true
		close(s.ch)
		return s
	}
	b.subs[s] = struct{}{}
	notify = b.setActiveLocked(true)
	return s
}

// unsubscribe detaches s and closes its channel exactly once.
func (b *Bus) unsubscribe(s *Subscription) {
	notify := func() {}
	defer func() { notify() }() // after the unlock below
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return
	}
	delete(b.subs, s)
	s.closed = true
	close(s.ch)
	if len(b.subs) == 0 && b.ring == nil {
		notify = b.setActiveLocked(false)
	}
}

// setActiveLocked sets the gate and returns what runs the watchers if it
// flipped. The caller runs that once it has released mu, before the call
// that flipped the gate returns.
func (b *Bus) setActiveLocked(v bool) (notify func()) {
	if b.active.Swap(v) == v || len(b.watchers) == 0 {
		return func() {}
	}
	watchers := slices.Clone(b.watchers)
	return func() {
		for _, fn := range watchers {
			(*fn)()
		}
	}
}

// Watch registers fn to run after every flip of Active: the first
// subscriber, the last unsubscribe and Close. A reader that compiles the
// gate into its own published state (the Framework Manager's plans)
// republishes it there, so a publish that follows the flipping call sees
// the new gate. fn runs outside the bus's lock and must not subscribe or
// unsubscribe; it reads Active itself, since flips may race. The returned
// func unregisters fn.
func (b *Bus) Watch(fn func()) (unwatch func()) {
	if b == nil {
		return func() {}
	}
	w := &fn
	b.mu.Lock()
	b.watchers = append(b.watchers, w)
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		b.watchers = slices.DeleteFunc(b.watchers, func(x *func()) bool { return x == w })
		b.mu.Unlock()
	}
}

// Close shuts the bus down: every subscriber channel is closed (consumers
// see their range loop end) and later publishes are discarded. The flight
// recorder's contents remain readable.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	notify := func() {}
	defer func() { notify() }() // after the unlock below
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	notify = b.setActiveLocked(false)
	for s := range b.subs {
		s.closed = true
		close(s.ch)
	}
	b.subs = make(map[*Subscription]struct{})
}

// Seq returns the number of events published so far.
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Evicted returns how many recorded events the flight-recorder ring has
// overwritten.
func (b *Bus) Evicted() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evicted
}

// ReadMetrics reports every event the recorder evicted as
// trace_dropped_total — a reader for metrics.Registry.Attach, so a full
// ring never discards history unnoticed.
func (b *Bus) ReadMetrics(emit func(name string, v uint64)) {
	emit("trace_dropped_total", b.Evicted())
}

// Events copies out the flight recorder, oldest first (nil when recording
// is disabled).
func (b *Bus) Events() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ring == nil || b.count == 0 {
		return nil
	}
	out := make([]Event, b.count)
	for i := 0; i < b.count; i++ {
		out[i] = b.ring[(b.head+i)%len(b.ring)]
	}
	return out
}

// SubStats is one subscriber's exact delivery accounting.
type SubStats struct {
	Published uint64 `json:"published"` // events matching the subscription
	Delivered uint64 `json:"delivered"` // events that entered the channel
	Dropped   uint64 `json:"dropped"`   // events lost to a full channel
}

// Subscription is one attached consumer. Read events from C; Close when
// done. All counters are exact: Published == Delivered + Dropped at every
// instant a consumer can observe.
type Subscription struct {
	bus     *Bus
	streams map[string]bool // nil = all streams
	ch      chan Event
	closed  bool // guarded by bus.mu

	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

func (s *Subscription) wants(stream string) bool {
	return s.streams == nil || s.streams[stream]
}

// C is the event channel. It is closed by Close or Bus.Close.
func (s *Subscription) C() <-chan Event { return s.ch }

// Stats returns the subscription's delivery accounting. Call it after the
// channel has closed (or from the consumer between reads) for a stable
// published == delivered + dropped view.
func (s *Subscription) Stats() SubStats {
	return SubStats{
		Published: s.published.Load(),
		Delivered: s.delivered.Load(),
		Dropped:   s.dropped.Load(),
	}
}

// Close detaches the subscription from the bus and closes its channel.
// Safe to call more than once and concurrently with publishes.
func (s *Subscription) Close() {
	if s == nil || s.bus == nil {
		return
	}
	s.bus.unsubscribe(s)
}

// WriteEvents writes events as NDJSON, one per line — the `mkemu -record`
// dump format of Bus.Events. The encoding is deterministic: fixed field
// order, integer timestamps, pre-encoded payloads.
func WriteEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		line, err := json.Marshal(ev)
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

// ReadEvents parses an NDJSON flight-recorder dump back into events.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("telemetry: dump line %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Fingerprint digests the flight recorder into a short stable hex string.
// Two runs with the same seed must produce equal fingerprints whatever
// GOMAXPROCS was — the byte-determinism gate of the recorded streams.
func (b *Bus) Fingerprint() string {
	return FingerprintEvents(b.Events())
}

// FingerprintEvents is Fingerprint over an explicit event slice, so a
// dump read back from disk (`mkemu -replay`) hashes identically to the
// bus it was written from.
func FingerprintEvents(events []Event) string {
	h := fnv.New64a()
	_ = WriteEvents(h, events)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Summary aggregates a flight-recorder dump for humans.
type Summary struct {
	Total    int            `json:"total"`
	ByStream map[string]int `json:"by_stream"`
	// Evicted is how many events the recorder overwrote before the dump
	// (inferred from the first surviving sequence number).
	Evicted uint64 `json:"evicted"`
	// FirstT and LastT bound the recorded virtual-time window.
	FirstT time.Duration `json:"first_t_ns"`
	LastT  time.Duration `json:"last_t_ns"`
}

// Summarize rolls a dump up into per-stream counts and its time window.
func Summarize(events []Event) Summary {
	s := Summary{ByStream: make(map[string]int)}
	for i, ev := range events {
		s.Total++
		s.ByStream[ev.Stream]++
		if i == 0 {
			s.Evicted = ev.Seq
			s.FirstT = ev.T
		}
		s.LastT = ev.T
	}
	return s
}

// String renders the summary as a compact single block.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d events, window %s .. %s, %d evicted before dump\n",
		s.Total, s.FirstT, s.LastT, s.Evicted)
	names := make([]string, 0, len(s.ByStream))
	for name := range s.ByStream {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-8s %d\n", name, s.ByStream[name])
	}
	return b.String()
}
