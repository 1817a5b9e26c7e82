// The discrete-event core of the emulated medium.
//
// The reference medium (NewReference) schedules one vclock timer per
// in-flight frame — fine for the paper's five nodes, quadratic misery for a
// thousand. The engine is a classic discrete-event simulator instead:
// deliveries live in an engine-owned priority queue ordered by (deadline,
// sequence), and exactly one "anchor" timer sits in the clock at the
// queue's earliest deadline. When the anchor fires, every delivery due at
// that instant — an *epoch* — is popped as one batch and delivered, one
// after the other, in (deadline, seq) order on the clock goroutine.
//
// That order is the whole determinism argument. Everything a protocol can
// observe — the rng draws for loss and faults (made inside Send, which the
// receiver upcalls of an epoch execute serially), trace order, tap order,
// upcall order — happens in the one total order (when, seq), which is a
// pure function of the seed. There is nothing concurrent to reason about.
//
// Same-instant cascades (an upcall sending over a zero-delay link) re-arm
// the anchor at the same instant with a fresh registration sequence, which
// the virtual clock orders after every timer already queued there — exactly
// where the reference path's per-delivery timers would have landed.
package emunet

import (
	"time"

	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// EpochStats describes one committed engine epoch — the per-tick telemetry
// the streaming bus exports. Every field is a pure function of the schedule
// (batch sizes, virtual-clock deadlines): nothing GOMAXPROCS- or wall-clock-
// dependent may appear here, because epoch events land in the flight
// recorder, whose fingerprint must be byte-identical across hosts.
type EpochStats struct {
	// Epoch is the 1-based epoch ordinal.
	Epoch uint64 `json:"epoch"`
	// Events is the batch size: frame deliveries plus MAC feedback events
	// that fell due at this instant.
	Events int `json:"events"`
	// CommitLag is how far past the earliest deadline the commit ran. On a
	// virtual clock this is 0 by construction; under a real clock it is
	// the scheduling slip of the anchor timer.
	CommitLag time.Duration `json:"commit_lag_ns"`
	// QueueDepth is the number of deliveries still scheduled after the
	// epoch drained.
	QueueDepth int `json:"queue_depth"`
}

// EngineStats are the event core's cumulative counters, aggregated from
// every committed epoch. Deterministic for a given seed (see EpochStats).
type EngineStats struct {
	// Epochs counts committed epochs.
	Epochs uint64 `json:"epochs"`
	// ParallelEpochs is always 0: it survives only until a benchmark PR drops emunet.parallel_epoch_share.
	ParallelEpochs uint64 `json:"parallel_epochs"`
	// Events is the total delivery count across all epochs.
	Events uint64 `json:"events"`
	// MaxEpochEvents is the largest single-epoch batch seen.
	MaxEpochEvents int `json:"max_epoch_events"`
}

// delivery is one scheduled event: a frame arriving at a NIC, with or
// without a MAC feedback verdict falling due with it, or a verdict alone
// (nic == nil: the frame was lost, and frame is what fn is handed).
type delivery struct {
	at  int64 // deadline key: nanoseconds past engine.base
	seq uint64

	nic   *NIC
	frame Frame
	cb    func(delivered bool)          // MAC feedback; nil unless SendWithFeedback
	fn    func(f Frame, delivered bool) // MAC feedback; nil unless SendWithFeedbackTagged
}

// engine is the event core installed on every Network but the reference
// one. All of its state is guarded by the owning Network's mutex; epochs
// execute on the clock goroutine, one at a time.
type engine struct {
	net *Network

	// base is the instant deadline keys count from, fixed when the engine
	// is made. Keys are taken with Sub, which reads the monotonic clock
	// under vclock.Real, so they order exactly as the deadlines do.
	base     time.Time
	q        deliveryHeap
	seq      uint64
	anchor   vclock.Timer
	anchorAt int64 // key of the anchor's deadline while anchored
	anchored bool

	// running is set while an epoch is delivering its batch outside the
	// mutex. Under a real clock a send from inside a long upcall arms the
	// anchor, which may then fire on another goroutine; that firing must
	// not start a second epoch over the same batch and free list.
	running bool

	stats EngineStats

	batch []*delivery // scratch reused across epochs; the running epoch's alone
	free  []*delivery // deliveries awaiting reuse
}

// newDeliveryLocked takes a delivery from the free list or allocates one.
func (e *engine) newDeliveryLocked() *delivery {
	if n := len(e.free); n > 0 {
		d := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*d = delivery{}
		return d
	}
	return &delivery{}
}

// key maps an absolute instant to the engine's deadline key.
func (e *engine) key(t time.Time) int64 { return int64(t.Sub(e.base)) }

// scheduleLocked enqueues a delivery at deadline key at, assigning its
// sequence, and keeps the anchor invariant: whenever the queue is
// non-empty, one vclock timer is armed at its earliest deadline. Caller
// holds the network mutex.
func (e *engine) scheduleLocked(d *delivery, at int64) {
	d.at = at
	d.seq = e.seq
	e.seq++
	e.q.push(d)
	if !e.anchored || at < e.anchorAt {
		e.armLocked(at)
	}
}

// armLocked (re)arms the anchor at deadline key at. The engine
// keeps one timer for its lifetime, bound to e.run once, and resets it:
// Reset takes a fresh registration sequence, so the virtual clock orders
// the anchor among equal-deadline protocol timers exactly where a newly
// scheduled per-delivery timer would have landed. The delay is clamped at
// zero because a deadline behind the clock must fire at the current
// instant, after the timers already queued there, not ahead of them.
// Caller holds the network mutex; the lock order network→clock is safe
// because vclock invokes callbacks with its own lock released.
func (e *engine) armLocked(at int64) {
	e.anchorAt, e.anchored = at, true
	d := time.Duration(at - e.key(e.net.clock.Now()))
	if d < 0 {
		d = 0
	}
	if e.anchor == nil {
		e.anchor = e.net.clock.AfterFunc(d, e.run)
		return
	}
	e.anchor.Reset(d)
}

// rearmLocked re-establishes the anchor invariant after an epoch. A
// same-instant follow-on (zero-delay link) re-arms at the current instant,
// which the clock fires after every timer already queued there — matching
// the reference path, where such a delivery's timer was also registered
// behind them.
func (e *engine) rearmLocked() {
	if e.q.len() == 0 {
		if e.anchor != nil {
			e.anchor.Stop()
		}
		e.anchored = false
		return
	}
	e.armLocked(e.q.min().at)
}

// run is the anchor callback: pop the epoch due now, deliver it in (when,
// seq) order, re-arm. Receiver upcalls run here, serially; any Send they
// make re-enters the medium immediately — drawing loss and fault randomness
// and scheduling follow-on deliveries in exactly that order.
//
// At most one epoch is in flight. A firing that finds one running (real
// clock only: the virtual clock fires timers one at a time) is absorbed;
// whatever fell due meanwhile sits in the queue behind the running batch in
// (when, seq) order, and the running epoch's re-arm takes it.
func (e *engine) run() {
	n := e.net
	n.mu.Lock()
	e.anchored = false
	if e.running {
		n.mu.Unlock()
		return
	}
	now := n.clock.Now()
	nowAt := e.key(now)
	batch := e.batch[:0]
	for e.q.len() > 0 && e.q.min().at <= nowAt {
		batch = append(batch, e.q.pop())
	}
	e.batch = batch
	if len(batch) == 0 {
		e.rearmLocked()
		n.mu.Unlock()
		return
	}
	e.running = true
	obs := n.obs // replaced whole by setObs, never mutated
	n.mu.Unlock()

	for _, d := range batch {
		if d.nic != nil {
			d.nic.deliver(d.frame, now)
		}
		if d.cb != nil {
			d.cb(d.nic != nil)
		}
		if d.fn != nil {
			d.fn(d.frame, d.nic != nil)
		}
	}

	es := EpochStats{Events: len(batch), CommitLag: time.Duration(nowAt - batch[0].at)}
	n.mu.Lock()
	for i, d := range batch {
		e.free = append(e.free, d)
		batch[i] = nil
	}
	e.running = false
	e.rearmLocked()
	es.QueueDepth = e.q.len()
	e.stats.Epochs++
	es.Epoch = e.stats.Epochs
	e.stats.Events += uint64(es.Events)
	e.stats.MaxEpochEvents = max(e.stats.MaxEpochEvents, es.Events)
	n.mu.Unlock()

	// The epoch is published outside every lock, after the deliveries, on
	// the clock goroutine — so bus events interleave deterministically with
	// the spans the epoch just recorded.
	if obs != nil && obs.bus.Active() {
		obs.bus.Publish(now, telemetry.StreamEngine, "epoch", "", es)
	}
}

// deliveryHeap is a binary min-heap of deliveries ordered by (at, seq),
// hand-rolled rather than container/heap to keep pushes and pops free of
// interface conversions on the hot path; the keys are plain integers.
type deliveryHeap struct {
	items []*delivery
}

func (h *deliveryHeap) len() int       { return len(h.items) }
func (h *deliveryHeap) min() *delivery { return h.items[0] }

func (h *deliveryHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (h *deliveryHeap) push(d *delivery) {
	h.items = append(h.items, d)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *deliveryHeap) pop() *delivery {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.items) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
