// The sharded discrete-event core of the emulated medium.
//
// The legacy medium scheduled one vclock timer per in-flight frame and did
// all per-delivery bookkeeping under the network mutex — fine for the
// paper's five nodes, quadratic misery for a thousand. The engine replaces
// that with a classic discrete-event simulator: deliveries live in an
// engine-owned priority queue ordered by (deadline, sequence), and exactly
// one "anchor" timer sits in the virtual clock at the queue's earliest
// deadline. When the anchor fires, every delivery due at that instant — an
// *epoch* — is popped as one batch.
//
// Within an epoch the batch is partitioned by the receiver's spatial shard
// (contiguous address blocks; the topology builders hand out addresses in
// spatial order, so a block is a radio neighbourhood). Shard groups run a
// *prep* phase on parallel workers: the per-receiver work that is node-
// local — detach checks, NIC counters, per-shard stats deltas, span
// materialisation — touching nothing shared except atomic metrics
// counters. A barrier follows, then the *merge* phase walks the batch in
// global (deadline, seq) order on the clock goroutine and commits the
// observable effects: trace spans, capture taps, receiver upcalls and MAC
// feedback callbacks. Everything a protocol can observe — rng draws for
// loss and faults (made inside Send, which merge-phase upcalls execute
// serially), trace order, tap order, upcall order — therefore happens in
// one deterministic total order, byte-identical whether the prep phase ran
// on one worker or sixteen. That is the whole determinism argument:
// parallelism is confined to a phase with no observable ordering, and the
// merge imposes (epoch, seq) as the total order.
//
// Same-instant cascades (a merge-phase upcall sending over a zero-delay
// link) re-arm the anchor at the same instant with a fresh registration
// sequence, which the virtual clock orders after every timer already queued
// there — exactly where the legacy path's per-delivery timers would have
// landed.
package emunet

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/trace"
	"manetkit/internal/vclock"
)

// EngineConfig selects and tunes the medium's delivery engine.
type EngineConfig struct {
	// Legacy selects the original timer-per-delivery path (one vclock
	// timer and one closure per frame, all bookkeeping under the network
	// mutex). It exists for differential testing against the event core;
	// new code should leave it false.
	Legacy bool
	// ShardSize is the number of consecutive addresses per spatial shard
	// (default 256). Smaller shards expose more parallelism and more
	// per-epoch grouping overhead.
	ShardSize int
	// ParallelThreshold is the minimum epoch batch size before the prep
	// phase fans out to workers (default 64); below it the grouping and
	// goroutine cost outweighs the win.
	ParallelThreshold int
	// Workers caps the prep-phase worker count (default GOMAXPROCS at
	// epoch time). The merged output is identical for any worker count.
	Workers int
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.ShardSize <= 0 {
		c.ShardSize = 256
	}
	if c.ParallelThreshold <= 0 {
		c.ParallelThreshold = 64
	}
	return c
}

// EpochStats describes one committed engine epoch — the per-tick shard
// telemetry the streaming bus exports. Every field is a pure function of
// the schedule (batch sizes, shard occupancy, virtual-clock deadlines):
// nothing GOMAXPROCS- or wall-clock-dependent may appear here, because
// epoch events land in the flight recorder, whose fingerprint must be
// byte-identical across parallelism settings.
type EpochStats struct {
	// Now is the virtual instant the epoch committed at (excluded from the
	// JSON encoding; the bus stamps its own epoch-relative offset).
	Now time.Time `json:"-"`
	// Epoch is the 1-based epoch ordinal.
	Epoch uint64 `json:"epoch"`
	// Events is the batch size: frame deliveries plus MAC feedback events
	// that fell due at this instant.
	Events int `json:"events"`
	// Shards is how many receiver shards the batch touched.
	Shards int `json:"shards"`
	// MaxShard is the busiest shard's ID and MaxShardEvents its share of
	// the batch — the imbalance signal.
	MaxShard       uint32 `json:"max_shard"`
	MaxShardEvents int    `json:"max_shard_events"`
	// Parallel reports whether the epoch was parallel-eligible: the batch
	// met ParallelThreshold with more than one shard group. Whether the
	// prep fan-out actually engaged additionally depends on GOMAXPROCS,
	// which deliberately does not appear in telemetry (determinism).
	Parallel bool `json:"parallel"`
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
	// Epochs counts committed epochs; ParallelEpochs the parallel-eligible
	// subset (see EpochStats.Parallel).
	Epochs         uint64 `json:"epochs"`
	ParallelEpochs uint64 `json:"parallel_epochs"`
	// Events is the total delivery count across all epochs.
	Events uint64 `json:"events"`
	// MaxEpochEvents and MaxEpochShards are the largest single-epoch batch
	// and widest shard spread seen.
	MaxEpochEvents int `json:"max_epoch_events"`
	MaxEpochShards int `json:"max_epoch_shards"`
}

// delivery is one scheduled event: a frame arriving at a NIC, or a MAC
// feedback verdict falling due (nic == nil). The fields below the cb pair
// are filled by the prep phase and consumed by the merge phase.
type delivery struct {
	when time.Time
	seq  uint64

	nic   *NIC
	frame Frame
	cb    func(delivered bool) // MAC feedback; nil unless SendWithFeedback
	ok    bool                 // verdict passed to cb on a pure feedback event

	recv    func(Frame)
	span    trace.Span
	hasSpan bool
	dropped bool // receiver detached while the frame was in flight
}

// engine is the event core installed on a Network unless EngineConfig.Legacy
// is set. Queue and anchor state are guarded by the owning Network's mutex;
// epoch execution happens on the clock goroutine with a bounded excursion
// into the prep worker pool.
type engine struct {
	net *Network
	cfg EngineConfig

	q        deliveryHeap
	seq      uint64
	anchor   vclock.Timer
	anchorAt time.Time // zero when no anchor is armed

	// shardStats holds the per-shard medium counters. Attribution rule
	// (the aggregation contract): transmission-side counters go to the
	// sender's shard; every per-target event — delivery, loss, corruption,
	// duplication, reorder, missing-link drop — to the receiver's shard. A
	// shard-boundary link therefore contributes each event to exactly one
	// side, and the sum over shards equals the legacy global Stats.
	shardStats map[uint32]*Stats

	// engStats accumulates per-epoch telemetry; guarded by the network
	// mutex like the shard counters.
	engStats EngineStats

	// Per-shard gauge cache, resolved lazily against the registry the
	// network currently carries and refreshed at epoch commit for the
	// shards the epoch touched. Guarded by the network mutex.
	gaugeReg *metrics.Registry
	shardRxG map[uint32]*metrics.Gauge
	shardTxG map[uint32]*metrics.Gauge
	shardsG  *metrics.Gauge

	// scratch reused across epochs (touched only by the clock goroutine).
	batch  []*delivery
	groups []shardGroup
	free   []*delivery
}

// shardGroup is one shard's slice of an epoch batch, in (when, seq) order.
type shardGroup struct {
	shard uint32
	items []*delivery
	stats Stats // prep-phase delta, folded under the network mutex after the barrier
}

func byShard(a, b shardGroup) int { return cmp.Compare(a.shard, b.shard) }

func newEngine(n *Network, cfg EngineConfig) *engine {
	return &engine{net: n, cfg: cfg.withDefaults(), shardStats: make(map[uint32]*Stats)}
}

// shardOf maps an address to its spatial shard: contiguous blocks of
// ShardSize addresses. Addrs hands out consecutive addresses and the
// topology builders wire neighbours consecutively, so blocks track radio
// neighbourhoods on the line/grid topologies the scale runs use.
func (e *engine) shardOf(a mnet.Addr) uint32 {
	return a.Uint32() / uint32(e.cfg.ShardSize)
}

// statsForLocked returns the shard bucket for addr, creating it on first
// touch. Caller holds the network mutex.
func (e *engine) statsForLocked(a mnet.Addr) *Stats {
	return e.bucketLocked(e.shardOf(a))
}

func (e *engine) bucketLocked(id uint32) *Stats {
	st := e.shardStats[id]
	if st == nil {
		st = &Stats{} //mk:allow hotalloc first touch of a shard
		e.shardStats[id] = st
	}
	return st
}

// totalsLocked sums the per-shard counters. Caller holds the network mutex.
func (e *engine) totalsLocked() Stats {
	var sum Stats
	for _, st := range e.shardStats {
		sum.TxFrames += st.TxFrames
		sum.RxFrames += st.RxFrames
		sum.DroppedLoss += st.DroppedLoss
		sum.DroppedNoLink += st.DroppedNoLink
		sum.TxBytes += st.TxBytes
		sum.RxBytes += st.RxBytes
		sum.Corrupted += st.Corrupted
		sum.Duplicated += st.Duplicated
		sum.Reordered += st.Reordered
	}
	return sum
}

// snapshotLocked copies the per-shard counters, keyed by shard ID.
func (e *engine) snapshotLocked() map[uint32]Stats {
	out := make(map[uint32]Stats, len(e.shardStats))
	for id, st := range e.shardStats {
		out[id] = *st
	}
	return out
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
	return &delivery{} //mk:allow hotalloc free list empty: more frames in flight than ever before
}

// scheduleLocked enqueues a delivery at the absolute instant when,
// assigning its merge sequence, and keeps the anchor invariant: whenever
// the queue is non-empty, one vclock timer is armed at its earliest
// deadline. Caller holds the network mutex.
func (e *engine) scheduleLocked(d *delivery, when time.Time) {
	d.when = when
	d.seq = e.seq
	e.seq++
	e.q.push(d)
	if e.anchorAt.IsZero() || when.Before(e.anchorAt) {
		e.armLocked(when)
	}
}

// armLocked (re)arms the anchor at the absolute deadline when. The engine
// keeps one timer for its lifetime, bound to e.run once, and resets it:
// Reset takes a fresh registration sequence, so the virtual clock orders
// the anchor among equal-deadline protocol timers exactly where a newly
// scheduled per-delivery timer would have landed. The delay is clamped at
// zero because a deadline behind the clock must fire at the current
// instant, after the timers already queued there, not ahead of them.
// Caller holds the network mutex; the lock order network→clock is safe
// because vclock invokes callbacks with its own lock released.
//
//mk:hotpath
func (e *engine) armLocked(when time.Time) {
	e.anchorAt = when
	d := when.Sub(e.net.clock.Now())
	if d < 0 {
		d = 0
	}
	if e.anchor == nil {
		e.anchor = e.net.clock.AfterFunc(d, e.run) //mk:allow hotalloc once per engine: the anchor and its bound callback
		return
	}
	e.anchor.Reset(d)
}

// rearmLocked re-establishes the anchor invariant after an epoch. A
// same-instant follow-on (zero-delay link) re-arms at the current instant,
// which the clock fires after every timer already queued there — matching
// the legacy path, where such a delivery's timer was also registered
// behind them.
func (e *engine) rearmLocked() {
	if e.q.len() == 0 {
		if e.anchor != nil {
			e.anchor.Stop()
		}
		e.anchorAt = time.Time{}
		return
	}
	e.armLocked(e.q.min().when)
}

// run is the anchor callback: pop the epoch due now, execute it, re-arm.
//
//mk:hotpath
func (e *engine) run() {
	n := e.net
	n.mu.Lock()
	now := n.clock.Now()
	e.anchorAt = time.Time{}
	batch := e.batch[:0]
	for e.q.len() > 0 && !e.q.min().when.After(now) {
		batch = append(batch, e.q.pop()) //mk:allow hotalloc scratch growth, amortised to zero
	}
	if len(batch) == 0 {
		e.batch = batch
		e.rearmLocked()
		n.mu.Unlock()
		return
	}
	commitLag := now.Sub(batch[0].when)
	obs := n.obs
	epochObs := n.epochObs
	n.mu.Unlock()

	groups := e.prepPhase(batch, obs) //mk:allow hotalloc the worker fan-out engages only at ParallelThreshold events an epoch

	// Fold the per-group rx deltas into the shard counters before any
	// upcall can observe Stats.
	n.mu.Lock()
	for i := range groups {
		g := &groups[i]
		if g.stats == (Stats{}) {
			continue
		}
		st := e.bucketLocked(g.shard)
		st.RxFrames += g.stats.RxFrames
		st.RxBytes += g.stats.RxBytes
	}
	n.mu.Unlock()

	// Merge phase: commit observable effects in global (when, seq) order.
	// Receiver upcalls run here, serially; any Send they make re-enters the
	// medium immediately — drawing loss and fault randomness and scheduling
	// follow-on deliveries in exactly the order a sequential run would.
	for _, d := range batch {
		e.commit(d, now, obs)
	}

	es := EpochStats{
		Now:       now,
		Events:    len(batch),
		Shards:    len(groups),
		Parallel:  len(batch) >= e.cfg.ParallelThreshold && len(groups) > 1,
		CommitLag: commitLag,
	}
	for i := range groups {
		if ln := len(groups[i].items); ln > es.MaxShardEvents {
			es.MaxShardEvents = ln
			es.MaxShard = groups[i].shard
		}
	}

	n.mu.Lock()
	for i, d := range batch {
		e.free = append(e.free, d) //mk:allow hotalloc scratch growth, amortised to zero
		batch[i] = nil
	}
	e.batch = batch[:0]
	e.rearmLocked()
	es.QueueDepth = e.q.len()
	e.engStats.Epochs++
	es.Epoch = e.engStats.Epochs
	if es.Parallel {
		e.engStats.ParallelEpochs++
	}
	e.engStats.Events += uint64(es.Events)
	if es.Events > e.engStats.MaxEpochEvents {
		e.engStats.MaxEpochEvents = es.Events
	}
	if es.Shards > e.engStats.MaxEpochShards {
		e.engStats.MaxEpochShards = es.Shards
	}
	if obs != nil && obs.reg != nil {
		e.refreshShardGaugesLocked(obs.reg, groups) //mk:allow hotalloc only with a metrics registry attached, and then only on a shard's first epoch
	}
	n.mu.Unlock()

	if obs != nil {
		obs.engEpochs.Inc()
		if es.Parallel {
			obs.engEpochsParallel.Inc()
		}
		obs.engEpochEvents.Add(uint64(es.Events))
	}
	// The epoch observer runs outside every lock, after the commit phase,
	// on the clock goroutine — so bus events interleave deterministically
	// with the spans the epoch just committed.
	if epochObs != nil {
		epochObs(es)
	}
}

// refreshShardGaugesLocked mirrors the shard counters the epoch touched
// into per-shard metrics gauges (net_shard_rx_frames:<id> and
// net_shard_tx_frames:<id>), making per-shard imbalance visible without a
// debugger. Gauges refresh lazily — a shard's gauge updates at the commit
// of any epoch that delivered into it — which bounds the per-epoch cost
// to the shards actually active. Caller holds the network mutex.
func (e *engine) refreshShardGaugesLocked(reg *metrics.Registry, groups []shardGroup) {
	if e.gaugeReg != reg {
		e.gaugeReg = reg
		e.shardRxG = make(map[uint32]*metrics.Gauge)
		e.shardTxG = make(map[uint32]*metrics.Gauge)
		e.shardsG = reg.Gauge("net_engine_shards")
	}
	for i := range groups {
		sid := groups[i].shard
		st := e.shardStats[sid]
		if st == nil {
			continue
		}
		rg := e.shardRxG[sid]
		if rg == nil {
			rg = reg.Gauge(fmt.Sprintf("net_shard_rx_frames:%d", sid))
			e.shardRxG[sid] = rg
			e.shardTxG[sid] = reg.Gauge(fmt.Sprintf("net_shard_tx_frames:%d", sid))
		}
		rg.Set(int64(st.RxFrames))
		e.shardTxG[sid].Set(int64(st.TxFrames))
	}
	e.shardsG.Set(int64(len(e.shardStats)))
}

// prepPhase runs the node-local half of every delivery, fanning out to
// workers when the epoch is large enough. Group contents stay in (when,
// seq) order; nothing observable depends on worker count or scheduling.
func (e *engine) prepPhase(batch []*delivery, obs *netObs) []shardGroup {
	groups := e.groupByShard(batch)
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if len(batch) < e.cfg.ParallelThreshold || workers <= 1 {
		for i := range groups {
			g := &groups[i]
			for _, d := range g.items {
				prep(d, &g.stats, obs)
			}
		}
		return groups
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(groups) {
					return
				}
				g := &groups[i]
				for _, d := range g.items {
					prep(d, &g.stats, obs)
				}
			}
		}()
	}
	wg.Wait()
	return groups
}

// groupByShard partitions a batch by receiver shard, preserving (when,
// seq) order inside each group, groups sorted by shard ID. Epochs touch a
// handful of shards, so a linear scan beats a map; a group slot keeps the
// capacity of whatever items slice last sat in it, so a warm engine
// allocates nothing here.
//
//mk:hotpath
func (e *engine) groupByShard(batch []*delivery) []shardGroup {
	groups := e.groups[:0]
	for _, d := range batch {
		var sid uint32
		if d.nic != nil {
			sid = e.shardOf(d.nic.addr)
		}
		gi := -1
		for i := range groups {
			if groups[i].shard == sid {
				gi = i
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			if gi == cap(groups) {
				groups = append(groups, shardGroup{}) //mk:allow hotalloc scratch growth, amortised to zero
			} else {
				groups = groups[:gi+1]
			}
			groups[gi] = shardGroup{shard: sid, items: groups[gi].items[:0]}
		}
		groups[gi].items = append(groups[gi].items, d) //mk:allow hotalloc scratch growth, amortised to zero
	}
	slices.SortFunc(groups, byShard)
	e.groups = groups
	return groups
}

// prep is the parallel half of one delivery: everything node-local. It
// must not touch the network mutex, the rng, the tracer ring or any other
// cross-shard state — only its own NIC, its group's stats delta, the
// atomic metrics counters and its own delivery slot. The epochpurity
// analyzer proves that statically for everything reachable from here.
//
//mk:parallelprep
func prep(d *delivery, st *Stats, obs *netObs) {
	if d.nic == nil {
		return // pure feedback event
	}
	c := d.nic
	c.mu.Lock()
	if c.detached {
		c.mu.Unlock()
		d.dropped = true
		return
	}
	d.recv = c.recv
	c.rx++
	c.mu.Unlock()

	st.RxFrames++
	st.RxBytes += uint64(len(d.frame.Payload))
	if obs != nil {
		obs.rxFrames.Inc()
		if d.frame.Corrupted {
			obs.corrupted.Inc()
		}
		if obs.tracer != nil {
			d.span = trace.Span{
				Node: c.addr.String(), Kind: trace.KindFrameRx,
				From: d.frame.Src.String(), Corr: d.frame.Corr, Bytes: len(d.frame.Payload),
			}
			d.hasSpan = true
		}
	}
}

// commit is the serial half of one delivery, in global (when, seq) order:
// record the span, invoke the capture tap, hand the frame to the receiver
// and deliver MAC feedback. A frame whose receiver detached in flight is
// dropped silently, but its MAC feedback still reports success — the ACK
// left the receiver before it crashed, matching the legacy path.
func (e *engine) commit(d *delivery, now time.Time, obs *netObs) {
	if d.nic == nil {
		if d.cb != nil {
			d.cb(d.ok)
		}
		return
	}
	if !d.dropped {
		if d.hasSpan && obs != nil && obs.tracer != nil {
			obs.tracer.Record(now, d.span)
		}
		n := e.net
		n.mu.Lock()
		tap := n.tap
		n.mu.Unlock()
		if tap != nil {
			tap(d.frame, d.nic.addr)
		}
		if d.recv != nil {
			d.recv(d.frame)
		}
	}
	if d.cb != nil {
		d.cb(true)
	}
}

// deliveryHeap is a binary min-heap of deliveries ordered by (when, seq),
// hand-rolled rather than container/heap to keep pushes and pops free of
// interface conversions on the hot path.
type deliveryHeap struct {
	items []*delivery
}

func (h *deliveryHeap) len() int       { return len(h.items) }
func (h *deliveryHeap) min() *delivery { return h.items[0] }

func (h *deliveryHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if !a.when.Equal(b.when) {
		return a.when.Before(b.when)
	}
	return a.seq < b.seq
}

func (h *deliveryHeap) push(d *delivery) {
	h.items = append(h.items, d) //mk:allow hotalloc queue growth, amortised to zero
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
