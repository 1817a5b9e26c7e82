// Package emunet emulates the wireless testbed the paper evaluates on: an
// 802.11-style broadcast medium with an explicit connectivity matrix.
//
// The paper's testbed was five Linux nodes whose multi-hop topology was
// emulated with MAC-level filtering plus the MobiEmu emulator (§6). emunet
// reproduces that arrangement in-process: nodes attach NICs to a Network,
// the connectivity matrix (the MAC-filter analogue) decides who hears whom,
// and each directed link carries a delay, a loss probability and a signal
// strength. Mobility scenarios are scripted timeline mutations of the
// matrix, like MobiEmu scenario playback.
//
// Frame delivery runs on the discrete-event engine (engine.go), which
// scales the medium to thousands of nodes. All timing goes through
// vclock.Clock, so a whole scenario is deterministic under a virtual clock.
package emunet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// Frame is one link-layer transmission as seen by a receiver.
type Frame struct {
	Src mnet.Addr
	Dst mnet.Addr // mnet.Broadcast for broadcast frames
	// Payload is the medium's copy of the transmitted bytes, lent to the
	// call that was handed the frame (a receiver upcall, a verdict): after
	// it the buffer is poisoned and reused, so whoever keeps bytes copies
	// them, except from a frame that is kept (Keep) or that a capture tap
	// is handed. It is read-only for everybody; fault injection copies
	// first.
	Payload []byte
	Device  string
	// RSSI is the emulated received signal strength in dBm.
	RSSI float64
	// Corrupted marks a frame mangled by fault injection. A real MAC would
	// discard it on the frame checksum; the emulator delivers it anyway so
	// decoder robustness is exercised, and diagnostic taps (which model
	// capture above the MAC) can use this bit to ignore mangled frames.
	Corrupted bool
	// Corr is the message correlation ID of the payload (empty when the
	// sender did not tag the frame). It exists only in the emulator — real
	// radios carry no such field — so the frame-rx trace span on the
	// receiving node can be stitched to the frame-tx span on the sender.
	Corr string

	// shared is the transmission's record (see Decoded); nil on a frame with
	// bytes of its own, built by hand or by fault injection.
	shared *txRecord
}

// txRecord is what the medium lends one transmission's deliveries: the
// payload buffer, one hold per scheduled delivery, and the decode slot the
// receivers share. The last release recycles it, buffer and decode; kept
// marks a transmission something may hold on to, whose buffer and decode go
// to the collector instead, and tapped a record a capture tap was handed,
// which goes there whole: a Decoded on a frame the tap kept would otherwise
// fill the slot of the next send.
type txRecord struct {
	net    *Network // whose spare rooms a decode takes (see Decoded)
	buf    []byte
	holds  int32 // guarded by Network.mu, as is tapped
	tapped bool
	kept   atomic.Bool // Keep sets it outside Network.mu
	once   sync.Once
	val    any
	err    error
}

// poisoner is a decoded value the medium may lend: Poison overwrites it
// with what no decode produces.
type poisoner interface{ Poison() }

// Decoded returns decode(f.Payload, room), computed once per transmission:
// the receivers of one transmission share the buffer, so the first of them
// to ask runs decode and the rest get the same value and the same error.
// All callers must pass the same pure function, and Decoded, like the
// payload, is for the call that was handed the frame. Frames with bytes of
// their own (corrupted or duplicated by fault injection, built by hand)
// decode privately, with no room.
//
// A value with a Poison method is lent with the bytes it may alias: once
// the transmission's last delivery has returned, unless the frame was kept
// (Keep), the medium poisons it and hands it to a later decode on the same
// network as room, to build that decode's value in; room is nil when no
// released value is spare. So a receiver may read the value until its call
// returns, and whoever keeps part of it copies it, or keeps the frame.
func (f Frame) Decoded(decode func(payload []byte, room any) (any, error)) (any, error) {
	r := f.shared
	if r == nil {
		return decode(f.Payload, nil)
	}
	r.once.Do(func() { r.val, r.err = decode(f.Payload, r.net.takeRoom()) })
	return r.val, r.err
}

// Keep marks the frame's transmission kept: its buffer and its decode go to
// the collector instead of being recycled, so the payload and the value
// Decoded returns stay valid for as long as anyone points at them. A
// receiver calls it when something it started may read them after its call
// returns. A frame with bytes of its own is never recycled.
func (f Frame) Keep() {
	if r := f.shared; r != nil {
		r.kept.Store(true)
	}
}

// takeRoom returns a released decode for the next decode to build in, or
// nil when none is spare.
func (n *Network) takeRoom() any {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := len(n.rooms) - 1
	if k < 0 {
		return nil
	}
	room := n.rooms[k]
	n.rooms[k], n.rooms = nil, n.rooms[:k]
	return room
}

// Quality describes one directed link.
type Quality struct {
	// Delay is the propagation+MAC delay applied to each frame.
	Delay time.Duration
	// Loss is the independent per-frame drop probability in [0,1].
	Loss float64
	// SignalDBm is the received signal strength reported with each frame.
	SignalDBm float64
}

// DefaultQuality approximates a healthy one-hop 802.11b/g link.
func DefaultQuality() Quality {
	return Quality{Delay: 1500 * time.Microsecond, Loss: 0, SignalDBm: -55}
}

// Stats aggregates medium activity; used by the overhead experiments.
type Stats struct {
	TxFrames      uint64 // transmissions attempted (one per Send call)
	RxFrames      uint64 // deliveries completed
	DroppedLoss   uint64 // deliveries lost to link loss
	DroppedNoLink uint64 // unicast sends with no link to the destination
	TxBytes       uint64
	RxBytes       uint64
	// Fault-injection activity (see FaultPlan).
	Corrupted  uint64 // deliveries whose payload was mangled
	Duplicated uint64 // extra deliveries injected by duplication
	Reordered  uint64 // deliveries delayed by reorder jitter
	// RxCorrupted counts completed deliveries of a mangled frame. It is
	// not Corrupted: a duplicate of a mangled frame arrives mangled too,
	// and a mangled frame whose receiver detached in flight never arrives.
	RxCorrupted uint64
}

// Errors reported by the emulated medium.
var (
	ErrAttached = errors.New("emunet: address already attached")
	ErrNotFound = errors.New("emunet: no such node")
	ErrDetached = errors.New("emunet: NIC detached")
	ErrSelfLink = errors.New("emunet: node cannot link to itself")
)

// neighborLink is one directed link with its receiving NIC resolved. A
// sender's links are sorted by destination: broadcast fan-out walks them in
// that deterministic order, and a unicast finds its link by binary search.
type neighborLink struct {
	to  mnet.Addr
	nic *NIC
	q   Quality
}

// Network is the emulated broadcast medium plus connectivity matrix.
type Network struct {
	clock vclock.Clock

	// base is the clock reading deadline keys count from (see nowKey).
	base int64

	// mu guards the medium and every NIC's receiver and detach flag.
	mu sync.Mutex
	// rng draws the loss process. It is built from seed when the first
	// lossy link is set, before any draw, so a medium whose links never
	// lose holds no generator.
	seed  int64
	rng   *rand.Rand
	nodes map[mnet.Addr]*NIC
	// adj is the link set: every sender's outgoing links, sorted by
	// destination. A node absent from it, or with an empty list, has none.
	adj   map[mnet.Addr][]neighborLink
	stats Stats
	eng   engine                 // the event core every delivery goes through
	tap   func(Frame, mnet.Addr) // (frame, receiver); nil when unset
	txTap func(Frame)            // transmission-side tap; nil when unset
	inj   *Injector              // nil until a FaultPlan is applied
	bus   *telemetry.Bus         // nil when no telemetry bus is attached

	// targets is send's scratch list of a broadcast's receivers, reused
	// across sends: it is only touched under mu, and nothing send calls
	// while holding mu sends again.
	targets []neighborLink
	// free and records hold fired deliveries and released transmission
	// records (up to recordCap), rooms released decodes (up to roomCap).
	free    []*delivery
	records []*txRecord
	rooms   []any
}

// recordCap bounds the spare transmission records; roomCap the spare
// decodes, which only the transmissions decoding at once need, so a few.
const (
	recordCap = 128
	roomCap   = 4
)

// New creates an empty medium on the given clock, running the discrete-
// event engine. seed drives the loss process, making lossy runs
// reproducible.
func New(clock vclock.Clock, seed int64) *Network {
	n := &Network{
		clock: clock,
		base:  clock.Nanos(),
		seed:  seed,
		nodes: make(map[mnet.Addr]*NIC),
		adj:   make(map[mnet.Addr][]neighborLink),
	}
	n.eng.net = n
	return n
}

// Clock returns the clock the medium schedules deliveries on.
func (n *Network) Clock() vclock.Clock { return n.clock }

// Attach joins a node to the medium and returns its NIC. The device name is
// synthesised ("emu0" style) and unique per node.
func (n *Network) Attach(addr mnet.Addr) (*NIC, error) {
	if addr.IsBroadcast() || addr.IsUnspecified() {
		return nil, fmt.Errorf("emunet: cannot attach reserved address %v", addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[addr]; ok {
		return nil, fmt.Errorf("%w: %v", ErrAttached, addr)
	}
	nic := &NIC{
		net:    n,
		addr:   addr,
		device: fmt.Sprintf("emu%d", len(n.nodes)),
	}
	n.nodes[addr] = nic
	return nic, nil
}

// Reattach restores a previously detached NIC at its old address — the
// second half of a crash+restart fault. The NIC keeps its device name; any
// protocol stack still holding it resumes transmitting, but all links were
// lost on Detach and must be re-installed by the caller (or a FaultPlan).
func (n *Network) Reattach(nic *NIC) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[nic.addr]; ok {
		return fmt.Errorf("%w: %v", ErrAttached, nic.addr)
	}
	nic.detached = false
	n.nodes[nic.addr] = nic
	return nil
}

// Detach removes a node and all its links — a node leaving the network.
func (n *Network) Detach(addr mnet.Addr) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	nic, ok := n.nodes[addr]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, addr)
	}
	nic.detached = true
	delete(n.nodes, addr)
	n.cutLocked(func(from, to mnet.Addr) bool { return from == addr || to == addr }, nil)
	delete(n.adj, addr)
	return nil
}

// SetLink installs a symmetric link between a and b with quality q in both
// directions.
func (n *Network) SetLink(a, b mnet.Addr, q Quality) error {
	if err := n.SetDirectedLink(a, b, q); err != nil {
		return err
	}
	return n.SetDirectedLink(b, a, q)
}

// SetDirectedLink installs or updates the from→to direction only, allowing
// asymmetric ("heard but not symmetric") links.
func (n *Network) SetDirectedLink(from, to mnet.Addr, q Quality) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.setLinkLocked(from, to, q)
}

// setLinkLocked is SetDirectedLink for a caller that holds n.mu.
func (n *Network) setLinkLocked(from, to mnet.Addr, q Quality) error {
	if from == to {
		return ErrSelfLink
	}
	if _, ok := n.nodes[from]; !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, from)
	}
	toNIC, ok := n.nodes[to]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, to)
	}
	n.setAdjLocked(from, to, toNIC, q)
	return nil
}

// CutLink removes both directions between a and b — the MAC-filter move that
// models nodes drifting out of range.
func (n *Network) CutLink(a, b mnet.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cutLocked(func(from, to mnet.Addr) bool { return from == a && to == b || from == b && to == a }, nil)
}

// linkLocked returns the from→to link, or nil. It points into the sender's
// list, so it is valid only while the caller holds n.mu.
func (n *Network) linkLocked(from, to mnet.Addr) *neighborLink {
	nl := n.adj[from]
	lo, hi, key := 0, len(nl), to.Uint32()
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); nl[m].to.Uint32() < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(nl) && nl[lo].to == to {
		return &nl[lo]
	}
	return nil
}

// setAdjLocked inserts or updates the from→to link, keeping the sender's
// list sorted. Caller holds n.mu.
func (n *Network) setAdjLocked(from, to mnet.Addr, nic *NIC, q Quality) {
	if q.Loss > 0 && n.rng == nil {
		n.rng = rand.New(rand.NewSource(n.seed))
	}
	if l := n.linkLocked(from, to); l != nil {
		l.nic, l.q = nic, q
		return
	}
	nl := append(n.adj[from], neighborLink{to: to, nic: nic, q: q})
	for i := len(nl) - 1; i > 0 && to.Less(nl[i-1].to); i-- {
		nl[i], nl[i-1] = nl[i-1], nl[i]
	}
	n.adj[from] = nl
}

// cutLocked removes every directed link match selects, preserving the
// order of the rest, and hands each removed link to cut when it is
// non-nil. Caller holds n.mu.
func (n *Network) cutLocked(match func(from, to mnet.Addr) bool, cut func(from mnet.Addr, l neighborLink)) {
	for from, nl := range n.adj {
		kept := nl[:0]
		for _, l := range nl {
			if !match(from, l.to) {
				kept = append(kept, l)
			} else if cut != nil {
				cut(from, l)
			}
		}
		if len(kept) < len(nl) {
			clear(nl[len(kept):])
			n.adj[from] = kept
		}
	}
}

// Linked reports whether from can currently reach to in one hop.
func (n *Network) Linked(from, to mnet.Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.linkLocked(from, to) != nil
}

// LinkQuality returns the quality of the from→to link.
func (n *Network) LinkQuality(from, to mnet.Addr) (Quality, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l := n.linkLocked(from, to); l != nil {
		return l.q, true
	}
	return Quality{}, false
}

// Neighbors lists the nodes from can reach in one hop, sorted.
func (n *Network) Neighbors(from mnet.Addr) []mnet.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	nl := n.adj[from]
	if len(nl) == 0 {
		return nil
	}
	out := make([]mnet.Addr, len(nl))
	for i := range nl {
		out[i] = nl[i].to
	}
	return out
}

// Nodes lists attached addresses, sorted.
func (n *Network) Nodes() []mnet.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]mnet.Addr, 0, len(n.nodes))
	for a := range n.nodes {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// NIC looks up the NIC attached at addr.
func (n *Network) NIC(addr mnet.Addr) (*NIC, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	nic, ok := n.nodes[addr]
	return nic, ok
}

// Stats returns a snapshot of medium counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// EngineStats returns the event core's cumulative epoch telemetry. ok is
// always true: every medium runs the engine.
func (n *Network) EngineStats() (EngineStats, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.stats, true
}

// SetTap installs a packet-capture hook (the libpcap analogue): fn observes
// every delivered frame together with its receiver, and may keep the
// frame, payload and decode: no later send reuses them. Pass nil to remove.
func (n *Network) SetTap(fn func(f Frame, receiver mnet.Addr)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tap = fn
}

// SetTxTap installs a transmission-side capture hook: fn observes every
// frame the medium accepts for transmission (one call per Send, before
// loss, link filtering or fault injection — the workload as offered, not as
// delivered). The receiver-side SetTap sees only completed deliveries; the
// pair is what lets the evaluation campaign compute control overhead per
// transmission, the convention of the protocol-comparison literature. The
// frame's payload is the medium's copy of the bytes, the one the receivers
// get: fn may keep it and must not write to it. Pass nil to remove.
func (n *Network) SetTxTap(fn func(Frame)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.txTap = fn
}

// ScheduleAt runs fn on the medium's clock after d — the primitive from
// which mobility scenarios are scripted.
func (n *Network) ScheduleAt(d time.Duration, fn func(*Network)) {
	n.clock.AfterFunc(d, func() { fn(n) })
}

// macRetry is how long past the link delay a sender's MAC keeps retrying a
// unicast before it reports the frame lost.
const macRetry = 2 * time.Millisecond

// send is the medium's one transmission step, for a broadcast, a unicast
// and a unicast whose MAC verdict goes to cb or fn (at most one is set). A
// broadcast gets no verdict, as in 802.11.
func (n *Network) send(c *NIC, dst mnet.Addr, payload []byte, corr string, cb func(bool), fn func(Frame, bool)) error {
	if dst.IsBroadcast() {
		cb, fn = nil, nil
	}
	src, device := c.addr, c.device
	n.mu.Lock()
	if c.detached {
		n.mu.Unlock()
		return ErrDetached
	}
	nowAt := n.nowKey()
	txTap := n.txTap
	n.stats.TxFrames++
	n.stats.TxBytes += uint64(len(payload))
	if n.bus.Active() {
		n.bus.Record(n.clock.Now(), telemetry.Span{
			Node: src.String(), Kind: telemetry.KindFrameTx,
			To: traceTo(dst), Corr: corr, Bytes: len(payload),
		})
	}

	// The survivors of the loss process: a broadcast's in targets, in link
	// order, which fixes the delivery order under equal delays; a unicast's
	// in link, whose quality also times a lost frame's verdict. Loss draws
	// (n.rng) and fault draws (the injector's own generator) are independent
	// sequences, so every loss is drawn here, before any fault.
	var targets []neighborLink
	var link *neighborLink
	rx := 0
	if dst.IsBroadcast() {
		targets = n.targets[:0]
		for _, l := range n.adj[src] {
			if l.q.Loss > 0 && n.rng.Float64() < l.q.Loss {
				n.dropLocked(&n.stats.DroppedLoss, "loss", src, l.to, corr, len(payload))
				continue
			}
			targets = append(targets, l)
		}
		rx = len(targets)
	} else if link = n.linkLocked(src, dst); link == nil {
		n.dropLocked(&n.stats.DroppedNoLink, "no-link", src, dst, corr, len(payload))
	} else if link.q.Loss > 0 && n.rng.Float64() < link.q.Loss {
		n.dropLocked(&n.stats.DroppedLoss, "loss", src, dst, corr, len(payload))
	} else {
		rx = 1
	}

	// One copy of the payload, made only when something reads it: the
	// receivers, the tx tap and the verdict must not alias the sender's
	// buffer, which is the sender's again when this call returns. The copy
	// lives in a recycled record every delivery of it holds, whose receivers
	// share one decode of it; one the tx tap or the injector sees is kept.
	verdict := cb != nil || fn != nil
	var rec *txRecord
	var buf []byte
	if rx > 0 || txTap != nil || verdict {
		if k := len(n.records) - 1; k >= 0 {
			rec, n.records[k], n.records = n.records[k], nil, n.records[:k]
		} else {
			rec = &txRecord{net: n}
		}
		rec.buf, rec.holds = append(rec.buf[:0], payload...), 1 // this call's hold
		if txTap != nil || n.inj != nil {
			rec.kept.Store(true)
		}
		buf = rec.buf
	}
	f := Frame{Src: src, Dst: dst, Payload: buf, Device: device, Corr: corr, shared: rec}
	switch {
	case dst.IsBroadcast():
		for i := range targets {
			n.receiveLocked(nowAt, &targets[i], &f, nil, nil)
		}
		clear(targets) // drop the NIC pointers, keep the capacity
		n.targets = targets[:0]
	case rx == 1:
		n.receiveLocked(nowAt, link, &f, cb, fn)
	case verdict:
		// Nothing arrives: the verdict alone falls due once the MAC has
		// given up retrying.
		d := n.newDeliveryLocked(nil, &f, cb, fn)
		delay := macRetry
		if link != nil {
			d.frame.RSSI, delay = link.q.SignalDBm, link.q.Delay+macRetry
		}
		n.waitLocked(d, nowAt, delay)
	}
	if rec != nil {
		n.releaseLocked(rec)
	}
	n.mu.Unlock()

	if txTap != nil {
		txTap(Frame{Src: src, Dst: dst, Payload: buf, Device: device, Corr: corr})
	}
	return nil
}

// releaseLocked drops a hold on r. The last recycles r with its slot zeroed
// and its buffer and decode poisoned, like a released event carrier, the
// decode kept as a spare room while there are fewer than roomCap, unless r
// is tapped, which goes to the collector whole, or kept, whose buffer and
// decode go there. Caller holds n.mu.
func (n *Network) releaseLocked(r *txRecord) {
	if r.holds--; r.holds > 0 || r.tapped {
		return
	}
	buf, val := r.buf, r.val
	if r.kept.Load() {
		buf, val = nil, nil
	}
	for i := 0; i < len(buf); i += copy(buf[i:], poison) {
	}
	if p, ok := val.(poisoner); ok {
		p.Poison()
		if len(n.rooms) < roomCap {
			n.rooms = append(n.rooms, val)
		}
	}
	*r = txRecord{net: n, buf: buf}
	if len(n.records) < recordCap {
		n.records = append(n.records, r)
	}
}

var poison = bytes.Repeat([]byte{0xde}, 64) // no frame class starts with 0xde

// dropLocked accounts one receiver's copy of a transmission as lost, for
// reason event, on counter. Caller holds n.mu.
func (n *Network) dropLocked(counter *uint64, event string, src, to mnet.Addr, corr string, bytes int) {
	*counter++
	if n.bus.Active() {
		n.bus.Record(n.clock.Now(), telemetry.Span{
			Node: src.String(), Kind: telemetry.KindFrameDrop,
			Event: event, To: to.String(), Corr: corr, Bytes: bytes,
		})
	}
}

// receiveLocked schedules one surviving receiver's copy of the frame tx,
// after the link delay and whatever faults the injector draws for it: a
// frame with a verdict draws corruption only. Caller holds n.mu.
func (n *Network) receiveLocked(nowAt int64, to *neighborLink, tx *Frame, cb func(bool), fn func(Frame, bool)) {
	d := n.newDeliveryLocked(to.nic, tx, cb, fn)
	d.frame.RSSI = to.q.SignalDBm
	delay := to.q.Delay
	if n.inj != nil {
		n.inj.injectLocked(n, nowAt, to, &d.frame, &delay, cb != nil || fn != nil)
	}
	n.waitLocked(d, nowAt, delay)
}

// newDeliveryLocked returns a delivery of f to nic with verdict cb or fn,
// reusing a fired one when the free list holds any. Caller holds n.mu.
func (n *Network) newDeliveryLocked(nic *NIC, f *Frame, cb func(bool), fn func(Frame, bool)) *delivery {
	var d *delivery
	if k := len(n.free); k > 0 {
		d, n.free[k-1], n.free = n.free[k-1], nil, n.free[:k-1]
	} else {
		d = new(delivery)
	}
	d.nic, d.frame, d.cb, d.fn = nic, *f, cb, fn // at and seq are set when it is queued
	return d
}

// waitLocked books d, holding its record until the epoch that fires it
// hands it back, to fire delay after the send at deadline key nowAt.
// Caller holds n.mu.
func (n *Network) waitLocked(d *delivery, nowAt int64, delay time.Duration) {
	if r := d.frame.shared; r != nil {
		r.holds++
	}
	n.eng.scheduleLocked(d, nowAt+int64(delay))
}

// nowKey is the deadline key of the current instant: nanoseconds past
// base, from one integer reading of the clock, which vclock.Real takes
// from its monotonic clock, so keys order exactly as the deadlines do.
func (n *Network) nowKey() int64 { return n.clock.Nanos() - n.base }

// NIC is one node's attachment to the medium.
type NIC struct {
	net    *Network
	addr   mnet.Addr
	device string

	recv     func(Frame) // guarded by net.mu, as is detached
	detached bool
}

// Addr returns the NIC's node address.
func (c *NIC) Addr() mnet.Addr { return c.addr }

// Device returns the NIC's synthetic device name (e.g. "emu0").
func (c *NIC) Device() string { return c.device }

// SetReceiver installs the upcall invoked for each delivered frame.
// Deliveries run on the clock's timer context; under a virtual clock that
// is the goroutine driving the simulation. The payload is lent for the call
// (see Frame.Payload).
func (c *NIC) SetReceiver(fn func(Frame)) {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	c.recv = fn
}

// Send transmits payload to dst (unicast or mnet.Broadcast). The send is
// fire-and-forget, like a radio: absence of a link loses the frame.
func (c *NIC) Send(dst mnet.Addr, payload []byte) error {
	return c.net.send(c, dst, payload, "", nil, nil)
}

// SendTagged is Send with a message correlation ID attached to the frame
// and its trace spans; "" is equivalent to Send.
func (c *NIC) SendTagged(dst mnet.Addr, payload []byte, corr string) error {
	return c.net.send(c, dst, payload, corr, nil, nil)
}

// SendWithFeedback transmits a unicast frame and reports MAC-level delivery
// feedback (the 802.11 ACK analogue) through cb once the frame is delivered
// or known lost. Broadcast destinations receive no feedback (as in 802.11).
func (c *NIC) SendWithFeedback(dst mnet.Addr, payload []byte, cb func(delivered bool)) error {
	return c.net.send(c, dst, payload, "", cb, nil)
}

// SendWithFeedbackTagged is SendWithFeedback with a message correlation ID
// attached to the frame and its trace spans, and a verdict that carries
// its frame: fn is handed, by value, the frame as the medium carried it —
// the medium's copy of the payload, lent for the call like every
// Frame.Payload, even when the frame was lost — and whether it arrived.
// Because the verdict names its frame, a sender needs no closure per
// frame: one fn serves all of them.
func (c *NIC) SendWithFeedbackTagged(dst mnet.Addr, payload []byte, corr string, fn func(f Frame, delivered bool)) error {
	return c.net.send(c, dst, payload, corr, nil, fn)
}

// admitLocked is the medium's side of one frame's arrival: account for the
// frame, record its span, and return the receiver and the capture tap to
// hand it to. A verdict alone (c is nil) goes to neither, nor, silently,
// does a frame whose receiver detached in flight (its MAC verdict, which
// the epoch reports next, is still success: the ACK left the receiver
// before it crashed). Caller holds n.mu.
func (c *NIC) admitLocked(f *Frame) (recv func(Frame), tap func(Frame, mnet.Addr)) {
	if c == nil || c.detached {
		return nil, nil
	}
	n := c.net
	n.stats.RxFrames++
	n.stats.RxBytes += uint64(len(f.Payload))
	if f.Corrupted {
		n.stats.RxCorrupted++
	}
	if n.bus.Active() {
		n.bus.Record(n.clock.Now(), telemetry.Span{
			Node: c.addr.String(), Kind: telemetry.KindFrameRx,
			From: f.Src.String(), Corr: f.Corr, Bytes: len(f.Payload),
		})
	}
	if n.tap != nil && f.shared != nil {
		f.shared.tapped = true // the tap may keep the frame: bytes, record and slot
	}
	return c.recv, n.tap
}
