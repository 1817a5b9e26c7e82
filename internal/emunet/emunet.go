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
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// Frame is one link-layer transmission as seen by a receiver.
type Frame struct {
	Src mnet.Addr
	Dst mnet.Addr // mnet.Broadcast for broadcast frames
	// Payload is the medium's private copy of the transmitted bytes, made
	// once per transmission and aliased by every receiver of a broadcast
	// (and by whatever Decoded returns). It is read-only for everybody —
	// receivers, taps, decoders; whoever needs different bytes copies first,
	// as fault injection does.
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

	// shared is the per-transmission decode slot (see Decoded): set on the
	// byte-identical frames of one broadcast fan-out, nil everywhere else.
	shared *decodeSlot
}

// decodeSlot memoises one decode of a transmission's payload for all the
// receivers that were handed the very same bytes. It is payload-agnostic:
// the medium never looks inside.
type decodeSlot struct {
	once sync.Once
	val  any
	err  error
}

// Decoded returns decode(f.Payload), computed once per transmission: the
// receivers of one broadcast share the buffer, so the first of them to ask
// runs decode and the rest — possibly on other goroutines, in which case
// they wait for it — get the same value and the same error. All callers
// must pass the same pure function, and the result is as read-only as the
// payload it may alias. Frames that are not byte-identical to their
// siblings — unicast, corrupted or duplicated by fault injection, built by
// hand — carry no slot and decode privately.
func (f Frame) Decoded(decode func(payload []byte) (any, error)) (any, error) {
	s := f.shared
	if s == nil {
		return decode(f.Payload)
	}
	s.once.Do(func() { s.val, s.err = decode(f.Payload) })
	return s.val, s.err
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

type linkKey struct{ from, to mnet.Addr }

// neighborLink is one entry of the adjacency index: a directed link with
// its receiving NIC resolved, kept sorted by destination address. Broadcast
// fan-out iterates a sender's entries directly — the deterministic receiver
// order the first medium got by scanning and sorting the whole O(E) link
// matrix on every send.
type neighborLink struct {
	to  mnet.Addr
	nic *NIC
	q   Quality
}

// Network is the emulated broadcast medium plus connectivity matrix.
type Network struct {
	clock vclock.Clock

	mu    sync.Mutex
	rng   *rand.Rand
	nodes map[mnet.Addr]*NIC
	links map[linkKey]Quality
	adj   map[mnet.Addr][]neighborLink
	stats Stats
	eng   *engine                // nil on the reference path (NewReference)
	tap   func(Frame, mnet.Addr) // (frame, receiver); nil when unset
	txTap func(Frame)            // transmission-side tap; nil when unset
	inj   *Injector              // nil until a FaultPlan is applied
	obs   *netObs                // nil when observability is disabled

	// targets is send's scratch list of receivers, reused across sends: it
	// is only touched under mu, and nothing send calls while holding mu
	// sends again.
	targets []neighborLink
}

// New creates an empty medium on the given clock, running the discrete-
// event engine. seed drives the loss process, making lossy runs
// reproducible.
func New(clock vclock.Clock, seed int64) *Network {
	n := newNetwork(clock, seed)
	n.eng = &engine{net: n, base: clock.Now()}
	return n
}

// NewReference creates a medium on the original timer-per-delivery path: one
// vclock timer and one closure per frame in flight, no engine. It is the
// oracle the differential tests hold the event core to on identical seeds,
// and is for tests only — it is quadratic where New is not.
func NewReference(clock vclock.Clock, seed int64) *Network {
	return newNetwork(clock, seed)
}

func newNetwork(clock vclock.Clock, seed int64) *Network {
	return &Network{
		clock: clock,
		rng:   rand.New(rand.NewSource(seed)),
		nodes: make(map[mnet.Addr]*NIC),
		links: make(map[linkKey]Quality),
		adj:   make(map[mnet.Addr][]neighborLink),
	}
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
	nic.mu.Lock()
	nic.detached = false
	nic.mu.Unlock()
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
	nic.mu.Lock()
	nic.detached = true
	nic.mu.Unlock()
	delete(n.nodes, addr)
	for k := range n.links {
		if k.from == addr || k.to == addr {
			delete(n.links, k)
			if k.to == addr {
				n.removeAdjLocked(k.from, addr)
			}
		}
	}
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
	if from == to {
		return ErrSelfLink
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[from]; !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, from)
	}
	toNIC, ok := n.nodes[to]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, to)
	}
	n.links[linkKey{from, to}] = q
	n.setAdjLocked(from, to, toNIC, q)
	return nil
}

// CutLink removes both directions between a and b — the MAC-filter move that
// models nodes drifting out of range.
func (n *Network) CutLink(a, b mnet.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.links, linkKey{a, b})
	delete(n.links, linkKey{b, a})
	n.removeAdjLocked(a, b)
	n.removeAdjLocked(b, a)
}

// setAdjLocked inserts or updates the from→to adjacency entry, keeping the
// slice sorted by destination. Caller holds n.mu.
func (n *Network) setAdjLocked(from, to mnet.Addr, nic *NIC, q Quality) {
	nl := n.adj[from]
	i := sort.Search(len(nl), func(i int) bool { return !nl[i].to.Less(to) })
	if i < len(nl) && nl[i].to == to {
		nl[i].nic, nl[i].q = nic, q
		return
	}
	nl = append(nl, neighborLink{})
	copy(nl[i+1:], nl[i:])
	nl[i] = neighborLink{to: to, nic: nic, q: q}
	n.adj[from] = nl
}

// removeAdjLocked deletes the from→to adjacency entry if present,
// preserving order. Caller holds n.mu.
func (n *Network) removeAdjLocked(from, to mnet.Addr) {
	nl := n.adj[from]
	i := sort.Search(len(nl), func(i int) bool { return !nl[i].to.Less(to) })
	if i >= len(nl) || nl[i].to != to {
		return
	}
	copy(nl[i:], nl[i+1:])
	nl[len(nl)-1] = neighborLink{}
	n.adj[from] = nl[:len(nl)-1]
}

// Linked reports whether from can currently reach to in one hop.
func (n *Network) Linked(from, to mnet.Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.links[linkKey{from, to}]
	return ok
}

// LinkQuality returns the quality of the from→to link.
func (n *Network) LinkQuality(from, to mnet.Addr) (Quality, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	q, ok := n.links[linkKey{from, to}]
	return q, ok
}

// Neighbors lists the nodes from can reach in one hop, sorted. It reads the
// adjacency index; the links matrix is the ground truth it must agree with
// (the adjacency property test checks exactly that).
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
// false on the reference path, which has no epochs.
func (n *Network) EngineStats() (EngineStats, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.eng == nil {
		return EngineStats{}, false
	}
	return n.eng.stats, true
}

// SetTap installs a packet-capture hook (the libpcap analogue): fn observes
// every delivered frame together with its receiver. Pass nil to remove.
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

// send performs the medium's half of a transmission from src.
func (n *Network) send(src mnet.Addr, dst mnet.Addr, payload []byte, device, corr string) {
	n.mu.Lock()
	now := n.clock.Now()
	txTap := n.txTap
	n.stats.TxFrames++
	n.stats.TxBytes += uint64(len(payload))
	if n.obs != nil && n.obs.bus.Active() {
		n.obs.bus.Record(now, telemetry.Span{
			Node: src.String(), Kind: telemetry.KindFrameTx,
			To: traceTo(dst), Corr: corr, Bytes: len(payload),
		})
	}

	// targets are the receivers that survive the loss process, in adjacency
	// order (sorted by destination), which fixes the delivery order under
	// equal delays. Loss draws (n.rng) and fault draws (the injector's own
	// generator) are independent sequences, so every loss can be drawn here,
	// before any fault, and the survivor count is known up front.
	targets := n.targets[:0]
	lost := func(nl neighborLink) bool {
		if nl.q.Loss <= 0 || n.rng.Float64() >= nl.q.Loss {
			return false
		}
		n.stats.DroppedLoss++
		if n.obs != nil && n.obs.bus.Active() {
			n.obs.bus.Record(now, telemetry.Span{
				Node: src.String(), Kind: telemetry.KindFrameDrop,
				Event: "loss", To: nl.to.String(), Corr: corr, Bytes: len(payload),
			})
		}
		return true
	}
	if dst.IsBroadcast() {
		for _, nl := range n.adj[src] {
			if !lost(nl) {
				targets = append(targets, nl)
			}
		}
	} else {
		q, ok := n.links[linkKey{src, dst}]
		nic, attached := n.nodes[dst]
		if !ok || !attached {
			n.stats.DroppedNoLink++
			if n.obs != nil && n.obs.bus.Active() {
				n.obs.bus.Record(now, telemetry.Span{
					Node: src.String(), Kind: telemetry.KindFrameDrop,
					Event: "no-link", To: dst.String(), Corr: corr, Bytes: len(payload),
				})
			}
			n.mu.Unlock()
			if txTap != nil {
				txTap(Frame{Src: src, Dst: dst, Payload: append([]byte(nil), payload...), Device: device, Corr: corr})
			}
			return
		}
		if nl := (neighborLink{to: dst, nic: nic, q: q}); !lost(nl) {
			targets = append(targets, nl)
		}
	}

	// Copy the payload once; receivers and the tap must not alias the
	// sender's buffer, which is the sender's again when this call returns.
	// Two or more receivers of the same bytes also share one decode of them.
	buf := append([]byte(nil), payload...)
	var shared *decodeSlot
	if len(targets) >= 2 {
		shared = &decodeSlot{}
	}
	type pending struct {
		nic   *NIC
		frame Frame
		delay time.Duration
	}
	var due []pending // reference path only: its timers are armed after unlock
	var nowAt int64   // engine path only: now as a deadline key
	if n.eng == nil {
		due = make([]pending, 0, len(targets))
	} else {
		nowAt = n.eng.key(now)
	}
	schedule := func(nic *NIC, frame Frame, delay time.Duration) {
		if n.obs != nil && n.obs.linkDelay != nil {
			n.obs.linkDelay.Observe(delay)
		}
		if n.eng == nil {
			due = append(due, pending{nic, frame, delay})
			return
		}
		dl := n.eng.newDeliveryLocked()
		dl.nic = nic
		dl.frame = frame
		n.eng.scheduleLocked(dl, nowAt+int64(delay))
	}
	for _, d := range targets {
		frame := Frame{Src: src, Dst: dst, Payload: buf, Device: device, RSSI: d.q.SignalDBm, Corr: corr, shared: shared}
		delay := d.q.Delay
		if n.inj != nil {
			for _, e := range n.inj.injectLocked(n, d.to, &frame, &delay) {
				schedule(d.nic, e.frame, e.delay)
			}
		}
		schedule(d.nic, frame, delay)
	}
	clear(targets) // drop the NIC pointers, keep the capacity
	n.targets = targets[:0]
	n.mu.Unlock()

	if txTap != nil {
		txTap(Frame{Src: src, Dst: dst, Payload: buf, Device: device, Corr: corr})
	}
	for _, d := range due {
		d := d
		n.clock.AfterFunc(d.delay, func() { d.nic.deliver(d.frame, n.clock.Now()) })
	}
}

// NIC is one node's attachment to the medium.
type NIC struct {
	net    *Network
	addr   mnet.Addr
	device string

	mu       sync.Mutex
	recv     func(Frame)
	detached bool
}

// Addr returns the NIC's node address.
func (c *NIC) Addr() mnet.Addr { return c.addr }

// Device returns the NIC's synthetic device name (e.g. "emu0").
func (c *NIC) Device() string { return c.device }

// SetReceiver installs the upcall invoked for each delivered frame.
// Deliveries run on the clock's timer context; under a virtual clock that
// is the goroutine driving the simulation.
func (c *NIC) SetReceiver(fn func(Frame)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recv = fn
}

// Send transmits payload to dst (unicast or mnet.Broadcast). The send is
// fire-and-forget, like a radio: absence of a link loses the frame.
func (c *NIC) Send(dst mnet.Addr, payload []byte) error {
	return c.SendTagged(dst, payload, "")
}

// SendTagged is Send with a message correlation ID attached to the frame
// and its trace spans; "" is equivalent to Send.
func (c *NIC) SendTagged(dst mnet.Addr, payload []byte, corr string) error {
	c.mu.Lock()
	if c.detached {
		c.mu.Unlock()
		return ErrDetached
	}
	c.mu.Unlock()
	c.net.send(c.addr, dst, payload, c.device, corr)
	return nil
}

// SendWithFeedback transmits a unicast frame and reports MAC-level delivery
// feedback (the 802.11 ACK analogue) through cb once the frame is delivered
// or known lost. Broadcast destinations receive no feedback (as in 802.11).
func (c *NIC) SendWithFeedback(dst mnet.Addr, payload []byte, cb func(delivered bool)) error {
	return c.sendWithFeedback(dst, payload, "", cb, nil)
}

// SendWithFeedbackTagged is SendWithFeedback with a message correlation ID
// attached to the frame and its trace spans, and a verdict that carries
// its frame: fn is handed, by value, the frame as the medium carried it —
// the medium's copy of the payload, read-only like every Frame.Payload,
// even when the frame was lost — and whether it arrived. Because the
// verdict names its frame, a sender needs no closure per frame: one fn
// serves all of them.
func (c *NIC) SendWithFeedbackTagged(dst mnet.Addr, payload []byte, corr string, fn func(f Frame, delivered bool)) error {
	return c.sendWithFeedback(dst, payload, corr, nil, fn)
}

// sendWithFeedback sends one frame whose verdict goes to cb or to fn.
func (c *NIC) sendWithFeedback(dst mnet.Addr, payload []byte, corr string, cb func(bool), fn func(Frame, bool)) error {
	if dst.IsBroadcast() {
		return c.SendTagged(dst, payload, corr)
	}
	c.mu.Lock()
	if c.detached {
		c.mu.Unlock()
		return ErrDetached
	}
	c.mu.Unlock()

	n := c.net
	n.mu.Lock()
	now := n.clock.Now()
	txTap := n.txTap
	n.stats.TxFrames++
	n.stats.TxBytes += uint64(len(payload))
	if n.obs != nil && n.obs.bus.Active() {
		n.obs.bus.Record(now, telemetry.Span{
			Node: c.addr.String(), Kind: telemetry.KindFrameTx,
			To: dst.String(), Corr: corr, Bytes: len(payload),
		})
	}
	q, linked := n.links[linkKey{c.addr, dst}]
	nic, attached := n.nodes[dst]
	lost := false
	if !linked || !attached {
		n.stats.DroppedNoLink++
	} else if q.Loss > 0 && n.rng.Float64() < q.Loss {
		n.stats.DroppedLoss++
		lost = true
	}
	if n.obs != nil && n.obs.bus.Active() && (!linked || !attached || lost) {
		reason := "no-link"
		if lost {
			reason = "loss"
		}
		n.obs.bus.Record(now, telemetry.Span{
			Node: c.addr.String(), Kind: telemetry.KindFrameDrop,
			Event: reason, To: dst.String(), Corr: corr, Bytes: len(payload),
		})
	}
	// The medium's private copy: the receiver must not alias the sender's
	// buffer, and neither may the tap, so payload never outlives this call.
	delivered := linked && attached && !lost
	var buf []byte
	if delivered || txTap != nil || fn != nil {
		buf = append([]byte(nil), payload...) // the medium's one copy: the frame outlives the send
	}
	frame := Frame{Src: c.addr, Dst: dst, Payload: buf, Device: c.device, RSSI: q.SignalDBm, Corr: corr}
	delay := q.Delay + 2*time.Millisecond // MAC retry window before a failure is reported
	if delivered {
		delay = q.Delay
		// Corruption (only — duplication and reordering are suppressed by
		// the 802.11 ACK exchange this path models) may still mangle the
		// frame in flight; the tap sees it as offered.
		if n.inj != nil {
			n.inj.corruptOnlyLocked(n, dst, &frame)
		}
		if n.obs != nil && n.obs.linkDelay != nil {
			n.obs.linkDelay.Observe(q.Delay)
		}
	}
	if n.eng != nil {
		dl := n.eng.newDeliveryLocked()
		dl.cb, dl.fn, dl.frame = cb, fn, frame
		if delivered {
			dl.nic = nic
		}
		n.eng.scheduleLocked(dl, n.eng.key(now)+int64(delay))
	}
	n.mu.Unlock()

	if txTap != nil {
		txTap(Frame{Src: c.addr, Dst: dst, Payload: buf, Device: c.device, Corr: corr})
	}
	if n.eng == nil {
		fr := frame // captured by value, so frame itself stays on the stack
		n.clock.AfterFunc(delay, func() {
			if delivered {
				nic.deliver(fr, n.clock.Now())
			}
			if fn != nil {
				fn(fr, delivered)
			} else {
				cb(delivered)
			}
		})
	}
	return nil
}

// deliver is one delivery, start to finish: account for the frame, record
// its span at now, show it to the capture tap and hand it to the receiver.
// Both paths end here — an epoch calls it for each frame of its batch, the
// reference path from each frame's own timer. A frame whose receiver
// detached in flight is dropped silently (its MAC feedback, which the
// caller delivers, still reports success: the ACK left the receiver before
// it crashed).
func (c *NIC) deliver(f Frame, now time.Time) {
	c.mu.Lock()
	if c.detached {
		c.mu.Unlock()
		return
	}
	recv := c.recv
	c.mu.Unlock()

	n := c.net
	n.mu.Lock()
	n.stats.RxFrames++
	n.stats.RxBytes += uint64(len(f.Payload))
	if f.Corrupted {
		n.stats.RxCorrupted++
	}
	if n.obs != nil && n.obs.bus.Active() {
		n.obs.bus.Record(now, telemetry.Span{
			Node: c.addr.String(), Kind: telemetry.KindFrameRx,
			From: f.Src.String(), Corr: f.Corr, Bytes: len(f.Payload),
		})
	}
	tap := n.tap
	n.mu.Unlock()

	if tap != nil {
		tap(f, c.addr)
	}
	if recv != nil {
		recv(f)
	}
}
