// Package mono contains monolithic, framework-free implementations of OLSR
// and DYMO — the comparators of the paper's evaluation (§6), standing in
// for Unik-olsrd 0.5 and DYMOUM 0.3. They speak the same PacketBB wire
// format over the same emulated medium as the MANETKit compositions, but
// are built as single self-contained structs: no component kernel, no
// event framework, no reusable substrates. The performance and footprint
// deltas between these and the MANETKit versions are exactly the framework
// overhead Tables 1 and 2 measure.
package mono

import (
	"sort"
	"sync"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/vclock"
)

// Hop is a monolithic routing-table entry.
type Hop struct {
	NextHop mnet.Addr
	Metric  int
}

// OLSRConfig parameterises the monolithic OLSR.
type OLSRConfig struct {
	HelloInterval time.Duration // default 2s
	TCInterval    time.Duration // default 5s
}

// olsrJitter is the fraction of an interval by which HELLO and TC
// emissions are jittered.
const olsrJitter = 0.1

func (c *OLSRConfig) fill() {
	if c.HelloInterval <= 0 {
		c.HelloInterval = 2 * time.Second
	}
	if c.TCInterval <= 0 {
		c.TCInterval = 5 * time.Second
	}
}

// olsrNeighbor is a monolithic neighbour record.
type olsrNeighbor struct {
	sym       bool
	lastHeard time.Time
	twoHop    []mnet.Addr
}

// seenANSN is the freshest ANSN heard from an originator. Like the topology
// tuples it stands for (RFC 3626 §9.5 keeps T_seq in the tuple), it is
// forgotten once the validity of the last accepted TC has passed.
type seenANSN struct {
	ansn  uint16
	until time.Time
}

// OLSR is the monolithic OLSR node: one struct, one lock, inline handlers.
type OLSR struct {
	nic   *emunet.NIC
	clock vclock.Clock
	cfg   OLSRConfig

	mu        sync.Mutex
	neighbors map[mnet.Addr]*olsrNeighbor
	selected  map[mnet.Addr]bool
	selectors map[mnet.Addr]bool
	topo      map[[2]mnet.Addr]time.Time
	ansnSeen  map[mnet.Addr]seenANSN
	routes    map[mnet.Addr]Hop
	dupes     map[[2]uint32]time.Time // {origU32, seq}
	ansn      uint16
	seq       uint16
	pktSeq    uint16
	running   bool

	helloTimer *vclock.Periodic
	tcTimer    *vclock.Periodic
	sweepTimer *vclock.Periodic
}

// NewOLSR builds a monolithic OLSR instance on the given NIC.
func NewOLSR(nic *emunet.NIC, clock vclock.Clock, cfg OLSRConfig) *OLSR {
	cfg.fill()
	return &OLSR{
		nic:       nic,
		clock:     clock,
		cfg:       cfg,
		neighbors: make(map[mnet.Addr]*olsrNeighbor),
		selected:  make(map[mnet.Addr]bool),
		selectors: make(map[mnet.Addr]bool),
		topo:      make(map[[2]mnet.Addr]time.Time),
		ansnSeen:  make(map[mnet.Addr]seenANSN),
		routes:    make(map[mnet.Addr]Hop),
		dupes:     make(map[[2]uint32]time.Time),
	}
}

// Start wires the NIC and begins beaconing.
func (o *OLSR) Start() {
	o.mu.Lock()
	if o.running {
		o.mu.Unlock()
		return
	}
	o.running = true
	o.mu.Unlock()
	o.nic.SetReceiver(o.receive)
	seed := int64(o.nic.Addr().Uint32())
	// Beacon immediately on startup, like a real daemon, then periodically.
	o.clock.AfterFunc(0, func() {
		o.mu.Lock()
		running := o.running
		o.mu.Unlock()
		if running {
			o.sendHello()
		}
	})
	o.helloTimer = vclock.NewPeriodic(o.clock, o.cfg.HelloInterval, olsrJitter, seed, o.sendHello)
	o.tcTimer = vclock.NewPeriodic(o.clock, o.cfg.TCInterval, olsrJitter, seed+1, o.sendTC)
	o.sweepTimer = vclock.NewPeriodic(o.clock, o.cfg.HelloInterval/2, 0, seed+2, o.sweep)
}

// Stop halts beaconing and detaches from the NIC.
func (o *OLSR) Stop() {
	o.mu.Lock()
	if !o.running {
		o.mu.Unlock()
		return
	}
	o.running = false
	o.mu.Unlock()
	o.nic.SetReceiver(nil)
	for _, t := range []*vclock.Periodic{o.helloTimer, o.tcTimer, o.sweepTimer} {
		if t != nil {
			t.Stop()
		}
	}
}

func (o *OLSR) receive(f emunet.Frame) {
	if len(f.Payload) == 0 || f.Payload[0] != 0x01 {
		return
	}
	pkt, err := packetbb.DecodePacket(f.Payload[1:])
	if err != nil {
		return
	}
	for i := range pkt.Messages {
		msg := &pkt.Messages[i]
		switch msg.Type {
		case packetbb.MsgHello:
			o.HandleHello(msg, f.Src)
		case packetbb.MsgTC:
			o.HandleTC(msg, f.Src)
		}
	}
}

func (o *OLSR) send(msg *packetbb.Message) {
	o.mu.Lock()
	o.pktSeq++
	seq := o.pktSeq
	o.mu.Unlock()
	pkt := &packetbb.Packet{SeqNum: seq, HasSeqNum: true, Messages: []packetbb.Message{*msg}}
	wire, err := packetbb.EncodePacket(pkt)
	if err != nil {
		return
	}
	_ = o.nic.Send(mnet.Broadcast, append([]byte{0x01}, wire...))
}

func (o *OLSR) sendHello() {
	o.send(o.buildHello())
}

func (o *OLSR) buildHello() *packetbb.Message {
	o.mu.Lock()
	msg := &packetbb.Message{
		Type:       packetbb.MsgHello,
		Originator: o.nic.Addr(),
		HopLimit:   1,
		TLVs:       []packetbb.TLV{{Type: packetbb.TLVWillingness, Value: packetbb.U8(3)}},
	}
	if len(o.neighbors) > 0 {
		blk := packetbb.AddrBlock{}
		addrs := make([]mnet.Addr, 0, len(o.neighbors))
		for a := range o.neighbors {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
		for _, a := range addrs {
			blk.Addrs = append(blk.Addrs, a)
		}
		for i, a := range addrs {
			st := packetbb.LinkStatusHeard
			if o.neighbors[a].sym {
				st = packetbb.LinkStatusSymmetric
			}
			blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{
				Type: packetbb.ATLVLinkStatus, IndexStart: uint8(i), IndexStop: uint8(i),
				Value: packetbb.U8(st),
			})
			if o.selected[a] {
				blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{
					Type: packetbb.ATLVMPR, IndexStart: uint8(i), IndexStop: uint8(i),
				})
			}
		}
		msg.AddrBlocks = append(msg.AddrBlocks, blk)
	}
	o.mu.Unlock()
	return msg
}

// HandleHello processes one HELLO; exported for the micro-benchmark.
func (o *OLSR) HandleHello(msg *packetbb.Message, from mnet.Addr) {
	self := o.nic.Addr()
	src := msg.Originator
	if src.IsUnspecified() {
		src = from
	}
	listsUs := false
	selectedUs := false
	var syms []mnet.Addr
	for bi := range msg.AddrBlocks {
		blk := &msg.AddrBlocks[bi]
		for i, a := range blk.Addrs {
			if a == self {
				listsUs = true
				if _, ok := blk.AddrTLVFor(packetbb.ATLVMPR, i); ok {
					selectedUs = true
				}
				continue
			}
			if tlv, ok := blk.AddrTLVFor(packetbb.ATLVLinkStatus, i); ok {
				if v, err := packetbb.ParseU8(tlv.Value); err == nil && v == packetbb.LinkStatusSymmetric {
					syms = append(syms, a)
				}
			}
		}
	}
	o.mu.Lock()
	nb := o.neighbors[src]
	if nb == nil {
		nb = &olsrNeighbor{}
		o.neighbors[src] = nb
	}
	nb.sym = listsUs
	nb.lastHeard = o.clock.Now()
	nb.twoHop = append(nb.twoHop[:0], syms...)
	if selectedUs {
		o.selectors[src] = true
	} else {
		delete(o.selectors, src)
	}
	o.selectMPRsLocked()
	o.computeRoutesLocked()
	o.mu.Unlock()
}

// HandleTC processes one topology-control message; exported for the
// micro-benchmark (Table 1 "Time to Process Message").
func (o *OLSR) HandleTC(msg *packetbb.Message, from mnet.Addr) {
	self := o.nic.Addr()
	if msg.Originator == self {
		return
	}
	ansn := uint16(0)
	if tlv, ok := msg.FindTLV(packetbb.TLVANSN); ok {
		if v, err := packetbb.ParseU16(tlv.Value); err == nil {
			ansn = v
		}
	}
	now := o.clock.Now()
	o.mu.Lock()
	if nb := o.neighbors[from]; nb == nil || !nb.sym {
		o.mu.Unlock()
		return
	}
	prev, known := o.ansnSeen[msg.Originator]
	if known && serialOlder(ansn, prev.ansn) {
		o.mu.Unlock()
		return
	}
	if !known || serialOlder(prev.ansn, ansn) {
		for e := range o.topo {
			if e[0] == msg.Originator {
				delete(o.topo, e)
			}
		}
	}
	expiry := now.Add(3 * o.cfg.TCInterval)
	o.ansnSeen[msg.Originator] = seenANSN{ansn: ansn, until: expiry}
	for bi := range msg.AddrBlocks {
		for _, a := range msg.AddrBlocks[bi].Addrs {
			if a != msg.Originator {
				o.topo[[2]mnet.Addr{msg.Originator, a}] = expiry
			}
		}
	}
	o.computeRoutesLocked()

	// MPR forwarding.
	key := [2]uint32{msg.Originator.Uint32(), uint32(msg.SeqNum)}
	_, dup := o.dupes[key]
	o.dupes[key] = now
	forward := !dup && o.selectors[from] && msg.HopLimit > 1
	o.mu.Unlock()

	if forward {
		fwd := msg.Clone()
		fwd.HopLimit--
		fwd.HopCount++
		o.send(fwd)
	}
}

func (o *OLSR) sendTC() {
	o.mu.Lock()
	if len(o.selectors) == 0 {
		o.mu.Unlock()
		return
	}
	o.seq++
	sel := make([]mnet.Addr, 0, len(o.selectors))
	for a := range o.selectors {
		sel = append(sel, a)
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].Less(sel[j]) })
	msg := &packetbb.Message{
		Type:       packetbb.MsgTC,
		Originator: o.nic.Addr(),
		HopLimit:   255,
		SeqNum:     o.seq,
		TLVs:       []packetbb.TLV{{Type: packetbb.TLVANSN, Value: packetbb.U16(o.ansn)}},
		AddrBlocks: []packetbb.AddrBlock{{Addrs: sel}},
	}
	o.dupes[[2]uint32{o.nic.Addr().Uint32(), uint32(o.seq)}] = o.clock.Now()
	o.mu.Unlock()
	o.send(msg)
}

func (o *OLSR) sweep() {
	now := o.clock.Now()
	hold := time.Duration(3.5 * float64(o.cfg.HelloInterval))
	o.mu.Lock()
	for a, nb := range o.neighbors {
		if now.Sub(nb.lastHeard) > hold {
			delete(o.neighbors, a)
			delete(o.selectors, a)
		}
	}
	for e, exp := range o.topo {
		if !exp.After(now) {
			delete(o.topo, e)
		}
	}
	for a, seen := range o.ansnSeen {
		if !seen.until.After(now) {
			delete(o.ansnSeen, a)
		}
	}
	for k, t := range o.dupes {
		if now.Sub(t) > 30*time.Second {
			delete(o.dupes, k)
		}
	}
	o.selectMPRsLocked()
	o.computeRoutesLocked()
	o.mu.Unlock()
}

// selectMPRsLocked runs inline greedy MPR selection.
func (o *OLSR) selectMPRsLocked() {
	self := o.nic.Addr()
	twoHop := make(map[mnet.Addr][]mnet.Addr)
	for nbAddr, nb := range o.neighbors {
		if !nb.sym {
			continue
		}
		for _, th := range nb.twoHop {
			if th == self {
				continue
			}
			if n2, ok := o.neighbors[th]; ok && n2 != nil {
				continue // 1-hop already
			}
			twoHop[th] = append(twoHop[th], nbAddr)
		}
	}
	prevLen := len(o.selected)
	selected := make(map[mnet.Addr]bool)
	uncovered := make(map[mnet.Addr]bool, len(twoHop))
	for d := range twoHop {
		uncovered[d] = true
	}
	for len(uncovered) > 0 {
		var best mnet.Addr
		bestCov := 0
		for nbAddr, nb := range o.neighbors {
			if !nb.sym || selected[nbAddr] {
				continue
			}
			cov := 0
			for d := range uncovered {
				for _, v := range twoHop[d] {
					if v == nbAddr {
						cov++
						break
					}
				}
			}
			if cov > bestCov || (cov == bestCov && cov > 0 && nbAddr.Less(best)) {
				best, bestCov = nbAddr, cov
			}
		}
		if bestCov == 0 {
			break
		}
		selected[best] = true
		for d := range uncovered {
			for _, v := range twoHop[d] {
				if v == best {
					delete(uncovered, d)
					break
				}
			}
		}
	}
	o.selected = selected
	if len(selected) != prevLen {
		o.ansn++
	}
}

// computeRoutesLocked rebuilds the routing table. Among equal-cost next
// hops it takes the smallest, as the kit does, so the table is a function
// of the topology and not of map order: a 2-hop destination goes through
// its smallest via, and relaxation replaces a route of equal metric whose
// next hop is larger.
func (o *OLSR) computeRoutesLocked() {
	routes := make(map[mnet.Addr]Hop, len(o.routes))
	for a, nb := range o.neighbors {
		if nb.sym {
			routes[a] = Hop{NextHop: a, Metric: 1}
		}
	}
	for a, nb := range o.neighbors {
		if !nb.sym {
			continue
		}
		for _, th := range nb.twoHop {
			if th == o.nic.Addr() {
				continue
			}
			if cur, ok := routes[th]; !ok || cur.Metric == 2 && a.Less(cur.NextHop) {
				routes[th] = Hop{NextHop: a, Metric: 2}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for e := range o.topo {
			last, dest := e[0], e[1]
			if dest == o.nic.Addr() {
				continue
			}
			le, ok := routes[last]
			if !ok {
				continue
			}
			if cur, ok := routes[dest]; !ok || le.Metric+1 < cur.Metric ||
				le.Metric+1 == cur.Metric && le.NextHop.Less(cur.NextHop) {
				routes[dest] = Hop{NextHop: le.NextHop, Metric: le.Metric + 1}
				changed = true
			}
		}
	}
	o.routes = routes
}

// Lookup resolves a destination.
func (o *OLSR) Lookup(dst mnet.Addr) (Hop, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.routes[dst]
	return h, ok
}

// RouteCount returns the number of reachable destinations.
func (o *OLSR) RouteCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.routes)
}

// serialOlder reports a older than b under 16-bit serial arithmetic.
func serialOlder(a, b uint16) bool {
	return a != b && ((a < b && b-a < 0x8000) || (a > b && a-b > 0x8000))
}
