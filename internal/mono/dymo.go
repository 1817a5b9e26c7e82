package mono

import (
	"sync"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/vclock"
)

// DYMOConfig parameterises the monolithic DYMO.
type DYMOConfig struct {
	RouteLifetime time.Duration // default 5s
}

// The monolithic DYMO's discovery: an RREQ floods at most dymoHopLimit
// hops, and a discovery sends up to dymoRREQTries of them, waiting
// dymoRREQWait after the first and twice as long after each later one.
const (
	dymoHopLimit  = 10
	dymoRREQTries = 3
	dymoRREQWait  = time.Second
)

func (c *DYMOConfig) fill() {
	if c.RouteLifetime <= 0 {
		c.RouteLifetime = 5 * time.Second
	}
}

// dymoRoute is a monolithic routing entry.
type dymoRoute struct {
	next    mnet.Addr
	metric  int
	seq     uint16
	expires time.Time
}

// dymoPending tracks one discovery.
type dymoPending struct {
	tries int
	timer vclock.Timer
	done  []func(ok bool)
}

// DYMO is the monolithic reactive comparator (the DYMOUM analogue).
type DYMO struct {
	nic   *emunet.NIC
	clock vclock.Clock
	cfg   DYMOConfig

	mu      sync.Mutex
	routes  map[mnet.Addr]*dymoRoute
	pending map[mnet.Addr]*dymoPending
	dupes   map[[2]uint32]time.Time
	seq     uint16
	pktSeq  uint16
	running bool

	sweepTimer *vclock.Periodic
}

// NewDYMO builds a monolithic DYMO instance on the given NIC.
func NewDYMO(nic *emunet.NIC, clock vclock.Clock, cfg DYMOConfig) *DYMO {
	cfg.fill()
	return &DYMO{
		nic:     nic,
		clock:   clock,
		cfg:     cfg,
		routes:  make(map[mnet.Addr]*dymoRoute),
		pending: make(map[mnet.Addr]*dymoPending),
		dupes:   make(map[[2]uint32]time.Time),
	}
}

// Start wires the NIC.
func (d *DYMO) Start() {
	d.mu.Lock()
	if d.running {
		d.mu.Unlock()
		return
	}
	d.running = true
	d.mu.Unlock()
	d.nic.SetReceiver(d.receive)
	d.sweepTimer = vclock.NewPeriodic(d.clock, d.cfg.RouteLifetime/2, 0,
		int64(d.nic.Addr().Uint32()), d.sweep)
}

// Stop detaches from the NIC.
func (d *DYMO) Stop() {
	d.mu.Lock()
	if !d.running {
		d.mu.Unlock()
		return
	}
	d.running = false
	for _, p := range d.pending {
		if p.timer != nil {
			p.timer.Stop()
		}
	}
	d.pending = make(map[mnet.Addr]*dymoPending)
	d.mu.Unlock()
	d.nic.SetReceiver(nil)
	if d.sweepTimer != nil {
		d.sweepTimer.Stop()
	}
}

// Discover requests a route to dst; done (optional) fires with the
// outcome. This is the monolithic stand-in for the NO_ROUTE trigger.
func (d *DYMO) Discover(dst mnet.Addr, done func(ok bool)) {
	d.mu.Lock()
	if r, ok := d.routes[dst]; ok && r.expires.After(d.clock.Now()) {
		d.mu.Unlock()
		if done != nil {
			done(true)
		}
		return
	}
	if p, ok := d.pending[dst]; ok {
		if done != nil {
			p.done = append(p.done, done)
		}
		d.mu.Unlock()
		return
	}
	p := &dymoPending{}
	if done != nil {
		p.done = append(p.done, done)
	}
	d.pending[dst] = p
	d.mu.Unlock()
	d.sendRREQ(dst, 1)
}

func (d *DYMO) sendRREQ(dst mnet.Addr, attempt int) {
	d.mu.Lock()
	d.seq++
	seq := d.seq
	d.dupes[[2]uint32{d.nic.Addr().Uint32(), uint32(seq)}] = d.clock.Now()
	d.mu.Unlock()

	msg := &packetbb.Message{
		Type:       packetbb.MsgRREQ,
		Originator: d.nic.Addr(),
		SeqNum:     seq,
		HopLimit:   dymoHopLimit,
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{dst}}},
	}
	d.send(msg, mnet.Broadcast)

	wait := dymoRREQWait << (attempt - 1)
	timer := d.clock.AfterFunc(wait, func() { d.retry(dst, attempt) })
	d.mu.Lock()
	if p, ok := d.pending[dst]; ok {
		p.tries = attempt
		p.timer = timer
	} else {
		timer.Stop()
	}
	d.mu.Unlock()
}

func (d *DYMO) retry(dst mnet.Addr, attempt int) {
	d.mu.Lock()
	p, ok := d.pending[dst]
	if !ok || p.tries != attempt {
		d.mu.Unlock()
		return
	}
	if attempt >= dymoRREQTries {
		delete(d.pending, dst)
		callbacks := p.done
		d.mu.Unlock()
		for _, fn := range callbacks {
			fn(false)
		}
		return
	}
	d.mu.Unlock()
	d.sendRREQ(dst, attempt+1)
}

func (d *DYMO) send(msg *packetbb.Message, dst mnet.Addr) {
	d.mu.Lock()
	d.pktSeq++
	seq := d.pktSeq
	d.mu.Unlock()
	pkt := &packetbb.Packet{SeqNum: seq, HasSeqNum: true, Messages: []packetbb.Message{*msg}}
	wire, err := packetbb.EncodePacket(pkt)
	if err != nil {
		return
	}
	_ = d.nic.Send(dst, append([]byte{0x01}, wire...))
}

func (d *DYMO) receive(f emunet.Frame) {
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
		case packetbb.MsgRREQ:
			d.HandleRREQ(msg, f.Src)
		case packetbb.MsgRREP:
			d.HandleRREP(msg, f.Src)
		case packetbb.MsgRERR:
			d.handleRERR(msg, f.Src)
		}
	}
}

// learn applies the DYMO route-update rule inline.
func (d *DYMO) learn(node, via mnet.Addr, metric int, seq uint16) {
	if node == d.nic.Addr() {
		return
	}
	if metric < 1 {
		metric = 1
	}
	now := d.clock.Now()
	d.mu.Lock()
	cur, ok := d.routes[node]
	accept := !ok || !cur.expires.After(now)
	if !accept {
		accept = serialOlder(cur.seq, seq) || (cur.seq == seq && metric < cur.metric)
	}
	if accept {
		d.routes[node] = &dymoRoute{next: via, metric: metric, seq: seq, expires: now.Add(d.cfg.RouteLifetime)}
	}
	p, hadPending := d.pending[node]
	if accept && hadPending {
		if p.timer != nil {
			p.timer.Stop()
		}
		delete(d.pending, node)
	}
	d.mu.Unlock()
	if accept && hadPending {
		for _, fn := range p.done {
			fn(true)
		}
	}
}

// HandleRREQ processes one route request; exported for the Table 1
// micro-benchmark.
func (d *DYMO) HandleRREQ(msg *packetbb.Message, from mnet.Addr) {
	self := d.nic.Addr()
	if msg.Originator == self || len(msg.AddrBlocks) == 0 {
		return
	}
	target := msg.AddrBlocks[0].Addrs[0]
	d.learn(msg.Originator, from, int(msg.HopCount)+1, msg.SeqNum)

	key := [2]uint32{msg.Originator.Uint32(), uint32(msg.SeqNum)}
	now := d.clock.Now()
	d.mu.Lock()
	_, dup := d.dupes[key]
	d.dupes[key] = now
	d.mu.Unlock()
	if dup {
		return
	}
	if target == self {
		d.mu.Lock()
		d.seq++
		seq := d.seq
		d.mu.Unlock()
		rrep := &packetbb.Message{
			Type:       packetbb.MsgRREP,
			Originator: self,
			SeqNum:     seq,
			HopLimit:   dymoHopLimit,
			AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{msg.Originator}}},
		}
		d.send(rrep, from)
		return
	}
	if msg.HopLimit <= 1 {
		return
	}
	fwd := msg.Clone()
	fwd.HopLimit--
	fwd.HopCount++
	d.send(fwd, mnet.Broadcast)
}

// HandleRREP processes one route reply; exported for benchmarks.
func (d *DYMO) HandleRREP(msg *packetbb.Message, from mnet.Addr) {
	self := d.nic.Addr()
	if msg.Originator == self || len(msg.AddrBlocks) == 0 {
		return
	}
	reqOrig := msg.AddrBlocks[0].Addrs[0]
	d.learn(msg.Originator, from, int(msg.HopCount)+1, msg.SeqNum)
	if reqOrig == self {
		return
	}
	d.mu.Lock()
	r, ok := d.routes[reqOrig]
	now := d.clock.Now()
	valid := ok && r.expires.After(now)
	var next mnet.Addr
	if valid {
		next = r.next
	}
	d.mu.Unlock()
	if !valid || msg.HopLimit <= 1 {
		return
	}
	fwd := msg.Clone()
	fwd.HopLimit--
	fwd.HopCount++
	d.send(fwd, next)
}

func (d *DYMO) handleRERR(msg *packetbb.Message, from mnet.Addr) {
	if len(msg.AddrBlocks) == 0 {
		return
	}
	var still []mnet.Addr
	d.mu.Lock()
	for _, dead := range msg.AddrBlocks[0].Addrs {
		if r, ok := d.routes[dead]; ok && r.next == from {
			delete(d.routes, dead)
			still = append(still, dead)
		}
	}
	d.mu.Unlock()
	if len(still) > 0 && msg.HopLimit > 1 {
		fwd := msg.Clone()
		fwd.HopLimit--
		fwd.AddrBlocks[0] = packetbb.AddrBlock{Addrs: still}
		d.send(fwd, mnet.Broadcast)
	}
}

func (d *DYMO) sweep() {
	now := d.clock.Now()
	d.mu.Lock()
	for a, r := range d.routes {
		if !r.expires.After(now) {
			delete(d.routes, a)
		}
	}
	for k, t := range d.dupes {
		if now.Sub(t) > 30*time.Second {
			delete(d.dupes, k)
		}
	}
	d.mu.Unlock()
}

// Lookup resolves a destination.
func (d *DYMO) Lookup(dst mnet.Addr) (Hop, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.routes[dst]
	if !ok || !r.expires.After(d.clock.Now()) {
		return Hop{}, false
	}
	return Hop{NextHop: r.next, Metric: r.metric}, true
}
