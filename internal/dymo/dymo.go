// Package dymo implements the DYMO (Dynamic MANET On-demand) reactive
// routing protocol as a MANETKit composition (§5.2, Fig 6): a DYMO
// ManetProtocol atop the System CF, using the Neighbour Detection CF for
// link-break notification and the System CF's NetLink packet filter for
// its data-plane triggers (NO_ROUTE, ROUTE_UPDATE, SEND_ROUTE_ERR).
//
// The package also provides the paper's two DYMO variants: optimised
// flooding (RREQ dissemination through a shared MPR CF instead of blind
// re-broadcast) and multipath DYMO (link-disjoint path accumulation in a
// single discovery, per Galvez & Ruiz), both applied by fine-grained
// runtime reconfiguration.
package dymo

import (
	"sync"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/reactive"
	"manetkit/internal/route"
	"manetkit/internal/vclock"
)

// UnitName is the DYMO CF's default unit name.
const UnitName = "dymo"

// Config parameterises the DYMO CF.
type Config struct {
	// RouteLifetime is the validity added to used/learned routes
	// (default 5s).
	RouteLifetime time.Duration
	// RREQWait is the reply wait before a discovery retry (default 1s;
	// doubled per retry).
	RREQWait time.Duration
	// RREQTries bounds discovery attempts (default 3).
	RREQTries int
	// HopLimit caps control-message propagation (default 10).
	HopLimit uint8
	// AccumulatePaths enables DYMO path accumulation: RE messages gather
	// intermediate addresses so every node on the path learns routes to
	// all of them (default on, as in the DYMO draft).
	AccumulatePaths bool
	// FIB, when non-nil, receives the protocol's routes.
	FIB *route.FIB
	// Device names the FIB device for installed routes.
	Device string
	// Clock drives route lifetimes before deployment (defaults to real).
	Clock vclock.Clock
}

func (c *Config) fill() {
	if c.RouteLifetime <= 0 {
		c.RouteLifetime = 5 * time.Second
	}
	if c.RREQWait <= 0 {
		c.RREQWait = time.Second
	}
	if c.RREQTries <= 0 {
		c.RREQTries = 3
	}
	if c.HopLimit == 0 {
		c.HopLimit = 10
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
}

// Stats counts DYMO activity (used by the evaluation harness).
type Stats struct {
	Discoveries  uint64 // route discoveries initiated
	Retries      uint64
	GiveUps      uint64
	RREQForwards uint64
	RREPSent     uint64
	RERRSent     uint64
	Unsupported  uint64 // routing elements rejected by the UERR handler
}

// State is the DYMO CF's S element (Fig 6): route table, pending-RREQ
// table, duplicate cache and sequence number.
type State struct {
	Routes *route.Table

	mu         sync.Mutex
	seq        reactive.Seq
	pending    reactive.Discoveries
	dupes      reactive.DupSet
	repliedVia map[reactive.Key]map[mnet.Addr]bool // multipath: prev-hops already replied to
	replySeq   map[reactive.Key]uint16             // seq used for replies to one discovery
	stats      Stats

	// multipath is set by the variant: duplicate RREQs are mined for
	// link-disjoint paths instead of discarded.
	multipath bool
	maxPaths  int
}

// NewState returns an empty DYMO state.
func NewState(routes *route.Table) *State {
	return &State{
		Routes:     routes,
		pending:    make(reactive.Discoveries),
		repliedVia: make(map[reactive.Key]map[mnet.Addr]bool),
		replySeq:   make(map[reactive.Key]uint16),
		maxPaths:   2,
	}
}

// NextSeq increments and returns the node's sequence number.
func (s *State) NextSeq() uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq.Next()
}

// Seq returns the current sequence number.
func (s *State) Seq() uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint16(s.seq)
}

// Stats returns a snapshot of the protocol counters.
func (s *State) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// readMetrics reports the counters behind dymo_* to a metrics registry.
// Every discovery attempt, first or retried, broadcasts one RREQ.
func (s *State) readMetrics(emit func(name string, v uint64)) {
	st := s.Stats()
	emit("dymo_discoveries", st.Discoveries)
	emit("dymo_retries", st.Retries)
	emit("dymo_giveups", st.GiveUps)
	emit("dymo_rreq_tx", st.Discoveries+st.Retries)
}

func (s *State) bump(fn func(*Stats)) {
	s.mu.Lock()
	fn(&s.stats)
	s.mu.Unlock()
}

// duplicate records k and reports whether it was already known.
func (s *State) duplicate(k reactive.Key, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dupes.Seen(k, now)
}

// Multipath reports whether the multipath variant is active.
func (s *State) Multipath() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.multipath
}

// freshEnough implements DYMO loop-freedom: newInfo (seq, metric) may
// overwrite an existing entry when its seq is newer, or equal-seq with a
// strictly better metric.
func freshEnough(entrySeq uint16, entryMetric int, seq uint16, metric int) bool {
	if packetbb.SeqNewer(seq, entrySeq) {
		return true
	}
	return seq == entrySeq && metric < entryMetric
}

// DYMO is the DYMO ManetProtocol CF.
type DYMO struct {
	proto *core.Protocol
	state *State
	cfg   Config

	mu      sync.Mutex
	flooder Flooder // nil = blind flooding

	// Resolved from the deployment's registry on Start; nil (no-op) when
	// the deployment carries no metrics.
	mDiscoveryLat *metrics.Histogram // virtual time: NoRoute -> RouteFound
}

// Flooder abstracts the optimised-flooding decision so the MPR CF can be
// plugged in (the paper's optimised-flooding variant shares the MPR
// instance with a co-deployed OLSR, §5.2).
type Flooder interface {
	ShouldForward(orig mnet.Addr, seq uint16, prevHop mnet.Addr, now time.Time) bool
	Seen(orig mnet.Addr, seq uint16, now time.Time)
}

// New builds a DYMO CF.
func New(name string, cfg Config) *DYMO {
	if name == "" {
		name = UnitName
	}
	cfg.fill()
	d := &DYMO{proto: core.NewProtocol(name), cfg: cfg}
	rt := route.NewTable(cfg.Clock)
	if cfg.FIB != nil {
		rt.SyncFIB(cfg.FIB, cfg.Device)
	}
	d.state = NewState(rt)

	d.proto.SetTuple(event.Tuple{
		Required: []event.Requirement{
			{Type: event.REIn},
			{Type: event.RerrIn},
			{Type: event.MsgIn}, // unknown routing elements -> UERR handler
			{Type: event.NhoodChange},
			{Type: event.NoRoute, Exclusive: true}, // sole reactive protocol
			{Type: event.RouteUpdate},
			{Type: event.SendRouteErr},
			{Type: event.LinkBreak},
		},
		Provided: []event.Type{event.REOut, event.RerrOut, event.RouteFound},
	})
	if err := d.proto.SetState(core.NewStateComponent("state", d.state)); err != nil {
		panic(err)
	}
	d.proto.Provide("IDYMOState", d.state)

	for _, h := range []core.Handler{
		core.NewHandler("re-handler", event.REIn, d.onRE),
		core.NewHandler("rerr-handler", event.RerrIn, d.onRERR),
		core.NewHandler("uerr-handler", event.MsgIn, d.onUnsupported),
		core.NewHandler("noroute-handler", event.NoRoute, d.onNoRoute),
		core.NewHandler("routeupdate-handler", event.RouteUpdate, d.onRouteUpdate),
		core.NewHandler("senderr-handler", event.SendRouteErr, d.onSendRouteErr),
		core.NewHandler("linkbreak-handler", event.LinkBreak, d.onLinkBreak),
		core.NewHandler("nhood-handler", event.NhoodChange, d.onNhood),
	} {
		if err := d.proto.AddHandler(h); err != nil {
			panic(err)
		}
	}
	// Periodic purge of expired routes and stale duplicate-cache entries.
	if err := d.proto.AddSource(core.NewSource("route-sweep", cfg.RouteLifetime/2, 0, d.sweep)); err != nil {
		panic(err)
	}
	d.proto.SetCounters(d.state.readMetrics)
	d.proto.OnStart(func(ctx *core.Context) error {
		d.mDiscoveryLat = ctx.Env().Metrics().Histogram("dymo_discovery_latency")
		return nil
	})
	d.proto.OnStop(func(ctx *core.Context) error {
		d.state.mu.Lock()
		d.state.pending.StopAll()
		d.state.mu.Unlock()
		d.state.Routes.Clear()
		return nil
	})
	return d
}

// Protocol returns the DYMO CF as a deployable unit.
func (d *DYMO) Protocol() *core.Protocol { return d.proto }

// State returns the S element value.
func (d *DYMO) State() *State { return d.state }

// Routes returns the protocol's routing table.
func (d *DYMO) Routes() *route.Table { return d.state.Routes }

// SetFlooder installs (or clears, with nil) the optimised-flooding service
// — the paper's DYMO variant that replaces blind RREQ re-broadcast with
// multipoint relaying.
func (d *DYMO) SetFlooder(f Flooder) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flooder = f
}

func (d *DYMO) currentFlooder() Flooder {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flooder
}

// onNoRoute starts a route discovery for the buffered packet's destination.
func (d *DYMO) onNoRoute(ctx *core.Context, ev *event.Event) error {
	if ev.Route == nil {
		return nil
	}
	dst := ev.Route.Dst
	d.state.mu.Lock()
	started := d.state.pending.Start(dst, ctx.Clock().Now())
	if started {
		d.state.stats.Discoveries++
	}
	d.state.mu.Unlock()
	if !started {
		return nil
	}
	d.sendRREQ(ctx, dst, 1)
	return nil
}

// sendRREQ broadcasts one discovery attempt and arms the retry timer.
func (d *DYMO) sendRREQ(ctx *core.Context, dst mnet.Addr, attempt int) {
	seq := d.state.NextSeq()
	msg := &packetbb.Message{
		Type:       packetbb.MsgRREQ,
		Originator: ctx.Node(),
		SeqNum:     seq,
		HopLimit:   d.cfg.HopLimit,
		AddrBlocks: []packetbb.AddrBlock{{
			Addrs: []mnet.Addr{dst},
			TLVs: []packetbb.AddrTLV{{
				Type: packetbb.ATLVTargetSeq, Value: packetbb.U16(d.lastKnownSeq(dst)),
			}},
		}},
	}
	now := ctx.Clock().Now()
	d.state.duplicate(reactive.Key{Orig: ctx.Node(), Seq: seq}, now)
	if f := d.currentFlooder(); f != nil {
		f.Seen(ctx.Node(), seq, now)
	}
	ctx.Emit(&event.Event{Type: event.REOut, Msg: msg, Dst: mnet.Broadcast})

	wait := d.cfg.RREQWait << (attempt - 1) // binary exponential backoff
	timer := ctx.Clock().AfterFunc(wait, func() {
		_ = d.proto.RunLocked(func(ctx *core.Context) { d.retry(ctx, dst, attempt) })
	})
	d.state.mu.Lock()
	d.state.pending.Arm(dst, attempt, d.cfg.HopLimit, timer)
	d.state.mu.Unlock()
}

func (d *DYMO) retry(ctx *core.Context, dst mnet.Addr, attempt int) {
	d.state.mu.Lock()
	if _, ok := d.state.pending.Due(dst, attempt); !ok {
		d.state.mu.Unlock()
		return
	}
	if attempt >= d.cfg.RREQTries {
		d.state.pending.GiveUp(dst)
		d.state.stats.GiveUps++
		d.state.mu.Unlock()
		return
	}
	d.state.stats.Retries++
	d.state.mu.Unlock()
	d.sendRREQ(ctx, dst, attempt+1)
}

func (d *DYMO) lastKnownSeq(dst mnet.Addr) uint16 {
	if e, ok := d.state.Routes.Get(mnet.HostPrefix(dst)); ok {
		return e.SeqNum
	}
	return 0
}

// learnRoute applies DYMO's route-update rule for (node via prevHop,
// metric, seq); it reports whether the table changed. A metric of 0 (the
// originator itself at the first hop) is treated as 1.
func (d *DYMO) learnRoute(ctx *core.Context, node, prevHop mnet.Addr, metric int, seq uint16) bool {
	if node == ctx.Node() {
		return false
	}
	if metric < 1 {
		metric = 1
	}
	dst := mnet.HostPrefix(node)
	now := ctx.Clock().Now()
	expiry := now.Add(d.cfg.RouteLifetime)
	cur, ok := d.state.Routes.Get(dst)
	if ok && cur.Valid {
		best, hasPath := curBest(cur, now)
		if hasPath && !freshEnough(cur.SeqNum, best.Metric, seq, metric) {
			if d.state.Multipath() && seq == cur.SeqNum {
				// The variant keeps extra link-disjoint paths of equal
				// freshness.
				d.state.Routes.AddPath(dst, d.proto.Name(), cur.SeqNum,
					route.Path{NextHop: prevHop, Metric: metric, Expires: expiry})
				return true
			}
			return false
		}
	}
	d.state.Routes.Upsert(route.Entry{
		Dst:    dst,
		Paths:  []route.Path{{NextHop: prevHop, Metric: metric, Expires: expiry}},
		SeqNum: seq,
		Valid:  true,
		Proto:  d.proto.Name(),
	})
	// Discovery for this destination is satisfied.
	d.completeDiscovery(ctx, node)
	return true
}

func curBest(e route.Entry, now time.Time) (route.Path, bool) {
	return e.Best(now)
}

// completeDiscovery finishes a pending discovery for dst, if any, and
// raises ROUTE_FOUND so the packet filter re-injects held traffic.
func (d *DYMO) completeDiscovery(ctx *core.Context, dst mnet.Addr) {
	d.state.mu.Lock()
	started, ok := d.state.pending.Complete(dst)
	d.state.mu.Unlock()
	if ok {
		if !started.IsZero() {
			d.mDiscoveryLat.Observe(ctx.Clock().Now().Sub(started))
		}
		ctx.Emit(&event.Event{Type: event.RouteFound, Route: &event.RoutePayload{Dst: dst}})
	}
}

// onRE processes routing elements: RREQ and RREP.
func (d *DYMO) onRE(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	if msg == nil || msg.Originator == ctx.Node() || len(msg.AddrBlocks) == 0 {
		return nil
	}
	switch msg.Type {
	case packetbb.MsgRREQ:
		return d.onRREQ(ctx, ev)
	case packetbb.MsgRREP:
		return d.onRREP(ctx, ev)
	default:
		return nil
	}
}

func (d *DYMO) onRREQ(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	target := msg.AddrBlocks[0].Addrs[0]
	now := ctx.Clock().Now()
	metric := int(msg.HopCount) + 1

	// Reverse route to the RREQ originator (and any accumulated path).
	d.learnRoute(ctx, msg.Originator, ev.Src, metric, msg.SeqNum)
	d.learnAccumulated(ctx, msg, ev.Src)

	k := reactive.Key{Orig: msg.Originator, Seq: msg.SeqNum}
	dup := d.state.duplicate(k, now)

	if target == ctx.Node() {
		return d.replyToRREQ(ctx, ev, k, dup)
	}
	if dup {
		// Multipath intermediate nodes still suppress duplicate
		// re-broadcast (paths diverge at the target, not mid-network).
		return nil
	}
	if msg.HopLimit <= 1 {
		return nil
	}
	// Optimised flooding: only relay when the previous hop selected us.
	if f := d.currentFlooder(); f != nil && !f.ShouldForward(msg.Originator, msg.SeqNum, ev.Src, now) {
		return nil
	}
	d.state.bump(func(st *Stats) { st.RREQForwards++ })
	ctx.Emit(d.forward(ctx, msg, mnet.Broadcast))
	return nil
}

// forward builds the event that relays a routing element one hop on to
// dst. Only path accumulation rewrites the body — it adds this node to the
// accumulation block — so only it pays for a Clone; every other forward
// shares the received body (event.Relay).
func (d *DYMO) forward(ctx *core.Context, msg *packetbb.Message, dst mnet.Addr) *event.Event {
	if !d.cfg.AccumulatePaths {
		return event.Relay(event.REOut, msg, dst)
	}
	fwd := msg.Clone()
	fwd.HopLimit--
	fwd.HopCount++
	for len(fwd.AddrBlocks) < 2 {
		fwd.AddrBlocks = append(fwd.AddrBlocks, packetbb.AddrBlock{})
	}
	blk := &fwd.AddrBlocks[1]
	idx := uint8(len(blk.Addrs))
	blk.Addrs = append(blk.Addrs, ctx.Node())
	blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{
		Type: packetbb.ATLVHopCount, IndexStart: idx, IndexStop: idx, Value: packetbb.U8(fwd.HopCount),
	})
	return &event.Event{Type: event.REOut, Msg: fwd, Dst: dst}
}

// replyToRREQ generates the RREP at the target. The base protocol replies
// only to the first copy; the multipath variant's replacement RE handler
// replies to up to maxPaths distinct previous hops (link-disjoint paths).
func (d *DYMO) replyToRREQ(ctx *core.Context, ev *event.Event, k reactive.Key, dup bool) error {
	msg := ev.Msg
	d.state.mu.Lock()
	replied := d.state.repliedVia[k]
	if replied == nil {
		replied = make(map[mnet.Addr]bool)
		d.state.repliedVia[k] = replied
	}
	canReply := false
	if !dup {
		canReply = true
	} else if d.state.multipath && !replied[ev.Src] && len(replied) < d.state.maxPaths {
		canReply = true
	}
	// All replies to one discovery carry the same sequence number so the
	// originator retains them as equal-freshness alternative paths.
	seq, ok := d.state.replySeq[k]
	if canReply {
		replied[ev.Src] = true
		if !ok {
			seq = d.state.seq.Next()
			d.state.replySeq[k] = seq
		}
	}
	d.state.mu.Unlock()
	if !canReply {
		return nil
	}

	rrep := &packetbb.Message{
		Type:       packetbb.MsgRREP,
		Originator: ctx.Node(),
		SeqNum:     seq,
		HopLimit:   d.cfg.HopLimit,
		AddrBlocks: []packetbb.AddrBlock{{
			Addrs: []mnet.Addr{msg.Originator},
			TLVs: []packetbb.AddrTLV{{
				Type: packetbb.ATLVTargetSeq, Value: packetbb.U16(msg.SeqNum),
			}},
		}},
	}
	d.state.bump(func(st *Stats) { st.RREPSent++ })
	// Unicast hop-by-hop back along the reverse route (here: the previous
	// hop the RREQ arrived from).
	ctx.Emit(&event.Event{Type: event.REOut, Msg: rrep, Dst: ev.Src})
	return nil
}

func (d *DYMO) onRREP(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	reqOrig := msg.AddrBlocks[0].Addrs[0] // the node that started discovery
	metric := int(msg.HopCount) + 1

	// Forward route to the RREP originator (the discovery target).
	d.learnRoute(ctx, msg.Originator, ev.Src, metric, msg.SeqNum)
	d.learnAccumulated(ctx, msg, ev.Src)

	if reqOrig == ctx.Node() {
		// Discovery complete; learnRoute already raised ROUTE_FOUND.
		return nil
	}
	// Forward the RREP one hop towards the discovery originator.
	_, p, err := d.state.Routes.Lookup(reqOrig)
	if err != nil {
		return nil // reverse route evaporated; the discovery will retry
	}
	if msg.HopLimit <= 1 {
		return nil
	}
	ctx.Emit(d.forward(ctx, msg, p.NextHop))
	return nil
}

// learnAccumulated installs routes to every accumulated intermediate node.
func (d *DYMO) learnAccumulated(ctx *core.Context, msg *packetbb.Message, prevHop mnet.Addr) {
	if !d.cfg.AccumulatePaths || len(msg.AddrBlocks) < 2 {
		return
	}
	blk := &msg.AddrBlocks[1]
	for i, a := range blk.Addrs {
		hops := 1
		if tlv, ok := blk.AddrTLVFor(packetbb.ATLVHopCount, i); ok {
			if v, err := packetbb.ParseU8(tlv.Value); err == nil {
				// v is the node's distance from the originator; our
				// distance to it is msg.HopCount+1-v.
				hops = int(msg.HopCount) + 1 - int(v)
			}
		}
		if hops < 1 {
			hops = 1
		}
		d.learnRoute(ctx, a, prevHop, hops, 0)
	}
}

// onRouteUpdate extends the lifetime of an actively used route.
func (d *DYMO) onRouteUpdate(ctx *core.Context, ev *event.Event) error {
	if ev.Route == nil {
		return nil
	}
	d.state.Routes.ExtendLifetime(mnet.HostPrefix(ev.Route.Dst), mnet.Addr{}, d.cfg.RouteLifetime)
	return nil
}

// onLinkBreak invalidates routes through the broken next hop and
// advertises the loss.
func (d *DYMO) onLinkBreak(ctx *core.Context, ev *event.Event) error {
	if ev.Route == nil || ev.Route.NextHop.IsUnspecified() {
		return nil
	}
	d.invalidateVia(ctx, ev.Route.NextHop)
	return nil
}

// onNhood reacts to Neighbour Detection CF notifications: a lost neighbour
// invalidates the routes using it (§5.2: "route invalidation upon link
// breaks").
func (d *DYMO) onNhood(ctx *core.Context, ev *event.Event) error {
	if ev.Nhood == nil || ev.Nhood.Kind != event.NeighborLost {
		return nil
	}
	d.invalidateVia(ctx, ev.Nhood.Neighbor)
	return nil
}

// invalidateVia drops paths through nextHop; destinations left with no
// path are advertised in a RERR. The multipath variant's behaviour —
// "only send a route error when an alternative path is not available" —
// falls out of InvalidatePath keeping surviving paths.
func (d *DYMO) invalidateVia(ctx *core.Context, nextHop mnet.Addr) {
	affected := d.state.Routes.InvalidateVia(nextHop)
	var dead []mnet.Addr
	for _, p := range affected {
		if e, ok := d.state.Routes.Get(p); !ok || !e.Valid {
			dead = append(dead, p.Addr)
		}
	}
	if len(dead) > 0 {
		d.sendRERR(ctx, dead, mnet.Broadcast)
	}
}

// onSendRouteErr handles the packet filter's report that a transit packet
// had no route: notify the source with a RERR.
func (d *DYMO) onSendRouteErr(ctx *core.Context, ev *event.Event) error {
	if ev.Route == nil {
		return nil
	}
	d.sendRERR(ctx, []mnet.Addr{ev.Route.Dst}, mnet.Broadcast)
	return nil
}

// sendRERR advertises unreachable destinations.
func (d *DYMO) sendRERR(ctx *core.Context, unreachable []mnet.Addr, dst mnet.Addr) {
	msg := &packetbb.Message{
		Type:       packetbb.MsgRERR,
		Originator: ctx.Node(),
		SeqNum:     d.state.NextSeq(),
		HopLimit:   d.cfg.HopLimit,
		AddrBlocks: []packetbb.AddrBlock{{Addrs: unreachable}},
	}
	d.state.bump(func(st *Stats) { st.RERRSent++ })
	ctx.Emit(&event.Event{Type: event.RerrOut, Msg: msg, Dst: dst})
}

// onRERR invalidates listed routes that run through the RERR's sender and
// propagates the error if anything changed.
func (d *DYMO) onRERR(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	if msg == nil || msg.Originator == ctx.Node() || len(msg.AddrBlocks) == 0 {
		return nil
	}
	if d.state.duplicate(reactive.Key{Orig: msg.Originator, Seq: msg.SeqNum}, ctx.Clock().Now()) {
		return nil
	}
	var stillDead []mnet.Addr
	for _, dead := range msg.AddrBlocks[0].Addrs {
		p := mnet.HostPrefix(dead)
		e, ok := d.state.Routes.Get(p)
		if !ok || !e.Valid {
			continue
		}
		usesSender := false
		for _, path := range e.Paths {
			if path.NextHop == ev.Src {
				usesSender = true
				break
			}
		}
		if !usesSender {
			continue
		}
		if remains := d.state.Routes.InvalidatePath(p, ev.Src); !remains {
			stillDead = append(stillDead, dead)
		}
	}
	if len(stillDead) > 0 && msg.HopLimit > 1 {
		fwd := msg.Clone()
		fwd.HopLimit--
		fwd.HopCount++
		fwd.AddrBlocks[0] = packetbb.AddrBlock{Addrs: stillDead}
		ctx.Emit(&event.Event{Type: event.RerrOut, Msg: fwd, Dst: mnet.Broadcast})
	}
	return nil
}

// onUnsupported is the UERR handler of Fig 6: it counts routing elements
// this implementation cannot process (unknown DYMO-family message types).
func (d *DYMO) onUnsupported(ctx *core.Context, ev *event.Event) error {
	if ev.Type != event.MsgIn || ev.Msg == nil {
		return nil
	}
	d.state.bump(func(st *Stats) { st.Unsupported++ })
	return nil
}

func (d *DYMO) sweep(ctx *core.Context) {
	d.state.Routes.PurgeExpired()
	d.state.mu.Lock()
	d.state.dupes.Sweep(ctx.Clock().Now(), reactive.DupHold, func(k reactive.Key) {
		delete(d.state.repliedVia, k)
		delete(d.state.replySeq, k)
	})
	d.state.mu.Unlock()
}
