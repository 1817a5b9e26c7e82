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
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/reactive"
	"manetkit/internal/route"
	"manetkit/internal/system"
)

// UnitName is the DYMO CF's default unit name.
const UnitName = "dymo"

// DYMO timing, from the DYMO draft's suggested parameter values.
const (
	// RouteLifetime is the validity given to learned routes and restored to
	// routes in use: the draft's ROUTE_TIMEOUT.
	RouteLifetime = 5 * time.Second
	// rreqWait is the first discovery attempt's reply wait, doubled per
	// retry. It deviates from the draft's ROUTE_RREQ_WAIT_TIME of 2 s.
	rreqWait = time.Second
	// rreqTries bounds discovery attempts: the draft's RREQ_TRIES.
	rreqTries = 3
)

// Config parameterises the DYMO CF.
type Config struct {
	// HopLimit caps control-message propagation (default 10, the draft's
	// MSG_HOPLIMIT).
	HopLimit uint8
	// AccumulatePaths enables DYMO path accumulation: RE messages gather
	// intermediate addresses so every node on the path learns routes to
	// all of them. Off by default (the zero value); nothing outside tests
	// turns it on.
	AccumulatePaths bool
}

func (c *Config) fill() {
	if c.HopLimit == 0 {
		c.HopLimit = 10
	}
}

// Stats counts DYMO activity (used by the evaluation harness).
type Stats struct {
	reactive.Counts
	RREQForwards uint64
	RREPSent     uint64
	RERRSent     uint64
	Unsupported  uint64 // routing elements rejected by the UERR handler
}

// State is the DYMO CF's S element (Fig 6): route table, pending-RREQ
// table, duplicate cache and sequence number.
type State struct {
	reactive.State

	repliedVia map[reactive.Key]map[mnet.Addr]bool // multipath: prev-hops already replied to
	replySeq   map[reactive.Key]uint16             // seq used for replies to one discovery
	stats      Stats

	// multipath is set by the variant: duplicate RREQs are mined for
	// link-disjoint paths instead of discarded.
	multipath bool
	maxPaths  int
}

// Stats returns a snapshot of the protocol counters.
func (s *State) Stats() Stats {
	s.Lock()
	defer s.Unlock()
	st := s.stats
	st.Counts = s.Counts
	return st
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
	s.Lock()
	fn(&s.stats)
	s.Unlock()
}

// Multipath reports whether the multipath variant is active.
func (s *State) Multipath() bool {
	s.Lock()
	defer s.Unlock()
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
	disc  reactive.Discovery
	cfg   Config

	mu      sync.Mutex
	flooder Flooder // nil = blind flooding
}

// Flooder abstracts the optimised-flooding decision so the MPR CF can be
// plugged in (the paper's optimised-flooding variant shares the MPR
// instance with a co-deployed OLSR, §5.2).
type Flooder interface {
	ShouldForward(orig mnet.Addr, seq uint16, prevHop mnet.Addr, now time.Time) bool
	Seen(orig mnet.Addr, seq uint16, now time.Time)
}

// New builds a DYMO CF. The route table binds to the deployment on first
// start (system.BindRoutes).
func New(name string, cfg Config) *DYMO {
	if name == "" {
		name = UnitName
	}
	cfg.fill()
	d := &DYMO{proto: core.NewProtocol(name), cfg: cfg, state: &State{
		repliedVia: make(map[reactive.Key]map[mnet.Addr]bool),
		replySeq:   make(map[reactive.Key]uint16),
		maxPaths:   2,
	}}
	d.state.Init()
	d.disc = reactive.NewDiscovery(d.proto, &d.state.State, d, RouteLifetime)

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
		core.NewHandler("routeupdate-handler", event.RouteUpdate, d.disc.OnRouteUpdate),
		core.NewHandler("senderr-handler", event.SendRouteErr, d.onSendRouteErr),
		core.NewHandler("linkbreak-handler", event.LinkBreak, d.disc.OnLinkBreak),
		core.NewHandler("nhood-handler", event.NhoodChange, d.disc.OnNeighborLost),
	} {
		if err := d.proto.AddHandler(h); err != nil {
			panic(err)
		}
	}
	// Periodic purge of expired routes and stale duplicate-cache entries.
	if err := d.proto.AddSource(core.NewSource("route-sweep", RouteLifetime/2, 0, d.sweep)); err != nil {
		panic(err)
	}
	d.proto.SetCounters(d.state.readMetrics)
	d.proto.OnStart(func(ctx *core.Context) error {
		system.BindRoutes(ctx, d.state.Routes)
		d.disc.Latency = ctx.Env().Metrics().Histogram("dymo_discovery_latency")
		return nil
	})
	d.proto.OnStop(d.disc.Stop)
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
	if ev.Route != nil {
		d.disc.Start(ctx, ev.Route.Dst, d.cfg.HopLimit)
	}
	return nil
}

// SendRREQ implements reactive.Rules: it broadcasts one discovery attempt
// and backs off binary-exponentially.
func (d *DYMO) SendRREQ(ctx *core.Context, dst mnet.Addr, attempt int, ttl uint8) time.Duration {
	seq := d.state.NextSeq()
	msg := &packetbb.Message{
		Type:       packetbb.MsgRREQ,
		Originator: ctx.Node(),
		SeqNum:     seq,
		HopLimit:   ttl,
		AddrBlocks: []packetbb.AddrBlock{{
			Addrs: []mnet.Addr{dst},
			TLVs: []packetbb.AddrTLV{{
				Type: packetbb.ATLVTargetSeq, Value: packetbb.U16(d.lastKnownSeq(dst)),
			}},
		}},
	}
	now := ctx.Clock().Now()
	d.state.Duplicate(reactive.Key{Orig: ctx.Node(), Seq: seq}, now)
	if f := d.currentFlooder(); f != nil {
		f.Seen(ctx.Node(), seq, now)
	}
	ctx.Emit(&event.Event{Type: event.REOut, Msg: msg, Dst: mnet.Broadcast})
	return rreqWait << (attempt - 1)
}

// NextAttempt implements reactive.Rules: every attempt floods at the same
// hop limit, up to rreqTries attempts.
func (d *DYMO) NextAttempt(attempt int, ttl uint8) (uint8, bool) {
	return ttl, attempt < rreqTries
}

func (d *DYMO) lastKnownSeq(dst mnet.Addr) uint16 {
	if e, ok := d.state.Routes.Get(dst); ok {
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
	now := ctx.Clock().Now()
	expiry := now.Add(RouteLifetime)
	cur, ok := d.state.Routes.Get(node)
	if ok && cur.Valid {
		best, hasPath := cur.Best(now)
		if hasPath && !freshEnough(cur.SeqNum, best.Metric, seq, metric) {
			if d.state.Multipath() && seq == cur.SeqNum {
				// The variant keeps extra link-disjoint paths of equal
				// freshness.
				d.state.Routes.AddPath(node, d.proto.Name(), cur.SeqNum,
					route.Path{NextHop: prevHop, Metric: metric, Expires: expiry})
				return true
			}
			return false
		}
	}
	d.state.Routes.Upsert(route.Entry{
		Dst:    mnet.HostPrefix(node),
		Paths:  []route.Path{{NextHop: prevHop, Metric: metric, Expires: expiry}},
		SeqNum: seq,
		Valid:  true,
		Proto:  d.proto.Name(),
	})
	// Discovery for this destination is satisfied.
	d.disc.Found(ctx, node)
	return true
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
	dup := d.state.Duplicate(k, now)

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
	d.state.Lock()
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
			seq = d.state.Seq.Next()
			d.state.replySeq[k] = seq
		}
	}
	d.state.Unlock()
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

// LinkLost implements reactive.Rules: it drops paths through nextHop and
// advertises the destinations left with no path in a RERR. The multipath
// variant's behaviour — "only send a route error when an alternative path
// is not available" — falls out of InvalidatePath keeping surviving paths.
func (d *DYMO) LinkLost(ctx *core.Context, nextHop mnet.Addr) {
	affected := d.state.Routes.InvalidateVia(nextHop)
	var dead []mnet.Addr
	for _, dst := range affected {
		if e, ok := d.state.Routes.Get(dst); !ok || !e.Valid {
			dead = append(dead, dst)
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
	if d.state.Duplicate(reactive.Key{Orig: msg.Originator, Seq: msg.SeqNum}, ctx.Clock().Now()) {
		return nil
	}
	var stillDead []mnet.Addr
	for _, dead := range msg.AddrBlocks[0].Addrs {
		e, ok := d.state.Routes.Get(dead)
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
		if remains := d.state.Routes.InvalidatePath(dead, ev.Src); !remains {
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
	d.disc.SweepDropping(ctx, func(k reactive.Key) {
		delete(d.state.repliedVia, k)
		delete(d.state.replySeq, k)
	})
}
