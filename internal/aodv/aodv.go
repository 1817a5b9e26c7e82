// Package aodv implements the Ad-hoc On-demand Distance Vector protocol
// (RFC 3561) as a MANETKit composition. AODV was the first protocol built
// on MANETKit (§5: the Java proof of concept), and §4.3 singles it out as
// the protocol that piggybacks routing-table entries on the Neighbour
// Detection CF's beacons "so that neighbours can learn new routes" — this
// implementation does exactly that through the detector's piggyback
// service.
//
// Distinguishing features versus the bundled DYMO:
//
//   - expanding ring search: discovery starts with a small RREQ TTL and
//     widens it on retry (RFC 3561 §6.4);
//   - intermediate (gratuitous) RREPs: a node with a fresh-enough route to
//     the target answers on the destination's behalf;
//   - precursor lists: RERRs are unicast to the upstream nodes actually
//     using the broken route rather than broadcast blindly.
package aodv

import (
	"sort"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/kernel"
	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
	"manetkit/internal/packetbb"
	"manetkit/internal/reactive"
	"manetkit/internal/route"
	"manetkit/internal/system"
)

// UnitName is the AODV CF's default unit name.
const UnitName = "aodv"

// PiggybackTLV is the HELLO message TLV carrying piggybacked routing
// entries (§4.3): pairs of (destination address, u16 metric-and-seq).
const PiggybackTLV uint8 = 120

// Message TLV types private to AODV (beyond the shared packetbb set).
const (
	tlvOrigSeq  uint8 = 64 // originator sequence number on RREQ (u16)
	tlvDestOnly uint8 = 65 // flag: only the destination may answer
)

// AODV timing and search parameters, against RFC 3561 §10.
const (
	// routeLifetime is the active-route validity. It deviates from
	// ACTIVE_ROUTE_TIMEOUT, 3 s.
	routeLifetime = 5 * time.Second
	// rreqWait is every attempt's reply wait, an implementation choice in
	// place of RING_TRAVERSAL_TIME and NET_TRAVERSAL_TIME.
	rreqWait = time.Second
	// rreqTries is the number of full-diameter attempts after the ring
	// search: the first and RREQ_RETRIES (2) more.
	rreqTries = 3
	// ttlStart, ttlIncrement and ttlThreshold drive the expanding ring
	// search. ttlStart deviates from TTL_START, 1; the other two are
	// TTL_INCREMENT and TTL_THRESHOLD.
	ttlStart     = 2
	ttlIncrement = 2
	ttlThreshold = 7
	// netDiameter caps full-network floods. It deviates from NET_DIAMETER,
	// 35.
	netDiameter = 16
	// piggybackMax bounds the routing entries one HELLO carries (§4.3), an
	// implementation choice.
	piggybackMax = 4
)

// Config parameterises the AODV CF.
type Config struct {
	// DestinationOnly disables intermediate RREPs (default false).
	DestinationOnly bool
	// PiggybackRoutes shares up to piggybackMax routing entries on the
	// neighbour detector's HELLO beacons (§4.3).
	PiggybackRoutes bool
}

// Stats counts AODV activity.
type Stats struct {
	reactive.Counts
	RingExpansions   uint64 // retries that widened the search ring
	RREQForwards     uint64
	RREPSent         uint64
	GratuitousRREPs  uint64 // intermediate replies on the target's behalf
	RERRSent         uint64
	PiggybackLearned uint64 // routes learned from HELLO piggybacks
}

// State is the AODV CF's S element: route table, own sequence number,
// pending discoveries, duplicate cache and precursor lists.
type State struct {
	reactive.State // pending discoveries carry each attempt's ring TTL

	precursors map[mnet.Addr]map[mnet.Addr]bool // dst -> upstream users
	stats      Stats
}

// Stats returns a snapshot of the protocol counters.
func (s *State) Stats() Stats {
	s.Lock()
	defer s.Unlock()
	st := s.stats
	st.Counts = s.Counts
	return st
}

// readMetrics reports the counters behind aodv_* to a metrics registry.
// Every discovery attempt, first or retried, broadcasts one RREQ.
func (s *State) readMetrics(emit func(name string, v uint64)) {
	st := s.Stats()
	emit("aodv_discoveries", st.Discoveries)
	emit("aodv_retries", st.Retries)
	emit("aodv_giveups", st.GiveUps)
	emit("aodv_rreq_tx", st.Discoveries+st.Retries)
}

func (s *State) bump(fn func(*Stats)) {
	s.Lock()
	fn(&s.stats)
	s.Unlock()
}

// addPrecursor records that upstream uses this node to reach dst.
func (s *State) addPrecursor(dst, upstream mnet.Addr) {
	s.Lock()
	defer s.Unlock()
	set := s.precursors[dst]
	if set == nil {
		set = make(map[mnet.Addr]bool)
		s.precursors[dst] = set
	}
	set[upstream] = true
}

// takePrecursors removes and returns dst's precursor list, sorted.
func (s *State) takePrecursors(dst mnet.Addr) []mnet.Addr {
	s.Lock()
	set := s.precursors[dst]
	delete(s.precursors, dst)
	s.Unlock()
	out := make([]mnet.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// AODV is the AODV ManetProtocol CF.
type AODV struct {
	proto *core.Protocol
	state *State
	disc  reactive.Discovery
	cfg   Config
}

// New builds an AODV CF. detector (optional) is the Neighbour Detection CF
// whose beacons carry the piggybacked routing entries. The route table
// binds to the deployment on first start (system.BindRoutes).
func New(name string, detector *neighbor.Detector, cfg Config) *AODV {
	if name == "" {
		name = UnitName
	}
	a := &AODV{proto: core.NewProtocol(name), cfg: cfg,
		state: &State{precursors: make(map[mnet.Addr]map[mnet.Addr]bool)}}
	a.state.Init()
	a.disc = reactive.NewDiscovery(a.proto, &a.state.State, a, routeLifetime)

	a.proto.SetTuple(event.Tuple{
		Required: []event.Requirement{
			{Type: event.REIn},
			{Type: event.RerrIn},
			{Type: event.NhoodChange},
			{Type: event.NoRoute, Exclusive: true},
			{Type: event.RouteUpdate},
			{Type: event.SendRouteErr},
			{Type: event.LinkBreak},
		},
		Provided: []event.Type{event.REOut, event.RerrOut, event.RouteFound},
	})
	if err := a.proto.SetState(core.NewStateComponent("state", a.state)); err != nil {
		panic(err)
	}
	a.proto.Provide("IAODVState", a.state)

	for _, h := range []core.Handler{
		core.NewHandler("re-handler", event.REIn, a.onRE),
		core.NewHandler("rerr-handler", event.RerrIn, a.onRERR),
		core.NewHandler("noroute-handler", event.NoRoute, a.onNoRoute),
		core.NewHandler("routeupdate-handler", event.RouteUpdate, a.disc.OnRouteUpdate),
		core.NewHandler("senderr-handler", event.SendRouteErr, a.onSendRouteErr),
		core.NewHandler("linkbreak-handler", event.LinkBreak, a.disc.OnLinkBreak),
		core.NewHandler("nhood-handler", event.NhoodChange, a.disc.OnNeighborLost),
	} {
		if err := a.proto.AddHandler(h); err != nil {
			panic(err)
		}
	}
	if err := a.proto.AddSource(core.NewSource("route-sweep", routeLifetime/2, 0, a.disc.Sweep)); err != nil {
		panic(err)
	}
	a.proto.SetCounters(a.state.readMetrics)
	a.proto.OnStart(func(ctx *core.Context) error {
		system.BindRoutes(ctx, a.state.Routes)
		a.disc.Latency = ctx.Env().Metrics().Histogram("aodv_discovery_latency")
		return nil
	})
	a.proto.OnStop(a.disc.Stop)
	if detector != nil && cfg.PiggybackRoutes {
		a.wirePiggyback(detector)
	}
	return a
}

// RuleSingleReactive builds the integrity rule from §4.2's example: at most
// one reactive routing protocol (AODV, DYMO or ZRP) deployed at a time.
// Install it with Manager.AddRule.
func RuleSingleReactive(reactiveNames ...string) kernel.IntegrityRule {
	names := make(map[string]bool, len(reactiveNames))
	for _, n := range reactiveNames {
		names[n] = true
	}
	return kernel.RuleSingleton("reactive routing protocol", func(c string) bool {
		return names[c]
	})
}

// Protocol returns the AODV CF as a deployable unit.
func (a *AODV) Protocol() *core.Protocol { return a.proto }

// State returns the S element value.
func (a *AODV) State() *State { return a.state }

// Routes returns the protocol's routing table.
func (a *AODV) Routes() *route.Table { return a.state.Routes }

// wirePiggyback attaches the §4.3 dissemination service: outgoing HELLOs
// carry up to PiggybackMax of our freshest routes; incoming piggybacks
// teach one-extra-hop routes through the beaconing neighbour.
func (a *AODV) wirePiggyback(detector *neighbor.Detector) {
	detector.Piggyback(PiggybackTLV, func() []byte {
		entries := a.state.Routes.Entries()
		var buf []byte
		n := 0
		for _, e := range entries {
			if !e.Valid || n >= piggybackMax {
				continue
			}
			p, ok := e.Best(a.proto.Clock().Now())
			if !ok || p.Metric >= netDiameter {
				continue
			}
			buf = append(buf, e.Dst.Addr[:]...)
			buf = append(buf, byte(p.Metric))
			buf = append(buf, byte(e.SeqNum>>8), byte(e.SeqNum))
			n++
		}
		return buf
	})
	detector.OnPiggyback(PiggybackTLV, func(src mnet.Addr, value []byte) {
		const rec = mnet.AddrLen + 3
		_ = a.proto.RunLocked(func(ctx *core.Context) {
			for off := 0; off+rec <= len(value); off += rec {
				var dst mnet.Addr
				copy(dst[:], value[off:off+mnet.AddrLen])
				metric := int(value[off+mnet.AddrLen])
				seq := uint16(value[off+mnet.AddrLen+1])<<8 | uint16(value[off+mnet.AddrLen+2])
				if dst == ctx.Node() || dst == src {
					continue
				}
				if a.learnRoute(ctx, dst, src, metric+1, seq) {
					a.state.bump(func(st *Stats) { st.PiggybackLearned++ })
				}
			}
		})
	})
}

// onNoRoute starts an expanding-ring route discovery.
func (a *AODV) onNoRoute(ctx *core.Context, ev *event.Event) error {
	if ev.Route != nil {
		a.disc.Start(ctx, ev.Route.Dst, ttlStart)
	}
	return nil
}

// SendRREQ implements reactive.Rules: it floods one ring of the search and
// waits rreqWait for a reply.
func (a *AODV) SendRREQ(ctx *core.Context, dst mnet.Addr, attempt int, ttl uint8) time.Duration {
	seq := a.state.NextSeq()
	lastSeq := uint16(0)
	if e, ok := a.state.Routes.Get(dst); ok {
		lastSeq = e.SeqNum
	}
	msg := &packetbb.Message{
		Type:       packetbb.MsgRREQ,
		Originator: ctx.Node(),
		SeqNum:     seq,
		HopLimit:   ttl,
		TLVs:       []packetbb.TLV{{Type: tlvOrigSeq, Value: packetbb.U16(seq)}},
		AddrBlocks: []packetbb.AddrBlock{{
			Addrs: []mnet.Addr{dst},
			TLVs: []packetbb.AddrTLV{{
				Type: packetbb.ATLVTargetSeq, Value: packetbb.U16(lastSeq),
			}},
		}},
	}
	if a.cfg.DestinationOnly {
		msg.TLVs = append(msg.TLVs, packetbb.TLV{Type: tlvDestOnly})
	}
	a.state.Duplicate(reactive.Key{Orig: ctx.Node(), Seq: seq}, ctx.Clock().Now())
	ctx.Emit(&event.Event{Type: event.REOut, Msg: msg, Dst: mnet.Broadcast})
	return rreqWait
}

// NextAttempt implements reactive.Rules: it widens the ring (RFC 3561
// §6.4) while the hop limit stays within ttlThreshold, then floods at
// netDiameter, up to rreqTries full-diameter attempts after the rings.
func (a *AODV) NextAttempt(attempt int, ttl uint8) (uint8, bool) {
	if ttl < ttlThreshold {
		a.state.stats.RingExpansions++
		if next := ttl + ttlIncrement; next <= ttlThreshold {
			return next, true
		}
		return netDiameter, true
	}
	// The ring attempts: ttlStart, ttlStart+ttlIncrement, ... up to ttlThreshold.
	const rings = (ttlThreshold - ttlStart + ttlIncrement) / ttlIncrement
	return netDiameter, attempt < rings+rreqTries
}

// learnRoute applies the AODV route-update rule; it reports whether the
// table changed.
func (a *AODV) learnRoute(ctx *core.Context, node, prevHop mnet.Addr, metric int, seq uint16) bool {
	if node == ctx.Node() {
		return false
	}
	if metric < 1 {
		metric = 1
	}
	now := ctx.Clock().Now()
	if cur, ok := a.state.Routes.Get(node); ok && cur.Valid {
		if best, has := cur.Best(now); has {
			newer := packetbb.SeqNewer(seq, cur.SeqNum)
			if !newer && !(seq == cur.SeqNum && metric < best.Metric) {
				return false
			}
		}
	}
	a.state.Routes.Upsert(route.Entry{
		Dst:    mnet.HostPrefix(node),
		Paths:  []route.Path{{NextHop: prevHop, Metric: metric, Expires: now.Add(routeLifetime)}},
		SeqNum: seq,
		Valid:  true,
		Proto:  a.proto.Name(),
	})
	a.disc.Found(ctx, node)
	return true
}

func (a *AODV) onRE(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	if msg == nil || msg.Originator == ctx.Node() || len(msg.AddrBlocks) == 0 {
		return nil
	}
	switch msg.Type {
	case packetbb.MsgRREQ:
		return a.onRREQ(ctx, ev)
	case packetbb.MsgRREP:
		return a.onRREP(ctx, ev)
	default:
		return nil
	}
}

func (a *AODV) onRREQ(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	target := msg.AddrBlocks[0].Addrs[0]
	now := ctx.Clock().Now()
	metric := int(msg.HopCount) + 1

	origSeq := msg.SeqNum
	if tlv, ok := msg.FindTLV(tlvOrigSeq); ok {
		if v, err := packetbb.ParseU16(tlv.Value); err == nil {
			origSeq = v
		}
	}
	// Reverse route to the originator; record the previous hop as a
	// precursor of the forward direction.
	a.learnRoute(ctx, msg.Originator, ev.Src, metric, origSeq)

	if a.state.Duplicate(reactive.Key{Orig: msg.Originator, Seq: msg.SeqNum}, now) {
		return nil
	}
	targetSeq := uint16(0)
	if tlv, ok := msg.AddrBlocks[0].AddrTLVFor(packetbb.ATLVTargetSeq, 0); ok {
		if v, err := packetbb.ParseU16(tlv.Value); err == nil {
			targetSeq = v
		}
	}
	_, destOnly := msg.FindTLV(tlvDestOnly)

	if target == ctx.Node() {
		a.sendRREP(ctx, msg.Originator, ctx.Node(), a.state.NextSeq(), 0, ev.Src, false)
		return nil
	}
	// Intermediate (gratuitous) RREP: answer if we hold a route to the
	// target at least as fresh as the originator demands (RFC 3561 §6.6).
	if !destOnly {
		if e, ok := a.state.Routes.Get(target); ok && e.Valid {
			if best, has := e.Best(now); has && (targetSeq == 0 || !packetbb.SeqNewer(targetSeq, e.SeqNum)) {
				a.state.addPrecursor(target, ev.Src)
				a.state.bump(func(st *Stats) { st.GratuitousRREPs++ })
				a.sendRREP(ctx, msg.Originator, target, e.SeqNum, uint8(best.Metric), ev.Src, true)
				return nil
			}
		}
	}
	if msg.HopLimit <= 1 {
		return nil
	}
	a.state.bump(func(st *Stats) { st.RREQForwards++ })
	ctx.Emit(event.Relay(event.REOut, msg, mnet.Broadcast))
	return nil
}

// sendRREP unicasts a route reply towards reqOrig. target/targetSeq name
// the destination the reply answers for; hopsToTarget seeds the metric for
// gratuitous replies.
func (a *AODV) sendRREP(ctx *core.Context, reqOrig, target mnet.Addr, targetSeq uint16, hopsToTarget uint8, via mnet.Addr, gratuitous bool) {
	rrep := &packetbb.Message{
		Type:       packetbb.MsgRREP,
		Originator: target,
		SeqNum:     targetSeq,
		HopLimit:   netDiameter,
		HopCount:   hopsToTarget,
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{reqOrig}}},
	}
	if !gratuitous {
		a.state.bump(func(st *Stats) { st.RREPSent++ })
	}
	ctx.Emit(&event.Event{Type: event.REOut, Msg: rrep, Dst: via})
}

func (a *AODV) onRREP(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	reqOrig := msg.AddrBlocks[0].Addrs[0]
	metric := int(msg.HopCount) + 1

	a.learnRoute(ctx, msg.Originator, ev.Src, metric, msg.SeqNum)
	if reqOrig == ctx.Node() {
		return nil
	}
	_, p, err := a.state.Routes.Lookup(reqOrig)
	if err != nil || msg.HopLimit <= 1 {
		return nil
	}
	// Precursor bookkeeping: the next hop towards the originator will use
	// us to reach the target, and vice versa.
	a.state.addPrecursor(msg.Originator, p.NextHop)
	a.state.addPrecursor(reqOrig, ev.Src)

	ctx.Emit(event.Relay(event.REOut, msg, p.NextHop))
	return nil
}

// LinkLost implements reactive.Rules: it drops routes through the broken
// hop and notifies each destination's precursors with unicast RERRs.
func (a *AODV) LinkLost(ctx *core.Context, nextHop mnet.Addr) {
	affected := a.state.Routes.InvalidateVia(nextHop)
	for _, dst := range affected {
		precursors := a.state.takePrecursors(dst)
		if len(precursors) == 0 {
			continue
		}
		msg := a.buildRERR(ctx, []mnet.Addr{dst})
		for _, up := range precursors {
			out := *msg
			ctx.Emit(&event.Event{Type: event.RerrOut, Msg: &out, Dst: up})
		}
	}
}

func (a *AODV) onSendRouteErr(ctx *core.Context, ev *event.Event) error {
	if ev.Route == nil {
		return nil
	}
	// We have no route for transit traffic: tell the packet's source side.
	msg := a.buildRERR(ctx, []mnet.Addr{ev.Route.Dst})
	ctx.Emit(&event.Event{Type: event.RerrOut, Msg: msg, Dst: mnet.Broadcast})
	return nil
}

func (a *AODV) buildRERR(ctx *core.Context, unreachable []mnet.Addr) *packetbb.Message {
	a.state.bump(func(st *Stats) { st.RERRSent++ })
	return &packetbb.Message{
		Type:       packetbb.MsgRERR,
		Originator: ctx.Node(),
		SeqNum:     a.state.NextSeq(),
		HopLimit:   netDiameter,
		AddrBlocks: []packetbb.AddrBlock{{Addrs: unreachable}},
	}
}

func (a *AODV) onRERR(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	if msg == nil || msg.Originator == ctx.Node() || len(msg.AddrBlocks) == 0 {
		return nil
	}
	if a.state.Duplicate(reactive.Key{Orig: msg.Originator, Seq: msg.SeqNum}, ctx.Clock().Now()) {
		return nil
	}
	for _, dead := range msg.AddrBlocks[0].Addrs {
		e, ok := a.state.Routes.Get(dead)
		if !ok || !e.Valid {
			continue
		}
		uses := false
		for _, path := range e.Paths {
			if path.NextHop == ev.Src {
				uses = true
				break
			}
		}
		if !uses {
			continue
		}
		a.state.Routes.Invalidate(dead)
		// Propagate to our own precursors for this destination while the
		// hop limit allows another hop.
		precursors := a.state.takePrecursors(dead)
		if msg.HopLimit <= 1 {
			continue
		}
		for _, up := range precursors {
			fwd := msg.Clone()
			fwd.HopLimit--
			ctx.Emit(&event.Event{Type: event.RerrOut, Msg: fwd, Dst: up})
		}
	}
	return nil
}
