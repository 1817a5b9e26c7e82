// Package zrp implements a zone-routing hybrid protocol in the style of
// ZRP (Haas et al., the paper's §2 hybrid category) as a MANETKit
// composition — the protocol *hybridisation* the paper names as future
// work (§7), built almost entirely from existing building blocks:
//
//   - IARP (intrazone, proactive): the MPR CF's link sensing already
//     yields the radius-2 zone (symmetric neighbours + their symmetric
//     neighbours); ZRP folds it straight into its routing table, so
//     in-zone destinations never need discovery.
//   - IERP (interzone, reactive): DYMO-style route requests, with the
//     hybrid twist that any node whose *zone* contains the target answers
//     on its behalf — discoveries terminate a zone radius early and
//     floods stay shallower than pure reactive routing.
//
// ZRP stacks on an MPR CF exactly like OLSR does (Fig 5's pattern) and is
// deployed/undeployed like any other ManetProtocol.
package zrp

import (
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/mpr"
	"manetkit/internal/neighbor"
	"manetkit/internal/packetbb"
	"manetkit/internal/reactive"
	"manetkit/internal/route"
	"manetkit/internal/system"
)

// UnitName is the ZRP CF's default unit name.
const UnitName = "zrp"

// tlvZoneDist carries, on a ZRP RREP, the answering node's distance to the
// target (u8) so reply forwarders can compute full path metrics.
const tlvZoneDist uint8 = 66

// ZRP timing and search parameters. The ZRP drafts leave these open; the
// values are implementation choices, the reactive ones DYMO's.
const (
	// routeLifetime is the reactive (interzone) route validity.
	routeLifetime = 5 * time.Second
	// zoneHold is the proactive in-zone route validity, refreshed
	// continuously from link state.
	zoneHold = 7 * time.Second
	// rreqWait is the first discovery attempt's reply wait, doubled per
	// retry.
	rreqWait = time.Second
	// rreqTries bounds discovery attempts.
	rreqTries = 3
	// hopLimit caps interzone control propagation.
	hopLimit = 10
)

// Stats counts ZRP activity.
type Stats struct {
	reactive.Counts        // interzone discoveries
	IntrazoneHits   uint64 // NO_ROUTE satisfied proactively
	RREQForwards    uint64
	ZoneAnswers     uint64 // RREPs sent because the target was in our zone
	TerminalAnswers uint64 // RREPs sent by the target itself
}

// State is the ZRP CF's S element.
type State struct {
	reactive.State

	stats Stats
}

// Stats returns a snapshot of the protocol counters.
func (s *State) Stats() Stats {
	s.Lock()
	defer s.Unlock()
	st := s.stats
	st.Counts = s.Counts
	return st
}

// readMetrics reports the counters behind zrp_* to a metrics registry.
func (s *State) readMetrics(emit func(name string, v uint64)) {
	st := s.Stats()
	emit("zrp_intrazone_hits", st.IntrazoneHits)
	emit("zrp_discoveries", st.Discoveries)
	emit("zrp_zone_answers", st.ZoneAnswers)
	emit("zrp_terminal_answers", st.TerminalAnswers)
}

func (s *State) bump(fn func(*Stats)) {
	s.Lock()
	fn(&s.stats)
	s.Unlock()
}

// ZRP is the hybrid zone-routing CF.
type ZRP struct {
	proto *core.Protocol
	relay *mpr.MPR
	state *State
	disc  reactive.Discovery

	// Zone scratch, reused across calls so a steady-state IARP pass and a
	// zone lookup stay allocation-free. Guarded by the protocol's critical
	// section, inside which every reader runs.
	zoneScratch []route.ProtoRoute
	zoneSyms    []mnet.Addr
	zoneWalk    []neighbor.TwoHop
}

// New builds a ZRP CF stacked on the given MPR CF (which supplies the
// zone's link state). The zone radius is fixed at 2 — the radius the MPR
// CF's link state provides for free. The route table binds to the
// deployment on first start (system.BindRoutes).
func New(name string, relay *mpr.MPR) *ZRP {
	if name == "" {
		name = UnitName
	}
	z := &ZRP{proto: core.NewProtocol(name), relay: relay, state: &State{}}
	z.state.Init()
	z.disc = reactive.NewDiscovery(z.proto, &z.state.State, z, routeLifetime)

	z.proto.SetTuple(event.Tuple{
		Required: []event.Requirement{
			{Type: event.REIn},
			{Type: event.NhoodChange},
			{Type: event.NoRoute, Exclusive: true},
			{Type: event.RouteUpdate},
			{Type: event.LinkBreak},
		},
		Provided: []event.Type{event.REOut, event.RouteFound},
	})
	if err := z.proto.SetState(core.NewStateComponent("state", z.state)); err != nil {
		panic(err)
	}
	z.proto.Provide("IZRPState", z.state)

	for _, h := range []core.Handler{
		core.NewHandler("re-handler", event.REIn, z.onRE),
		core.NewHandler("nhood-handler", event.NhoodChange, z.onNhood),
		core.NewHandler("noroute-handler", event.NoRoute, z.onNoRoute),
		core.NewHandler("routeupdate-handler", event.RouteUpdate, z.disc.OnRouteUpdate),
		core.NewHandler("linkbreak-handler", event.LinkBreak, z.disc.OnLinkBreak),
	} {
		if err := z.proto.AddHandler(h); err != nil {
			panic(err)
		}
	}
	// IARP refresh: fold the zone's link state into the table continuously.
	if err := z.proto.AddSource(core.NewSource("iarp-refresh", zoneHold/3, 0, z.refreshZone)); err != nil {
		panic(err)
	}
	if err := z.proto.AddSource(core.NewSource("route-sweep", routeLifetime/2, 0, z.disc.Sweep)); err != nil {
		panic(err)
	}
	z.proto.SetCounters(z.state.readMetrics)
	z.proto.OnStart(func(ctx *core.Context) error {
		system.BindRoutes(ctx, z.state.Routes)
		return nil
	})
	z.proto.OnStop(z.disc.Stop)
	return z
}

// Protocol returns the ZRP CF as a deployable unit.
func (z *ZRP) Protocol() *core.Protocol { return z.proto }

// State returns the S element value.
func (z *ZRP) State() *State { return z.state }

// Routes returns the protocol's routing table.
func (z *ZRP) Routes() *route.Table { return z.state.Routes }

// zoneDistance returns this node's distance to dst within its radius-2
// zone: 1 (symmetric neighbour), 2 (2-hop), or 0 when out of zone. via is
// the first hop towards it.
func (z *ZRP) zoneDistance(self, dst mnet.Addr) (dist int, via mnet.Addr) {
	links := z.relay.State().Links
	if st, ok := links.StatusOf(dst); ok && st == neighbor.StatusSymmetric {
		return 1, dst
	}
	z.zoneWalk = links.AppendTwoHop(z.zoneWalk[:0], self)
	for _, p := range z.zoneWalk {
		if p.Dst == dst { // the walk is sorted by (Dst, Via): the smallest via
			return 2, p.Via
		}
	}
	return 0, mnet.Addr{}
}

// refreshZone is IARP: install proactive routes for the whole zone, the
// symmetric neighbours and then the 2-hop destinations, each in address
// order and each 2-hop destination through its smallest via. The desired
// set goes through the table's keep-better diff install (RefreshProto) in
// one batch: shorter reactive (IERP) routes survive with their lifetimes
// extended, unchanged zone routes refresh in place without touching the
// FIB, and nothing outside the zone is removed. Calls run inside the
// protocol's critical section, which serialises use of the scratch.
func (z *ZRP) refreshZone(ctx *core.Context) {
	links := z.relay.State().Links
	expiry := ctx.Clock().Now().Add(zoneHold)
	desired := z.zoneScratch[:0]
	z.zoneSyms = links.AppendSymmetricAddrs(z.zoneSyms[:0])
	for _, nb := range z.zoneSyms {
		desired = append(desired, route.ProtoRoute{
			Dst: mnet.HostPrefix(nb), NextHop: nb, Metric: 1, Expires: expiry,
		})
	}
	z.zoneWalk = links.AppendTwoHop(z.zoneWalk[:0], ctx.Node())
	for i, p := range z.zoneWalk {
		if i > 0 && z.zoneWalk[i-1].Dst == p.Dst {
			continue // a further via to a destination already routed
		}
		desired = append(desired, route.ProtoRoute{
			Dst: mnet.HostPrefix(p.Dst), NextHop: p.Via, Metric: 2, Expires: expiry,
		})
	}
	z.zoneScratch = desired[:0]
	z.state.Routes.RefreshProto(z.proto.Name(), desired)
}

// onNhood keeps the zone fresh on membership changes and invalidates
// through lost neighbours.
func (z *ZRP) onNhood(ctx *core.Context, ev *event.Event) error {
	if ev.Nhood != nil && ev.Nhood.Kind == event.NeighborLost {
		z.LinkLost(ctx, ev.Nhood.Neighbor)
	}
	z.refreshZone(ctx)
	return nil
}

// onNoRoute: in-zone targets are satisfied proactively (IARP); out-of-zone
// targets start an interzone discovery (IERP).
func (z *ZRP) onNoRoute(ctx *core.Context, ev *event.Event) error {
	if ev.Route == nil {
		return nil
	}
	dst := ev.Route.Dst
	if dist, via := z.zoneDistance(ctx.Node(), dst); dist > 0 {
		// The zone already covers it: install and release the packet.
		z.state.Routes.Upsert(route.Entry{
			Dst:   mnet.HostPrefix(dst),
			Paths: []route.Path{{NextHop: via, Metric: dist, Expires: ctx.Clock().Now().Add(zoneHold)}},
			Valid: true,
			Proto: z.proto.Name(),
		})
		z.state.bump(func(st *Stats) { st.IntrazoneHits++ })
		ctx.Emit(&event.Event{Type: event.RouteFound, Route: &event.RoutePayload{Dst: dst}})
		return nil
	}
	z.disc.Start(ctx, dst, hopLimit)
	return nil
}

// SendRREQ implements reactive.Rules: it broadcasts one interzone
// discovery attempt and backs off binary-exponentially.
func (z *ZRP) SendRREQ(ctx *core.Context, dst mnet.Addr, attempt int, ttl uint8) time.Duration {
	seq := z.state.NextSeq()
	msg := &packetbb.Message{
		Type:       packetbb.MsgRREQ,
		Originator: ctx.Node(),
		SeqNum:     seq,
		HopLimit:   ttl,
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{dst}}},
	}
	z.state.Duplicate(reactive.Key{Orig: ctx.Node(), Seq: seq}, ctx.Clock().Now())
	ctx.Emit(&event.Event{Type: event.REOut, Msg: msg, Dst: mnet.Broadcast})
	return rreqWait << (attempt - 1)
}

// NextAttempt implements reactive.Rules: every attempt floods at the same
// hop limit, up to rreqTries attempts.
func (z *ZRP) NextAttempt(attempt int, ttl uint8) (uint8, bool) {
	return ttl, attempt < rreqTries
}

// LinkLost implements reactive.Rules: it drops the routes through hop.
func (z *ZRP) LinkLost(_ *core.Context, hop mnet.Addr) { z.state.Routes.InvalidateVia(hop) }

// learn installs/refreshes a reactive route.
func (z *ZRP) learn(ctx *core.Context, node, via mnet.Addr, metric int) {
	if node == ctx.Node() {
		return
	}
	if metric < 1 {
		metric = 1
	}
	now := ctx.Clock().Now()
	if e, ok := z.state.Routes.Get(node); ok && e.Valid {
		if best, has := e.Best(now); has && best.Metric <= metric {
			z.state.Routes.ExtendLifetime(node, mnet.Addr{}, routeLifetime)
			z.disc.Found(ctx, node)
			return
		}
	}
	z.state.Routes.Upsert(route.Entry{
		Dst:   mnet.HostPrefix(node),
		Paths: []route.Path{{NextHop: via, Metric: metric, Expires: now.Add(routeLifetime)}},
		Valid: true,
		Proto: z.proto.Name(),
	})
	z.disc.Found(ctx, node)
}

func (z *ZRP) onRE(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	if msg == nil || msg.Originator == ctx.Node() || len(msg.AddrBlocks) == 0 {
		return nil
	}
	switch msg.Type {
	case packetbb.MsgRREQ:
		return z.onRREQ(ctx, ev)
	case packetbb.MsgRREP:
		return z.onRREP(ctx, ev)
	default:
		return nil
	}
}

func (z *ZRP) onRREQ(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	target := msg.AddrBlocks[0].Addrs[0]
	now := ctx.Clock().Now()
	z.learn(ctx, msg.Originator, ev.Src, int(msg.HopCount)+1)

	if z.state.Duplicate(reactive.Key{Orig: msg.Originator, Seq: msg.SeqNum}, now) {
		return nil
	}
	// The hybrid answer: the target itself, or any node whose zone covers
	// the target, replies — the discovery terminates a zone radius early.
	if target == ctx.Node() {
		z.state.bump(func(st *Stats) { st.TerminalAnswers++ })
		z.sendRREP(ctx, msg.Originator, target, 0, ev.Src)
		return nil
	}
	if dist, _ := z.zoneDistance(ctx.Node(), target); dist > 0 {
		z.state.bump(func(st *Stats) { st.ZoneAnswers++ })
		z.sendRREP(ctx, msg.Originator, target, uint8(dist), ev.Src)
		return nil
	}
	if msg.HopLimit <= 1 {
		return nil
	}
	z.state.bump(func(st *Stats) { st.RREQForwards++ })
	ctx.Emit(event.Relay(event.REOut, msg, mnet.Broadcast))
	return nil
}

// sendRREP answers for target, zoneDist hops away from this node.
func (z *ZRP) sendRREP(ctx *core.Context, reqOrig, target mnet.Addr, zoneDist uint8, via mnet.Addr) {
	rrep := &packetbb.Message{
		Type:       packetbb.MsgRREP,
		Originator: target,
		SeqNum:     z.state.NextSeq(),
		HopLimit:   hopLimit,
		TLVs:       []packetbb.TLV{{Type: tlvZoneDist, Value: packetbb.U8(zoneDist)}},
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{reqOrig}}},
	}
	ctx.Emit(&event.Event{Type: event.REOut, Msg: rrep, Dst: via})
}

func (z *ZRP) onRREP(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	reqOrig := msg.AddrBlocks[0].Addrs[0]
	zoneDist := 0
	if tlv, ok := msg.FindTLV(tlvZoneDist); ok {
		if v, err := packetbb.ParseU8(tlv.Value); err == nil {
			zoneDist = int(v)
		}
	}
	// Our distance to the target: hops the RREP travelled plus the
	// answering node's zone distance.
	z.learn(ctx, msg.Originator, ev.Src, int(msg.HopCount)+1+zoneDist)

	if reqOrig == ctx.Node() {
		return nil
	}
	_, p, err := z.state.Routes.Lookup(reqOrig)
	if err != nil || msg.HopLimit <= 1 {
		return nil
	}
	ctx.Emit(event.Relay(event.REOut, msg, p.NextHop))
	return nil
}
