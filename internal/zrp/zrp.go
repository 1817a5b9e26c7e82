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
	"sort"
	"sync"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/mpr"
	"manetkit/internal/neighbor"
	"manetkit/internal/packetbb"
	"manetkit/internal/reactive"
	"manetkit/internal/route"
	"manetkit/internal/vclock"
)

// UnitName is the ZRP CF's default unit name.
const UnitName = "zrp"

// tlvZoneDist carries, on a ZRP RREP, the answering node's distance to the
// target (u8) so reply forwarders can compute full path metrics.
const tlvZoneDist uint8 = 66

// Config parameterises the ZRP CF. The zone radius is fixed at 2 — the
// radius the MPR CF's link state provides for free.
type Config struct {
	// RouteLifetime is the reactive-route validity (default 5s).
	RouteLifetime time.Duration
	// ZoneHold is the proactive in-zone route validity (default 7s,
	// refreshed continuously from link state).
	ZoneHold time.Duration
	// RREQWait is the per-attempt reply wait (default 1s).
	RREQWait time.Duration
	// RREQTries bounds discovery attempts (default 3).
	RREQTries int
	// HopLimit caps interzone control propagation (default 10).
	HopLimit uint8
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
	if c.ZoneHold <= 0 {
		c.ZoneHold = 7 * time.Second
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

// Stats counts ZRP activity.
type Stats struct {
	IntrazoneHits   uint64 // NO_ROUTE satisfied proactively
	Discoveries     uint64 // interzone discoveries started
	Retries         uint64
	GiveUps         uint64
	RREQForwards    uint64
	ZoneAnswers     uint64 // RREPs sent because the target was in our zone
	TerminalAnswers uint64 // RREPs sent by the target itself
}

// State is the ZRP CF's S element.
type State struct {
	Routes *route.Table

	mu      sync.Mutex
	seq     reactive.Seq
	pending reactive.Discoveries
	dupes   reactive.DupSet
	stats   Stats
}

// NewState returns an empty ZRP state.
func NewState(routes *route.Table) *State {
	return &State{
		Routes:  routes,
		pending: make(reactive.Discoveries),
	}
}

// NextSeq increments and returns the node's sequence number.
func (s *State) NextSeq() uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq.Next()
}

// Stats returns a snapshot of the protocol counters.
func (s *State) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
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
	s.mu.Lock()
	fn(&s.stats)
	s.mu.Unlock()
}

// duplicate records (orig, seq) and reports whether it was already known.
func (s *State) duplicate(orig mnet.Addr, seq uint16, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dupes.Seen(reactive.Key{Orig: orig, Seq: seq}, now)
}

// ZRP is the hybrid zone-routing CF.
type ZRP struct {
	proto *core.Protocol
	relay *mpr.MPR
	state *State
	cfg   Config

	// Zone-refresh scratch, reused across refreshes so a steady-state IARP
	// pass stays allocation-free. Guarded by the protocol's critical
	// section like the rest of the refresh path.
	zoneScratch []route.ProtoRoute
	zoneKeys    []mnet.Addr
}

// New builds a ZRP CF stacked on the given MPR CF (which supplies the
// zone's link state).
func New(name string, relay *mpr.MPR, cfg Config) *ZRP {
	if name == "" {
		name = UnitName
	}
	cfg.fill()
	z := &ZRP{proto: core.NewProtocol(name), relay: relay, cfg: cfg}
	rt := route.NewTable(cfg.Clock)
	if cfg.FIB != nil {
		rt.SyncFIB(cfg.FIB, cfg.Device)
	}
	z.state = NewState(rt)

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
		core.NewHandler("routeupdate-handler", event.RouteUpdate, z.onRouteUpdate),
		core.NewHandler("linkbreak-handler", event.LinkBreak, z.onLinkBreak),
	} {
		if err := z.proto.AddHandler(h); err != nil {
			panic(err)
		}
	}
	// IARP refresh: fold the zone's link state into the table continuously.
	if err := z.proto.AddSource(core.NewSource("iarp-refresh", cfg.ZoneHold/3, 0, z.refreshZone)); err != nil {
		panic(err)
	}
	if err := z.proto.AddSource(core.NewSource("route-sweep", cfg.RouteLifetime/2, 0, z.sweep)); err != nil {
		panic(err)
	}
	z.proto.SetCounters(z.state.readMetrics)
	z.proto.OnStop(func(ctx *core.Context) error {
		z.state.mu.Lock()
		z.state.pending.StopAll()
		z.state.mu.Unlock()
		z.state.Routes.Clear()
		return nil
	})
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
	if nb, ok := links.Get(dst); ok && nb.Status == neighbor.StatusSymmetric {
		return 1, dst
	}
	if vias, ok := links.TwoHopSet(self)[dst]; ok && len(vias) > 0 {
		return 2, vias[0]
	}
	return 0, mnet.Addr{}
}

// refreshZone is IARP: install proactive routes for the whole zone. The
// desired set goes through the table's keep-better diff install
// (RefreshProto) in one batch: shorter reactive (IERP) routes survive with
// their lifetimes extended, unchanged zone routes refresh in place without
// firing change callbacks or touching the FIB, and nothing outside the
// zone is removed. Calls run inside the protocol's critical section, which
// serialises use of the scratch buffers.
func (z *ZRP) refreshZone(ctx *core.Context) {
	now := ctx.Clock().Now()
	links := z.relay.State().Links
	expiry := now.Add(z.cfg.ZoneHold)
	desired := z.zoneScratch[:0]
	for _, nb := range links.Symmetric() {
		desired = append(desired, route.ProtoRoute{
			Dst: mnet.HostPrefix(nb.Addr), NextHop: nb.Addr, Metric: 1, Expires: expiry,
		})
	}
	twoHop := links.TwoHopSet(ctx.Node())
	keys := z.zoneKeys[:0]
	for dst := range twoHop {
		keys = append(keys, dst)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	for _, dst := range keys {
		vias := twoHop[dst]
		if len(vias) == 0 {
			continue
		}
		desired = append(desired, route.ProtoRoute{
			Dst: mnet.HostPrefix(dst), NextHop: vias[0], Metric: 2, Expires: expiry,
		})
	}
	z.zoneScratch, z.zoneKeys = desired[:0], keys[:0]
	z.state.Routes.RefreshProto(z.proto.Name(), desired)
}

// onNhood keeps the zone fresh on membership changes and invalidates
// through lost neighbours.
func (z *ZRP) onNhood(ctx *core.Context, ev *event.Event) error {
	if ev.Nhood != nil && ev.Nhood.Kind == event.NeighborLost {
		z.state.Routes.InvalidateVia(ev.Nhood.Neighbor)
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
			Paths: []route.Path{{NextHop: via, Metric: dist, Expires: ctx.Clock().Now().Add(z.cfg.ZoneHold)}},
			Valid: true,
			Proto: z.proto.Name(),
		})
		z.state.bump(func(st *Stats) { st.IntrazoneHits++ })
		ctx.Emit(&event.Event{Type: event.RouteFound, Route: &event.RoutePayload{Dst: dst}})
		return nil
	}
	z.state.mu.Lock()
	started := z.state.pending.Start(dst, ctx.Clock().Now())
	if started {
		z.state.stats.Discoveries++
	}
	z.state.mu.Unlock()
	if started {
		z.sendRREQ(ctx, dst, 1)
	}
	return nil
}

func (z *ZRP) sendRREQ(ctx *core.Context, dst mnet.Addr, attempt int) {
	seq := z.state.NextSeq()
	msg := &packetbb.Message{
		Type:       packetbb.MsgRREQ,
		Originator: ctx.Node(),
		SeqNum:     seq,
		HopLimit:   z.cfg.HopLimit,
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{dst}}},
	}
	z.state.duplicate(ctx.Node(), seq, ctx.Clock().Now())
	ctx.Emit(&event.Event{Type: event.REOut, Msg: msg, Dst: mnet.Broadcast})

	timer := ctx.Clock().AfterFunc(z.cfg.RREQWait<<(attempt-1), func() {
		_ = z.proto.RunLocked(func(ctx *core.Context) { z.retry(ctx, dst, attempt) })
	})
	z.state.mu.Lock()
	z.state.pending.Arm(dst, attempt, z.cfg.HopLimit, timer)
	z.state.mu.Unlock()
}

func (z *ZRP) retry(ctx *core.Context, dst mnet.Addr, attempt int) {
	z.state.mu.Lock()
	if _, ok := z.state.pending.Due(dst, attempt); !ok {
		z.state.mu.Unlock()
		return
	}
	if attempt >= z.cfg.RREQTries {
		z.state.pending.GiveUp(dst)
		z.state.stats.GiveUps++
		z.state.mu.Unlock()
		return
	}
	z.state.stats.Retries++
	z.state.mu.Unlock()
	z.sendRREQ(ctx, dst, attempt+1)
}

// learn installs/refreshes a reactive route.
func (z *ZRP) learn(ctx *core.Context, node, via mnet.Addr, metric int) {
	if node == ctx.Node() {
		return
	}
	if metric < 1 {
		metric = 1
	}
	now := ctx.Clock().Now()
	if e, ok := z.state.Routes.Get(mnet.HostPrefix(node)); ok && e.Valid {
		if best, has := e.Best(now); has && best.Metric <= metric {
			z.state.Routes.ExtendLifetime(mnet.HostPrefix(node), mnet.Addr{}, z.cfg.RouteLifetime)
			z.completeDiscovery(ctx, node)
			return
		}
	}
	z.state.Routes.Upsert(route.Entry{
		Dst:   mnet.HostPrefix(node),
		Paths: []route.Path{{NextHop: via, Metric: metric, Expires: now.Add(z.cfg.RouteLifetime)}},
		Valid: true,
		Proto: z.proto.Name(),
	})
	z.completeDiscovery(ctx, node)
}

func (z *ZRP) completeDiscovery(ctx *core.Context, dst mnet.Addr) {
	z.state.mu.Lock()
	_, ok := z.state.pending.Complete(dst)
	z.state.mu.Unlock()
	if ok {
		ctx.Emit(&event.Event{Type: event.RouteFound, Route: &event.RoutePayload{Dst: dst}})
	}
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

	if z.state.duplicate(msg.Originator, msg.SeqNum, now) {
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
		HopLimit:   z.cfg.HopLimit,
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

func (z *ZRP) onRouteUpdate(ctx *core.Context, ev *event.Event) error {
	if ev.Route == nil {
		return nil
	}
	z.state.Routes.ExtendLifetime(mnet.HostPrefix(ev.Route.Dst), mnet.Addr{}, z.cfg.RouteLifetime)
	return nil
}

func (z *ZRP) onLinkBreak(ctx *core.Context, ev *event.Event) error {
	if ev.Route == nil || ev.Route.NextHop.IsUnspecified() {
		return nil
	}
	z.state.Routes.InvalidateVia(ev.Route.NextHop)
	return nil
}

func (z *ZRP) sweep(ctx *core.Context) {
	z.state.Routes.PurgeExpired()
	z.state.mu.Lock()
	z.state.dupes.Sweep(ctx.Clock().Now(), reactive.DupHold, nil)
	z.state.mu.Unlock()
}
