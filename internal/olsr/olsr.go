package olsr

import (
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/mpr"
	"manetkit/internal/neighbor"
	"manetkit/internal/packetbb"
	"manetkit/internal/route"
	"manetkit/internal/system"
	"manetkit/internal/vclock"
)

// UnitName is the OLSR CF's default unit name.
const UnitName = "olsr"

// TLVResidualPower is the TC message TLV carrying residual battery (u8
// percent) in the power-aware variant.
const TLVResidualPower uint8 = 10

// OLSR timing.
const (
	// TCInterval is the topology-control emission period: RFC 3626 §18.2
	// TC_INTERVAL.
	TCInterval = 5 * time.Second
	// tcJitter is the fractional TC jitter (interval × (1 ± 0.1), at most
	// 0.5 s): RFC 3626 §18.8 MAXJITTER, HELLO_INTERVAL/4.
	tcJitter = 0.1
	// topologyHold is a topology tuple's validity: RFC 3626 §18.3
	// TOP_HOLD_TIME, 3 × TC_INTERVAL.
	topologyHold = 3 * TCInterval
)

// OLSR is the OLSR ManetProtocol CF, stacked on an MPR CF instance.
type OLSR struct {
	proto *core.Protocol
	m     *mpr.MPR
	state *State

	// Recompute coalescing state, guarded by the protocol's critical
	// section (handlers, sources and RunLocked callbacks all hold it).
	dirty      bool        // route set may be stale
	drainTimer *drainArm   // armed quantized drain, nil when idle
	spare      []*drainArm // arms whose timer has fired, for reuse
}

// drainArm is one drain timer with its callbacks, bound once so that
// re-arming it allocates nothing. An arm fires once per arming and returns
// to the spares from inside the critical section when it does.
type drainArm struct {
	o     *OLSR
	clk   vclock.Clock
	t     vclock.Timer
	drain func(*core.Context)
}

// New builds an OLSR CF using the given MPR CF for link sensing, relay
// selection and optimised flooding. Deploy both units into the same
// Manager; their event tuples wire them together automatically. The route
// table binds to the deployment on first start (system.BindRoutes).
func New(name string, relay *mpr.MPR) *OLSR {
	if name == "" {
		name = UnitName
	}
	o := &OLSR{
		proto: core.NewProtocol(name),
		m:     relay,
		state: NewState(route.NewTable(nil)),
	}

	o.proto.SetTuple(event.Tuple{
		Required: []event.Requirement{
			{Type: event.TCIn},
			{Type: event.NhoodChange},
			{Type: event.MPRChange},
		},
		Provided: []event.Type{event.TCOut},
	})
	if err := o.proto.SetState(core.NewStateComponent("state", o.state)); err != nil {
		panic(err)
	}
	o.proto.Provide("IOLSRState", o.state)

	for _, h := range []core.Handler{
		core.NewHandler("tc-handler", event.TCIn, o.onTC),
		core.NewHandler("nhood-handler", event.NhoodChange, o.onNhood),
		core.NewHandler("mpr-handler", event.MPRChange, o.onMPRChange),
	} {
		if err := o.proto.AddHandler(h); err != nil {
			panic(err)
		}
	}
	if err := o.proto.AddSource(core.NewSource("tc-generator", TCInterval, tcJitter, o.emitTC)); err != nil {
		panic(err)
	}
	// Periodic purge/recompute at 1/5 the TC interval.
	if err := o.proto.AddSource(core.NewSource("topo-sweep", TCInterval/5, 0, o.sweep)); err != nil {
		panic(err)
	}
	o.proto.SetCounters(o.state.readMetrics)
	o.proto.OnStart(func(ctx *core.Context) error {
		system.BindRoutes(ctx, o.state.Routes)
		return nil
	})
	o.proto.OnStop(func(ctx *core.Context) error {
		if o.drainTimer != nil {
			o.drainTimer.t.Stop()
			o.drainTimer = nil
		}
		o.dirty = false
		o.state.ClearRoutes()
		return nil
	})
	return o
}

// Protocol returns the OLSR CF as a deployable unit.
func (o *OLSR) Protocol() *core.Protocol { return o.proto }

// State returns the S element value.
func (o *OLSR) State() *State { return o.state }

// Routes returns the protocol's routing table.
func (o *OLSR) Routes() *route.Table { return o.state.Routes }

// BuildTC assembles this node's topology-control message, advertising a
// copy of the MPR selector set the message owns. Exported for benchmarks.
func (o *OLSR) BuildTC(self mnet.Addr) *packetbb.Message {
	msg := &packetbb.Message{
		Type:       packetbb.MsgTC,
		Originator: self,
		HopLimit:   255,
		HopCount:   0,
		SeqNum:     o.state.NextMsgSeq(),
		TLVs: []packetbb.TLV{
			{Type: packetbb.TLVANSN, Value: packetbb.U16(o.state.ANSN())},
		},
	}
	if tlv, ok := o.powerTLV(); ok {
		msg.TLVs = append(msg.TLVs, tlv)
	}
	if sel := o.m.State().Selectors(); len(sel) > 0 {
		msg.AddrBlocks = append(msg.AddrBlocks, packetbb.AddrBlock{Addrs: sel})
	}
	return msg
}

// emitTC sends this node's TC, periodic or triggered. Only nodes selected
// as relays advertise (RFC 3626 §9.3).
func (o *OLSR) emitTC(ctx *core.Context) {
	if o.m.State().SelectorCount() == 0 {
		return
	}
	msg := o.BuildTC(ctx.Node())
	o.m.Flooder().Seen(ctx.Node(), msg.SeqNum, ctx.Clock().Now())
	o.state.tcTx.Add(1)
	ctx.Emit(&event.Event{Type: event.TCOut, Msg: msg, Dst: mnet.Broadcast})
}

// onTC folds one received TC into the topology set and decides forwarding.
func (o *OLSR) onTC(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	if msg == nil || msg.Originator == ctx.Node() {
		return nil
	}
	// Per RFC 3626 §9.5: discard TCs whose previous hop is not a symmetric
	// neighbour.
	if st, ok := o.m.State().Links.StatusOf(ev.Src); !ok || st != neighbor.StatusSymmetric {
		return nil
	}
	o.state.tcRx.Add(1)
	ansn := uint16(0)
	if tlv, ok := msg.FindTLV(packetbb.TLVANSN); ok {
		if v, err := packetbb.ParseU16(tlv.Value); err == nil {
			ansn = v
		}
	}
	// The message is shared by every receiver of the transmission: hand
	// RecordTC its address block in place (it only reads), and concatenate
	// only when a TC carries several.
	var advertised []mnet.Addr
	if len(msg.AddrBlocks) == 1 {
		advertised = msg.AddrBlocks[0].Addrs
	} else {
		for bi := range msg.AddrBlocks {
			advertised = append(advertised, msg.AddrBlocks[bi].Addrs...)
		}
	}
	now := ctx.Clock().Now()
	changed := o.state.RecordTC(msg.Originator, ansn, advertised, now.Add(topologyHold))

	if changed {
		o.markDirty(ctx)
	}
	// MPR-optimised flood forwarding.
	if msg.HopLimit > 1 && o.m.Flooder().ShouldForward(msg.Originator, msg.SeqNum, ev.Src, now) {
		o.state.tcFwd.Add(1)
		ctx.Emit(event.Relay(event.TCOut, msg, mnet.Broadcast))
	}
	return nil
}

func (o *OLSR) onNhood(ctx *core.Context, ev *event.Event) error {
	o.markDirty(ctx)
	return nil
}

func (o *OLSR) onMPRChange(ctx *core.Context, ev *event.Event) error {
	// The advertised (selector) set changed: bump ANSN and send a
	// triggered TC so topology propagates ahead of the periodic timer.
	o.state.BumpANSN()
	o.state.mprChanges.Add(1)
	o.emitTC(ctx)
	o.markDirty(ctx)
	return nil
}

func (o *OLSR) sweep(ctx *core.Context) {
	o.state.PurgeTopo(ctx.Clock().Now())
	o.state.compactIndex()
	// Recompute unconditionally: some neighbourhood changes reach the
	// routes only through this pass, not through an event that marks the
	// set dirty. The sweep already runs on a periodic source, so it drains
	// inline rather than going through the quantized timer.
	o.dirty = true
	o.drainLocked(ctx)
}

// markDirty notes that the route set may be stale and arms at most one
// vclock timer to drain the recompute at the next boundary of the
// TCInterval/50 quantum, so a TC flood burst costs one shortest-path run
// instead of one per message, with staleness bounded by the quantum.
// Quantizing the deadline (rather than "now + interval") makes the drain
// instant a deterministic function of virtual time, so replays are
// byte-identical regardless of which trigger fired first. An arm whose
// timer has fired on this clock is re-armed with Reset, which stamps it as
// a fresh AfterFunc would; a burst allocates only when every arm is still
// pending. Called only inside the protocol's critical section, which is
// what makes the flag and the arms safe without a lock of their own.
func (o *OLSR) markDirty(ctx *core.Context) {
	o.dirty = true
	if o.drainTimer != nil {
		return
	}
	clk := ctx.Clock()
	now := clk.Now()
	q := TCInterval / 50
	d := now.Truncate(q).Add(q).Sub(now)
	if n := len(o.spare); n > 0 && o.spare[n-1].clk == clk {
		o.drainTimer, o.spare = o.spare[n-1], o.spare[:n-1]
		o.drainTimer.t.Reset(d)
		return
	}
	a := &drainArm{o: o, clk: clk}
	a.drain = func(ctx *core.Context) {
		a.o.spare = append(a.o.spare, a)
		a.o.drainLocked(ctx)
	}
	// The callback runs outside the critical section and re-enters it. A
	// stopped deployment reports ErrNotDeployed: the recompute is moot then,
	// and the arm is dropped.
	a.t = clk.AfterFunc(d, func() { _ = a.o.proto.RunLocked(a.drain) })
	o.drainTimer = a
}

// drainLocked runs the coalesced recompute if one is pending. Critical
// section held by the caller. The sweep calls it inline with an arm still
// pending: that arm fires later all the same, and drains nothing unless a
// change marked the set dirty since.
func (o *OLSR) drainLocked(ctx *core.Context) {
	o.drainTimer = nil
	if !o.dirty {
		return
	}
	o.dirty = false
	o.recompute(ctx)
}

// recompute runs the shortest-path pass on the symmetric neighbours and the
// 2-hop walk, read into its scratch, and diff-installs what changed.
func (o *OLSR) recompute(ctx *core.Context) {
	links, sc := o.m.State().Links, &o.state.scratch
	sc.oneHop = links.AppendSymmetricAddrs(sc.oneHop[:0])
	sc.walk = links.AppendTwoHop(sc.walk[:0], ctx.Node())
	set, del, _ := o.state.routeDelta(ctx.Node(), sc.oneHop, sc.walk, ctx.Clock().Now())
	o.state.Routes.ApplyProto(o.proto.Name(), set, del)
}
