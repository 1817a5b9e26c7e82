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
	"manetkit/internal/vclock"
)

// UnitName is the OLSR CF's default unit name.
const UnitName = "olsr"

// TLVResidualPower is the TC message TLV carrying residual battery (u8
// percent) in the power-aware variant.
const TLVResidualPower uint8 = 10

// Config parameterises the OLSR CF.
type Config struct {
	// TCInterval is the topology-control emission period (default 5s).
	TCInterval time.Duration
	// Jitter is the fractional TC jitter (default 0.1).
	Jitter float64
	// TopologyHold is the topology tuple validity (default 3×TCInterval).
	TopologyHold time.Duration
	// FIB, when non-nil, receives the protocol's routes (the kernel table).
	FIB *route.FIB
	// Device names the FIB device for installed routes.
	Device string
	// Clock drives the routing table's lifetimes; defaults to the
	// deployment clock at attach time — set it explicitly only in tests
	// that use the state before deployment.
	Clock vclock.Clock
}

func (c *Config) fill() {
	if c.TCInterval <= 0 {
		c.TCInterval = 5 * time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
	if c.TopologyHold <= 0 {
		c.TopologyHold = 3 * c.TCInterval
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
}

// OLSR is the OLSR ManetProtocol CF, stacked on an MPR CF instance.
type OLSR struct {
	proto *core.Protocol
	m     *mpr.MPR
	state *State
	cfg   Config

	// Recompute coalescing state, guarded by the protocol's critical
	// section (handlers, sources and RunLocked callbacks all hold it).
	dirty      bool         // route set may be stale
	drainTimer vclock.Timer // armed quantized drain, nil when idle
}

// New builds an OLSR CF using the given MPR CF for link sensing, relay
// selection and optimised flooding. Deploy both units into the same
// Manager; their event tuples wire them together automatically.
func New(name string, relay *mpr.MPR, cfg Config) *OLSR {
	if name == "" {
		name = UnitName
	}
	cfg.fill()
	o := &OLSR{
		proto: core.NewProtocol(name),
		m:     relay,
		cfg:   cfg,
	}
	rt := route.NewTable(cfg.Clock)
	if cfg.FIB != nil {
		rt.SyncFIB(cfg.FIB, cfg.Device)
	}
	o.state = NewState(rt)

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
	if err := o.proto.AddSource(core.NewSource("tc-generator", cfg.TCInterval, cfg.Jitter, o.emitTC)); err != nil {
		panic(err)
	}
	// Periodic purge/recompute at 1/5 the TC interval.
	if err := o.proto.AddSource(core.NewSource("topo-sweep", cfg.TCInterval/5, 0, o.sweep)); err != nil {
		panic(err)
	}
	o.proto.SetCounters(o.state.readMetrics)
	o.proto.OnStop(func(ctx *core.Context) error {
		if o.drainTimer != nil {
			o.drainTimer.Stop()
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

// BuildTC assembles this node's topology-control message, advertising the
// MPR selector set. Exported for the micro-benchmarks.
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

func (o *OLSR) emitTC(ctx *core.Context) {
	// Only nodes selected as relays advertise (RFC 3626 §9.3).
	if len(o.m.State().Selectors()) == 0 {
		return
	}
	msg := o.BuildTC(ctx.Node())
	o.m.Flooder().Seen(ctx.Node(), msg.SeqNum, ctx.Clock().Now())
	o.state.tcTx.Add(1)
	ctx.Emit(&event.Event{Type: event.TCOut, Msg: msg, Dst: mnet.Broadcast})
}

// ProcessTC folds one received TC into the topology set and decides
// forwarding; exported for the time-to-process benchmark (Table 1).
func (o *OLSR) ProcessTC(ctx *core.Context, ev *event.Event) error {
	return o.onTC(ctx, ev)
}

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
	changed := o.state.RecordTC(msg.Originator, ansn, advertised, now.Add(o.cfg.TopologyHold))

	// Power-aware: learn the originator's residual battery.
	if tlv, ok := msg.FindTLV(TLVResidualPower); ok {
		if v, err := packetbb.ParseU8(tlv.Value); err == nil {
			o.state.SetPower(msg.Originator, float64(v)/100)
		}
	}
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
	if len(o.m.State().Selectors()) > 0 {
		msg := o.BuildTC(ctx.Node())
		o.m.Flooder().Seen(ctx.Node(), msg.SeqNum, ctx.Clock().Now())
		o.state.tcTx.Add(1)
		ctx.Emit(&event.Event{Type: event.TCOut, Msg: msg, Dst: mnet.Broadcast})
	}
	o.markDirty(ctx)
	return nil
}

func (o *OLSR) sweep(ctx *core.Context) {
	o.state.PurgeTopo(ctx.Clock().Now())
	o.state.compactIndex()
	// Recompute unconditionally: some neighbourhood changes reach the
	// routes only through this pass, not through an event that marks the
	// set dirty. The sweep already runs on a periodic source, so it drains
	// inline rather than going through the quantized timer. The pass also
	// drops expired gateway associations, so no installed route is past
	// its lifetime afterwards.
	o.dirty = true
	o.drainLocked(ctx)
}

// markDirty notes that the route set may be stale and arms at most one
// vclock timer to drain the recompute at the next boundary of the
// TCInterval/50 quantum, so a TC flood burst costs one shortest-path run
// instead of one per message, with staleness bounded by the quantum.
// Quantizing the deadline (rather than "now + interval") makes the drain
// instant a deterministic function of virtual time, so replays are
// byte-identical regardless of which trigger fired first. Called only
// inside the protocol's critical section, which is what makes the flag and
// timer handle safe without a lock of their own.
func (o *OLSR) markDirty(ctx *core.Context) {
	o.dirty = true
	if o.drainTimer != nil {
		return
	}
	clk := ctx.Clock()
	now := clk.Now()
	q := o.cfg.TCInterval / 50
	fire := now.Truncate(q).Add(q)
	o.drainTimer = clk.AfterFunc(fire.Sub(now), func() {
		// The timer callback runs outside the critical section; re-enter it
		// to drain. A stopped deployment reports ErrNotDeployed — the
		// pending recompute is moot then.
		_ = o.proto.RunLocked(o.drainLocked)
	})
}

// drainLocked runs the coalesced recompute if one is pending. Critical
// section held by the caller.
func (o *OLSR) drainLocked(ctx *core.Context) {
	o.drainTimer = nil
	if !o.dirty {
		return
	}
	o.dirty = false
	o.recompute(ctx)
}

func (o *OLSR) recompute(ctx *core.Context) {
	links := o.m.State().Links
	// ComputeRoutes resolves learned HNA prefixes against the fresh
	// shortest-path pass and diff-installs hosts and gateways in one batch.
	o.state.ComputeRoutes(
		ctx.Node(),
		links.SymmetricAddrs(),
		links.TwoHopSet(ctx.Node()),
		ctx.Clock().Now(),
		0,
		o.proto.Name(),
	)
}
