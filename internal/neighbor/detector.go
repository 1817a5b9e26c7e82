package neighbor

import (
	"sort"
	"sync"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
)

// UnitName is the Neighbour Detection CF's default unit name.
const UnitName = "neighbor-detection"

// HELLO timing, shared with the MPR CF so the two link-sensing CFs beacon
// alike by construction.
const (
	// HelloInterval is the beacon period: RFC 3626 §18.2 HELLO_INTERVAL.
	HelloInterval = 2 * time.Second
	// HelloJitter is the fractional beacon jitter (interval × (1 ± 0.1)), an
	// implementation choice within RFC 3626 §18.8's MAXJITTER of
	// HELLO_INTERVAL/4.
	HelloJitter = 0.1
	// HoldTime is how long a neighbour stays valid without a HELLO, 3.5 ×
	// HelloInterval. It deviates from RFC 3626 §18.3's NEIGHB_HOLD_TIME of
	// 3 × REFRESH_INTERVAL, which is 6 s.
	HoldTime = 7 * time.Second
	// WillDefault is the advertised relay willingness: RFC 3626 §18.7
	// WILL_DEFAULT.
	WillDefault uint8 = 3
)

// Detector is the Neighbour Detection CF: a ManetProtocol instance built
// from the generic machinery, maintaining 1- and 2-hop neighbour state.
type Detector struct {
	proto *core.Protocol
	links *Sensor

	mu       sync.Mutex
	piggyOut map[uint8]func() []byte
	piggyIn  map[uint8]func(src mnet.Addr, value []byte)
}

// New builds a detector under the given unit name (defaults to UnitName for
// an empty string). Besides HELLOs it senses links through LINK_BREAK
// events, the paper's pluggable mechanism (§4.3): remove or replace its
// linkfb-handler to sense by HELLOs alone or otherwise.
func New(name string) *Detector {
	if name == "" {
		name = UnitName
	}
	d := &Detector{
		proto:    core.NewProtocol(name),
		links:    NewSensor(NewTable()),
		piggyOut: make(map[uint8]func() []byte),
		piggyIn:  make(map[uint8]func(mnet.Addr, []byte)),
	}
	d.proto.SetTuple(event.Tuple{
		Required: []event.Requirement{{Type: event.HelloIn}, {Type: event.LinkBreak}},
		Provided: []event.Type{event.HelloOut, event.NhoodChange},
	})
	if err := d.proto.SetState(core.NewStateComponent("state", d.links.Table())); err != nil {
		panic(err) // fresh protocol: cannot conflict
	}
	d.proto.Provide("INeighbourState", d)

	if err := d.proto.AddHandler(core.NewHandler("hello-handler", event.HelloIn, d.onHello)); err != nil {
		panic(err)
	}
	if err := d.proto.AddHandler(core.NewHandler("linkfb-handler", event.LinkBreak, d.onLinkBreak)); err != nil {
		panic(err)
	}
	if err := d.proto.AddSource(core.NewSource("hello-gen", HelloInterval, HelloJitter, d.emitHello).Immediate()); err != nil {
		panic(err)
	}
	// Expiry sweep at half the hello interval.
	if err := d.proto.AddSource(core.NewSource("expiry-sweep", HelloInterval/2, 0, d.sweep)); err != nil {
		panic(err)
	}
	return d
}

// Protocol returns the detector as a deployable unit.
func (d *Detector) Protocol() *core.Protocol { return d.proto }

// Table returns the neighbour-state S element value.
func (d *Detector) Table() *Table { return d.links.Table() }

// Sensor returns the link-sensing core the detector runs on.
func (d *Detector) Sensor() *Sensor { return d.links }

// Piggyback registers a producer whose bytes ride along every outgoing
// HELLO as a message TLV of the given type (§4.3's dissemination service,
// e.g. AODV piggybacking routing-table entries).
func (d *Detector) Piggyback(tlvType uint8, produce func() []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.piggyOut[tlvType] = produce
}

// OnPiggyback registers a consumer for piggybacked TLVs of the given type
// on incoming HELLOs.
func (d *Detector) OnPiggyback(tlvType uint8, consume func(src mnet.Addr, value []byte)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.piggyIn[tlvType] = consume
}

// BuildHello assembles this node's HELLO message: willingness, validity
// time and the piggybacked TLVs, then the sensed neighbours.
func (d *Detector) BuildHello(self mnet.Addr) *packetbb.Message {
	tlvs := []packetbb.TLV{
		{Type: packetbb.TLVWillingness, Value: packetbb.U8(WillDefault)},
		{Type: packetbb.TLVValidityTime, Value: packetbb.U32(uint32(HoldTime / time.Millisecond))},
	}
	d.mu.Lock()
	types := make([]int, 0, len(d.piggyOut))
	for tp := range d.piggyOut {
		types = append(types, int(tp))
	}
	sort.Ints(types)
	for _, tp := range types {
		if v := d.piggyOut[uint8(tp)](); v != nil {
			tlvs = append(tlvs, packetbb.TLV{Type: uint8(tp), Value: v})
		}
	}
	d.mu.Unlock()
	return d.links.Hello(self, tlvs, nil)
}

func (d *Detector) emitHello(ctx *core.Context) {
	ctx.Emit(&event.Event{
		Type: event.HelloOut,
		Msg:  d.BuildHello(ctx.Node()),
		Dst:  mnet.Broadcast,
	})
}

func (d *Detector) onHello(ctx *core.Context, ev *event.Event) error {
	h, ok := d.links.Receive(ctx, ev)
	if !ok {
		return nil
	}
	switch {
	case h.Prev == 0 || h.Prev == StatusLost:
		Notify(ctx, event.NeighborAppeared, h.Addr, h.TwoHop)
		if h.Status == StatusSymmetric {
			Notify(ctx, event.NeighborSymmetric, h.Addr, h.TwoHop)
		}
	case h.Prev == StatusHeard && h.Status == StatusSymmetric:
		Notify(ctx, event.NeighborSymmetric, h.Addr, h.TwoHop)
	default:
		Notify(ctx, event.TwoHopChanged, h.Addr, h.TwoHop)
	}

	// Piggyback consumers, called without d.mu held.
	for _, tlv := range ev.Msg.TLVs {
		d.mu.Lock()
		fn := d.piggyIn[tlv.Type]
		d.mu.Unlock()
		if fn != nil {
			fn(h.Addr, tlv.Value)
		}
	}
	return nil
}

func (d *Detector) onLinkBreak(ctx *core.Context, ev *event.Event) error {
	if ev.Route == nil || ev.Route.NextHop.IsUnspecified() {
		return nil
	}
	if d.links.Table().MarkLost(ev.Route.NextHop) {
		Notify(ctx, event.NeighborLost, ev.Route.NextHop, nil)
	}
	return nil
}

func (d *Detector) sweep(ctx *core.Context) { d.links.Sweep(ctx, nil) }
