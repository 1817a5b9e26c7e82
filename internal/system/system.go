// Package system implements the paper's System CF (§4.3): the base-layer
// CFS unit every ManetProtocol instance is stacked on. It is the OS
// surrogate —
//
//   - its Control element initialises the routing environment (IP
//     forwarding, ICMP redirects) and hosts the context sensors;
//   - its State element manipulates the (simulated) kernel routing table
//     and lists network devices;
//   - its Forward element grounds message send/receive into the emulated
//     802.11 medium (package emunet), the libpcap/Netfilter analogue.
//
// The package also provides the NetLink packet-filter component that
// reactive protocols such as DYMO load into the System CF: it buffers
// route-less data packets and raises the NO_ROUTE / ROUTE_UPDATE /
// SEND_ROUTE_ERR / LINK_BREAK events that drive route discovery and
// invalidation (§5.2).
package system

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/kernel"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/route"
)

// UnitName is the System CF's unit name within a MANETKit deployment.
const UnitName = "system"

// Wire discriminator bytes: control traffic carries PacketBB, data traffic
// carries a data header.
const (
	wireControl byte = 0x01
	wireData    byte = 0x02
)

// Config parameterises a System CF.
type Config struct {
	// NIC is the node's attachment to the emulated medium (required).
	NIC *emunet.NIC
	// Battery, when non-nil, powers the POWER_STATUS sensor.
	Battery *Battery
}

// sensorInterval is the context sensors' emission period, an implementation
// choice.
const sensorInterval = time.Second

// DeviceInfo describes one network device (the State element's
// query/list-devices operation).
type DeviceInfo struct {
	Name string
	Addr mnet.Addr
	Up   bool
}

// EnvFlags is the simulated host routing environment the Control element
// initialises.
type EnvFlags struct {
	IPForwarding  bool
	ICMPRedirects bool
}

// Stats counts System CF activity.
type Stats struct {
	CtrlSent      uint64
	CtrlReceived  uint64
	DataSent      uint64
	DataForwarded uint64
	DataDelivered uint64
	DataBuffered  uint64
	DataDropped   uint64 // TTL exhaustion, buffer overflow, buffer timeout
	DecodeErrors  uint64
}

// System is the System CF. It is built on the generic ManetProtocol CF
// machinery — the strongest form of the paper's claim that the System CF
// "is a base layer CFS unit" like any other.
type System struct {
	proto *core.Protocol
	nic   *emunet.NIC
	fib   *route.FIB

	mu       sync.Mutex
	envFlags EnvFlags
	battery  *Battery
	lastRSSI []rssiReading // each neighbour's latest reading, sorted by address
	readings []rssiReading // the link sensor's copy, reused every tick
	stats    Stats
	seq      uint16

	filter *netlink
}

// New builds a System CF over the given NIC.
func New(cfg Config) (*System, error) {
	if cfg.NIC == nil {
		return nil, errors.New("system: NIC required")
	}

	s := &System{
		proto:   core.NewProtocol(UnitName),
		nic:     cfg.NIC,
		fib:     route.NewFIB(),
		battery: cfg.Battery,
	}
	s.filter = newNetlink(s)

	s.proto.SetTuple(event.Tuple{
		Required: []event.Requirement{
			{Type: event.MsgOut},     // outgoing protocol messages to transmit
			{Type: event.RouteFound}, // re-inject buffered data packets
		},
		Provided: []event.Type{
			// MsgIn: a message of a type no bundled protocol knows.
			event.HelloIn, event.TCIn, event.MsgIn, event.REIn, event.RerrIn,
			event.NoRoute, event.RouteUpdate, event.SendRouteErr, event.LinkBreak,
			event.PowerStatus, event.LinkInfo, event.SysStatus,
		},
	})

	// Forward element: the send/receive primitives.
	fwd := kernel.NewBase("forward")
	fwd.Provide("IForward", &forwardFacade{s: s})
	if err := s.proto.SetForward(fwd); err != nil {
		return nil, err
	}
	// State element: kernel route table + device listing.
	st := core.NewStateComponent("state", &SysState{s: s})
	if err := s.proto.SetState(st); err != nil {
		return nil, err
	}
	s.proto.Provide("ISysState", &SysState{s: s})
	s.proto.Provide("ISysControl", &SysControl{s: s})

	// Netlink packet-filter plug-in (Fig 6): buffers and re-injects data
	// packets, raises the reactive-routing trigger events.
	nl := kernel.NewBase("netlink")
	nl.Provide("INetlink", s.filter)
	if err := s.proto.CF().Insert(nl); err != nil {
		return nil, err
	}

	// MSG_OUT handler: encode and transmit.
	err := s.proto.AddHandler(core.NewHandler("network-driver", event.MsgOut,
		func(ctx *core.Context, ev *event.Event) error { return s.sendControl(ev) }))
	if err != nil {
		return nil, err
	}
	// ROUTE_FOUND handler: drain the packet buffer.
	err = s.proto.AddHandler(core.NewHandler("reinject", event.RouteFound,
		func(ctx *core.Context, ev *event.Event) error {
			if ev.Route == nil {
				return errors.New("system: ROUTE_FOUND without payload")
			}
			s.filter.reinject(ev.Route.Dst)
			return nil
		}))
	if err != nil {
		return nil, err
	}

	// Context sensors (§4.5): battery and host status, emitted periodically.
	if s.battery != nil {
		err = s.proto.AddSource(core.NewSource("power-sensor", sensorInterval, 0,
			func(ctx *core.Context) {
				frac := s.battery.Level(ctx.Clock().Now())
				ctx.Emit(&event.Event{
					Type:  event.PowerStatus,
					Power: &event.PowerPayload{Fraction: frac, Draining: true},
				})
			}))
		if err != nil {
			return nil, err
		}
	}
	err = s.proto.AddSource(core.NewSource("link-sensor", sensorInterval, 0,
		func(ctx *core.Context) {
			for _, r := range s.rssiSnapshot() {
				ctx.Emit(event.WithLink(event.LinkPayload{Neighbor: r.nb, SignalDBm: r.rssi, Quality: qualityFromRSSI(r.rssi)}))
			}
		}))
	if err != nil {
		return nil, err
	}

	s.proto.OnStart(func(ctx *core.Context) error {
		s.nic.SetReceiver(s.receive)
		return nil
	})
	s.proto.OnStop(func(ctx *core.Context) error {
		s.nic.SetReceiver(nil)
		return nil
	})
	return s, nil
}

// Protocol returns the System CF as a deployable unit.
func (s *System) Protocol() *core.Protocol { return s.proto }

// FIB returns the simulated kernel forwarding table.
func (s *System) FIB() *route.FIB { return s.fib }

// NIC returns the underlying network attachment.
func (s *System) NIC() *emunet.NIC { return s.nic }

// Filter returns the NetLink packet-filter component.
func (s *System) Filter() *Netlink { return (*Netlink)(s.filter) }

// Stats returns a snapshot of System CF counters.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// sendControl encodes the event's message into a PacketBB packet, behind the
// control discriminator in an array on the stack (the medium copies what it
// sends), and transmits it. A message that does not encode is neither sent
// nor counted, and takes no packet sequence number.
func (s *System) sendControl(ev *event.Event) error {
	if ev.Msg == nil {
		return fmt.Errorf("system: %s event without message", ev.Type)
	}
	var wire [wireStackLen]byte
	s.mu.Lock()
	pkt := packetbb.Packet{SeqNum: s.seq + 1, HasSeqNum: true, Messages: []packetbb.Message{*ev.Msg}}
	frame, err := packetbb.AppendPacket(append(wire[:0], wireControl), &pkt)
	if err == nil {
		s.seq++
		s.stats.CtrlSent++
	}
	battery := s.battery
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("system: encoding %s: %w", ev.Type, err)
	}
	dst := ev.Dst
	if dst.IsUnspecified() {
		dst = mnet.Broadcast
	}
	if battery != nil {
		battery.SpendFrame()
	}
	return s.nic.SendTagged(dst, frame, ev.Corr)
}

// receive is the NIC upcall: it decodes frames and pushes the resulting
// events up the framework (the paper's raising of events grounded in packet
// capture).
func (s *System) receive(f emunet.Frame) {
	s.mu.Lock()
	if i, ok := slices.BinarySearchFunc(s.lastRSSI, f.Src, func(r rssiReading, a mnet.Addr) int { return r.nb.Compare(a) }); ok {
		s.lastRSSI[i].rssi = f.RSSI
	} else {
		s.lastRSSI = slices.Insert(s.lastRSSI, i, rssiReading{f.Src, f.RSSI})
	}
	s.mu.Unlock()

	if len(f.Payload) == 0 {
		s.bump(&s.stats.DecodeErrors)
		return
	}
	switch f.Payload[0] {
	case wireControl:
		// One decode per transmission: the receivers of a broadcast share
		// the packet, so events point into it and handlers only read it.
		pkt, err := DecodeControl(f)
		if err != nil {
			s.bump(&s.stats.DecodeErrors)
			return
		}
		s.mu.Lock()
		s.stats.CtrlReceived++
		s.mu.Unlock()
		// Each event is borrowed: it ends with its last delivery, and the
		// packet it points into is lent with the frame. When every delivery
		// the events caused has returned here, the medium may recycle the
		// packet after this call; otherwise some handler still to run reads
		// it later, and the frame is kept.
		settled := true
		for i := range pkt.Messages {
			msg := &pkt.Messages[i]
			ev := event.Borrow(inEventType(msg.Type))
			ev.Msg, ev.Src, ev.Dst, ev.Device = msg, f.Src, f.Dst, f.Device
			ok, _ := s.proto.EmitSettled(ev)
			settled = settled && ok
		}
		if !settled {
			f.Keep()
		}
	case wireData:
		s.filter.receiveData(f)
	default:
		s.bump(&s.stats.DecodeErrors)
	}
}

// rssiReading is one neighbour's latest received signal strength.
type rssiReading struct {
	nb   mnet.Addr
	rssi float64
}

// rssiSnapshot returns every neighbour's latest reading sorted by address,
// so the link sensor reports them in the same order on every run. The slice
// is the sensor's copy, valid until its next tick.
func (s *System) rssiSnapshot() []rssiReading {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readings = append(s.readings[:0], s.lastRSSI...)
	return s.readings
}

// inEventType maps an incoming message type to its event type.
func inEventType(mt packetbb.MsgType) event.Type {
	switch mt {
	case packetbb.MsgHello:
		return event.HelloIn
	case packetbb.MsgTC:
		return event.TCIn
	case packetbb.MsgRREQ, packetbb.MsgRREP:
		return event.REIn
	case packetbb.MsgRERR:
		return event.RerrIn
	default:
		return event.MsgIn
	}
}

// qualityFromRSSI maps signal strength to a normalised [0,1] link quality:
// -90 dBm or worse is 0, -40 dBm or better is 1.
func qualityFromRSSI(rssi float64) float64 { return min(max((rssi+90)/50, 0), 1) }

// forwardFacade is the Forward element's IForward interface: direct-call
// send primitives for protocols that bypass the event path (rare).
type forwardFacade struct{ s *System }

// Send transmits a single protocol message.
func (f *forwardFacade) Send(dst mnet.Addr, msg *packetbb.Message) error {
	return f.s.sendControl(&event.Event{Type: event.MsgOut, Msg: msg, Dst: dst})
}

// SysState is the State element facade (ISysState): kernel route table
// manipulation and device listing.
type SysState struct{ s *System }

// RouteAdd installs a kernel route.
func (st *SysState) RouteAdd(r route.FIBRoute) { st.s.fib.Set(r) }

// RouteDel removes a kernel route.
func (st *SysState) RouteDel(dst mnet.Addr) bool { return st.s.fib.Del(dst) }

// Routes lists the kernel routing table.
func (st *SysState) Routes() []route.FIBRoute { return st.s.fib.List() }

// Devices lists the host's network devices.
func (st *SysState) Devices() []DeviceInfo {
	return []DeviceInfo{{Name: st.s.nic.Device(), Addr: st.s.nic.Addr(), Up: true}}
}

// BindRoutes binds a routing CF's table to the deployment ctx belongs to:
// its clock, and the FIB and device of the System CF deployed beside it,
// read through that CF's S element. With no System CF deployed the table
// mirrors nothing. Routing CFs call it from their start hooks; only the
// first call binds (route.Table.Bind).
func BindRoutes(ctx *core.Context, rt *route.Table) {
	var fib *route.FIB
	var device string
	if u, ok := ctx.Env().Unit(UnitName); ok {
		if p, ok := u.(*core.Protocol); ok {
			if st, ok := core.StateValue[*SysState](p); ok {
				fib, device = st.s.fib, st.s.nic.Device()
			}
		}
	}
	rt.Bind(ctx.Clock(), fib, device)
}

// SysControl is the Control element facade (ISysControl): OS-independent
// routing-environment initialisation.
type SysControl struct{ s *System }

// InitRoutingEnv enables IP forwarding and disables ICMP redirects, the
// standard MANET host preparation.
func (sc *SysControl) InitRoutingEnv() {
	sc.s.mu.Lock()
	defer sc.s.mu.Unlock()
	sc.s.envFlags = EnvFlags{IPForwarding: true, ICMPRedirects: false}
}

// Env returns the current simulated environment flags.
func (sc *SysControl) Env() EnvFlags {
	sc.s.mu.Lock()
	defer sc.s.mu.Unlock()
	return sc.s.envFlags
}
