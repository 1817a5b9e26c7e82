// Package mpr implements the Multipoint Relaying ManetProtocol of §5.1: a
// CFS unit responsible for link sensing and relay selection, whose
// forwarding service other protocols (OLSR's topology flooding, DYMO's
// optimised-flooding variant) use to curb broadcast overhead.
//
// Link sensing is the Neighbour Detection CF's: the MPR CF builds, reads
// and expires its HELLOs with a neighbor.Sensor and adds its willingness,
// its relay flags and its selector set. The MPR set is computed by a
// pluggable Calculator component — the default is the greedy
// 2-hop-coverage heuristic of RFC 3626; the power-aware variant (Mahfoudh &
// Minet) swaps in a calculator that weighs residual battery.
package mpr

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/kernel"
	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
	"manetkit/internal/packetbb"
	"manetkit/internal/reactive"
)

// UnitName is the MPR CF's default unit name.
const UnitName = "mpr"

// Calculator is the pluggable relay-selection component.
type Calculator interface {
	kernel.Component
	// Select computes the MPR set for self given the current link state,
	// sorted; the slice is valid until the calculator's next Select.
	Select(self mnet.Addr, links *neighbor.Table) []mnet.Addr
}

// State is the MPR CF's S element: link set, 2-hop set, relay selections in
// both directions, and the flooding duplicate set.
type State struct {
	Links *neighbor.Table

	mu          sync.Mutex
	selected    []mnet.Addr // neighbours we chose as relays, sorted
	selectors   []mnet.Addr // neighbours that chose us, sorted
	willingness uint8
	dupes       reactive.DupSet

	helloTx, helloRx atomic.Uint64
}

// Stats counts the MPR CF's HELLO traffic.
type Stats struct {
	HelloTx uint64 // HELLOs emitted
	HelloRx uint64 // HELLOs handled
}

// Stats returns a snapshot of the HELLO counters.
func (s *State) Stats() Stats {
	return Stats{HelloTx: s.helloTx.Load(), HelloRx: s.helloRx.Load()}
}

// readMetrics reports the counters behind mpr_* to a metrics registry.
func (s *State) readMetrics(emit func(name string, v uint64)) {
	st := s.Stats()
	emit("mpr_hello_tx", st.HelloTx)
	emit("mpr_hello_rx", st.HelloRx)
}

// NewState returns an empty MPR state.
func NewState() *State {
	return &State{
		Links:       neighbor.NewTable(),
		willingness: neighbor.WillDefault,
	}
}

// Selected returns the current MPR set, sorted.
func (s *State) Selected() []mnet.Addr { return s.copyOf(&s.selected) }

// Selectors returns the neighbours that selected us, sorted.
func (s *State) Selectors() []mnet.Addr { return s.copyOf(&s.selectors) }

// SelectorCount returns how many neighbours selected us, without copying
// the set.
func (s *State) SelectorCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.selectors)
}

func (s *State) copyOf(set *[]mnet.Addr) []mnet.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(make([]mnet.Addr, 0, len(*set)), *set...)
}

// member reports whether a is in the sorted set.
func member(set []mnet.Addr, a mnet.Addr) bool {
	_, ok := slices.BinarySearchFunc(set, a, mnet.Addr.Compare)
	return ok
}

// mark puts a in the sorted set, or takes it out when in is false, and
// reports whether the set changed.
func mark(set []mnet.Addr, a mnet.Addr, in bool) ([]mnet.Addr, bool) {
	switch i, ok := slices.BinarySearchFunc(set, a, mnet.Addr.Compare); {
	case in && !ok:
		return slices.Insert(set, i, a), true
	case !in && ok:
		return slices.Delete(set, i, i+1), true
	}
	return set, false
}

// IsSelector reports whether nb selected us as its relay.
func (s *State) IsSelector(nb mnet.Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return member(s.selectors, nb)
}

// Willingness returns the node's current advertised willingness.
func (s *State) Willingness() uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.willingness
}

// MPR is the Multipoint Relay CF.
type MPR struct {
	proto *core.Protocol
	state *State
	links *neighbor.Sensor

	mu   sync.Mutex
	calc Calculator
}

// New builds an MPR CF (name defaults to UnitName). It beacons on the
// Neighbour Detection CF's HELLO timing and starts at WILL_DEFAULT, which
// POWER_STATUS context events then adjust: the paper's battery-driven
// willingness metric (§5.1).
func New(name string) *MPR {
	if name == "" {
		name = UnitName
	}
	st := NewState()
	m := &MPR{
		proto: core.NewProtocol(name),
		state: st,
		links: neighbor.NewSensor(st.Links),
		calc:  NewGreedyCalculator(),
	}

	m.proto.SetTuple(event.Tuple{
		Required: []event.Requirement{
			{Type: event.HelloIn},
			{Type: event.PowerStatus},
		},
		Provided: []event.Type{event.HelloOut, event.NhoodChange, event.MPRChange},
	})
	if err := m.proto.SetState(core.NewStateComponent("state", m.state)); err != nil {
		panic(err)
	}
	// F element: the flooding service, callable directly by stacked
	// protocols (OLSR "uses the latter's forwarding services").
	fwd := kernel.NewBase("forward")
	fwd.Provide("IMPRFlood", &Flooder{m: m})
	if err := m.proto.SetForward(fwd); err != nil {
		panic(err)
	}
	m.proto.Provide("IMPRState", m.state)
	m.proto.Provide("IMPRFlood", &Flooder{m: m})

	if err := m.proto.CF().Insert(m.calc); err != nil {
		panic(err)
	}
	if err := m.proto.AddHandler(core.NewHandler("hello-handler", event.HelloIn, m.onHello)); err != nil {
		panic(err)
	}
	if err := m.proto.AddHandler(core.NewHandler("power-handler", event.PowerStatus, m.onPower)); err != nil {
		panic(err)
	}
	if err := m.proto.AddSource(core.NewSource("hello-gen", neighbor.HelloInterval, neighbor.HelloJitter, m.emitHello).Immediate()); err != nil {
		panic(err)
	}
	if err := m.proto.AddSource(core.NewSource("expiry-sweep", neighbor.HelloInterval/2, 0, m.sweep)); err != nil {
		panic(err)
	}
	m.proto.SetCounters(m.state.readMetrics)
	return m
}

// Protocol returns the MPR CF as a deployable unit.
func (m *MPR) Protocol() *core.Protocol { return m.proto }

// State returns the S element value.
func (m *MPR) State() *State { return m.state }

// Sensor returns the link-sensing core the MPR CF runs on.
func (m *MPR) Sensor() *neighbor.Sensor { return m.links }

// Flooder returns the F element's flooding service.
func (m *MPR) Flooder() *Flooder { return &Flooder{m: m} }

// SetCalculator swaps the relay-selection component at runtime (quiescing
// the protocol) — the reconfiguration step of the power-aware variant.
func (m *MPR) SetCalculator(c Calculator) error {
	m.mu.Lock()
	old := m.calc
	m.mu.Unlock()
	if err := m.proto.Reconfigure(func() error {
		return m.proto.CF().Replace(old.Name(), c)
	}); err != nil {
		return err
	}
	m.mu.Lock()
	m.calc = c
	m.mu.Unlock()
	return nil
}

// CalculatorName returns the active calculator component's name.
func (m *MPR) CalculatorName() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calc.Name()
}

func (m *MPR) emitHello(ctx *core.Context) {
	m.state.helloTx.Add(1)
	ctx.Emit(&event.Event{
		Type: event.HelloOut,
		Msg:  m.BuildHello(ctx.Node()),
		Dst:  mnet.Broadcast,
	})
}

// BuildHello assembles the MPR beacon: the node's willingness, then the
// sensed neighbours with the ATLVMPR flag on selected relays.
func (m *MPR) BuildHello(self mnet.Addr) *packetbb.Message {
	st := m.state
	st.mu.Lock()
	defer st.mu.Unlock()
	tlvs := []packetbb.TLV{{Type: packetbb.TLVWillingness, Value: packetbb.U8(st.willingness)}}
	return m.links.Hello(self, tlvs, func(a mnet.Addr) bool { return member(st.selected, a) })
}

func (m *MPR) onHello(ctx *core.Context, ev *event.Event) error {
	h, ok := m.links.Receive(ctx, ev)
	if !ok {
		return nil
	}
	m.state.helloRx.Add(1)
	m.state.mu.Lock()
	var changedSel bool
	m.state.selectors, changedSel = mark(m.state.selectors, h.Addr, h.RelaysUs)
	m.state.mu.Unlock()

	if h.Prev == 0 || h.Prev == neighbor.StatusLost {
		neighbor.Notify(ctx, event.NeighborAppeared, h.Addr, h.TwoHop)
	} else if h.Prev == neighbor.StatusHeard && h.Status == neighbor.StatusSymmetric {
		neighbor.Notify(ctx, event.NeighborSymmetric, h.Addr, h.TwoHop)
	}
	m.recompute(ctx, changedSel)
	return nil
}

// onPower folds battery level into the advertised willingness — the
// "willingness metric ... factored into the relay selection process"
// (§5.1).
func (m *MPR) onPower(ctx *core.Context, ev *event.Event) error {
	if ev.Power == nil {
		return nil
	}
	w := uint8(1 + ev.Power.Fraction*6) // 1..7
	if ev.Power.Fraction <= 0.05 {
		w = 0 // WILL_NEVER when nearly flat
	}
	m.state.mu.Lock()
	m.state.willingness = w
	m.state.mu.Unlock()
	return nil
}

func (m *MPR) sweep(ctx *core.Context) {
	lost := m.links.Sweep(ctx, func(nb mnet.Addr) {
		m.state.mu.Lock()
		m.state.selectors, _ = mark(m.state.selectors, nb, false)
		m.state.mu.Unlock()
	})
	m.state.mu.Lock()
	m.state.dupes.Sweep(ctx.Clock().Now(), reactive.DupHold, nil)
	m.state.mu.Unlock()
	if lost > 0 {
		m.recompute(ctx, false)
	}
}

// recompute re-runs the calculator and emits MPR_CHANGE when the relay set
// (or the selector set) changed.
func (m *MPR) recompute(ctx *core.Context, selectorsChanged bool) {
	m.mu.Lock()
	calc := m.calc
	m.mu.Unlock()
	newSet := calc.Select(ctx.Node(), m.state.Links)

	m.state.mu.Lock()
	changed := !slices.Equal(newSet, m.state.selected)
	if changed {
		m.state.selected = append(m.state.selected[:0], newSet...)
	}
	m.state.mu.Unlock()

	if changed || selectorsChanged {
		ctx.Emit(&event.Event{
			Type: event.MPRChange,
			MPR:  &event.MPRPayload{Selected: m.state.Selected(), Selectors: m.state.Selectors()},
		})
	}
}

// Flooder is the MPR CF's forwarding service (IMPRFlood): optimised
// flooding in which only selected relays rebroadcast.
type Flooder struct{ m *MPR }

// ShouldForward decides whether this node relays a flooded message
// identified by (orig, seq) received from prevHop: it deduplicates and
// relays only when prevHop selected us as its MPR.
func (f *Flooder) ShouldForward(orig mnet.Addr, seq uint16, prevHop mnet.Addr, now time.Time) bool {
	st := f.m.state
	st.mu.Lock()
	dup := st.dupes.Seen(reactive.Key{Orig: orig, Seq: seq}, now)
	isSelector := member(st.selectors, prevHop)
	st.mu.Unlock()
	return !dup && isSelector
}

// Seen records (orig, seq) without a forwarding decision — originators call
// this so their own flood is not re-relayed back through them.
func (f *Flooder) Seen(orig mnet.Addr, seq uint16, now time.Time) {
	st := f.m.state
	st.mu.Lock()
	st.dupes.Seen(reactive.Key{Orig: orig, Seq: seq}, now)
	st.mu.Unlock()
}
