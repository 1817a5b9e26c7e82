// Package mpr implements the Multipoint Relaying ManetProtocol of §5.1: a
// CFS unit responsible for link sensing and relay selection, whose
// forwarding service other protocols (OLSR's topology flooding, DYMO's
// optimised-flooding variant) use to curb broadcast overhead.
//
// The MPR set is computed by a pluggable Calculator component — the default
// is the greedy 2-hop-coverage heuristic of RFC 3626; the power-aware
// variant (Mahfoudh & Minet) swaps in a calculator that weighs residual
// battery, together with a hello handler that derives link costs from
// transmission power.
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
	// Select computes the MPR set for self given the current link state.
	Select(self mnet.Addr, links *neighbor.Table) []mnet.Addr
}

// Config parameterises the MPR CF.
type Config struct {
	// HelloInterval is the beacon period (default 2s).
	HelloInterval time.Duration
	// Jitter is the fractional beacon jitter (default 0.1).
	Jitter float64
	// HoldFactor multiplies HelloInterval into the neighbour hold time
	// (default 3.5).
	HoldFactor float64
	// Willingness is the initial advertised relay willingness (default 3);
	// it is updated dynamically from POWER_STATUS context events, the
	// paper's battery-driven willingness metric (§5.1).
	Willingness uint8
}

func (c *Config) fill() {
	if c.HelloInterval <= 0 {
		c.HelloInterval = 2 * time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
	if c.HoldFactor <= 0 {
		c.HoldFactor = 3.5
	}
	if c.Willingness == 0 {
		c.Willingness = 3
	}
}

// State is the MPR CF's S element: link set, 2-hop set, relay selections in
// both directions, and the flooding duplicate set.
type State struct {
	Links *neighbor.Table

	mu          sync.Mutex
	selected    map[mnet.Addr]bool // neighbours we chose as relays
	selectors   map[mnet.Addr]bool // neighbours that chose us
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
		selected:    make(map[mnet.Addr]bool),
		selectors:   make(map[mnet.Addr]bool),
		willingness: 3,
	}
}

// Selected returns the current MPR set, sorted.
func (s *State) Selected() []mnet.Addr { return s.sortedSet(&s.selected) }

// Selectors returns the neighbours that selected us, sorted.
func (s *State) Selectors() []mnet.Addr { return s.sortedSet(&s.selectors) }

func (s *State) sortedSet(m *map[mnet.Addr]bool) []mnet.Addr {
	s.mu.Lock()
	out := make([]mnet.Addr, 0, len(*m))
	for a := range *m {
		out = append(out, a)
	}
	s.mu.Unlock()
	slices.SortFunc(out, mnet.Addr.Compare)
	return out
}

// IsSelector reports whether nb selected us as its relay.
func (s *State) IsSelector(nb mnet.Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.selectors[nb]
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
	cfg   Config

	mu       sync.Mutex
	calc     Calculator
	helloSeq uint16
}

// New builds an MPR CF (name defaults to UnitName).
func New(name string, cfg Config) *MPR {
	if name == "" {
		name = UnitName
	}
	cfg.fill()
	m := &MPR{
		proto: core.NewProtocol(name),
		state: NewState(),
		cfg:   cfg,
		calc:  NewGreedyCalculator(),
	}
	m.state.willingness = cfg.Willingness

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
	if err := m.proto.AddSource(core.NewSource("hello-gen", cfg.HelloInterval, cfg.Jitter, m.emitHello).Immediate()); err != nil {
		panic(err)
	}
	if err := m.proto.AddSource(core.NewSource("expiry-sweep", cfg.HelloInterval/2, 0, m.sweep)); err != nil {
		panic(err)
	}
	m.proto.SetCounters(m.state.readMetrics)
	return m
}

// Protocol returns the MPR CF as a deployable unit.
func (m *MPR) Protocol() *core.Protocol { return m.proto }

// State returns the S element value.
func (m *MPR) State() *State { return m.state }

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

// BuildHello assembles the MPR beacon: the neighbour list with link-status
// TLVs plus the ATLVMPR flag on selected relays and the node's willingness.
func (m *MPR) BuildHello(self mnet.Addr) *packetbb.Message {
	st := m.state
	m.mu.Lock()
	m.helloSeq++
	seq := m.helloSeq
	m.mu.Unlock()
	msg := &packetbb.Message{
		Type:       packetbb.MsgHello,
		Originator: self,
		HopLimit:   1,
		SeqNum:     seq,
		TLVs: []packetbb.TLV{
			{Type: packetbb.TLVWillingness, Value: packetbb.U8(st.Willingness())},
		},
	}
	nbs := st.Links.Neighbors()
	if len(nbs) == 0 {
		return msg
	}
	st.mu.Lock()
	selected := make(map[mnet.Addr]bool, len(st.selected))
	for a := range st.selected {
		selected[a] = true
	}
	st.mu.Unlock()

	blk := packetbb.AddrBlock{}
	for _, nb := range nbs {
		blk.Addrs = append(blk.Addrs, nb.Addr)
	}
	for i, nb := range nbs {
		status := packetbb.LinkStatusHeard
		if nb.Status == neighbor.StatusSymmetric {
			status = packetbb.LinkStatusSymmetric
		}
		blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{
			Type:       packetbb.ATLVLinkStatus,
			IndexStart: uint8(i),
			IndexStop:  uint8(i),
			Value:      packetbb.U8(status),
		})
		if selected[nb.Addr] {
			blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{
				Type:       packetbb.ATLVMPR,
				IndexStart: uint8(i),
				IndexStop:  uint8(i),
			})
		}
	}
	msg.AddrBlocks = append(msg.AddrBlocks, blk)
	return msg
}

func (m *MPR) onHello(ctx *core.Context, ev *event.Event) error {
	if ev.Msg == nil {
		return nil
	}
	m.state.helloRx.Add(1)
	src := ev.Msg.Originator
	if src.IsUnspecified() {
		src = ev.Src
	}
	listsUs, will, syms := neighbor.ParseHello(ev.Msg, ctx.Node())
	prev := m.state.Links.Observe(src, listsUs, will, syms, ctx.Clock().Now())

	// Did the sender select us as a relay?
	selectedUs := false
	for bi := range ev.Msg.AddrBlocks {
		blk := &ev.Msg.AddrBlocks[bi]
		for i, a := range blk.Addrs {
			if a != ctx.Node() {
				continue
			}
			if _, ok := blk.AddrTLVFor(packetbb.ATLVMPR, i); ok {
				selectedUs = true
			}
		}
	}
	m.state.mu.Lock()
	changedSel := m.state.selectors[src] != selectedUs
	if selectedUs {
		m.state.selectors[src] = true
	} else {
		delete(m.state.selectors, src)
	}
	m.state.mu.Unlock()

	cur, _ := m.state.Links.Get(src)
	if prev == 0 || prev == neighbor.StatusLost {
		ctx.Emit(&event.Event{
			Type:  event.NhoodChange,
			Nhood: &event.NhoodPayload{Kind: event.NeighborAppeared, Neighbor: src, TwoHopVia: cur.TwoHop},
		})
	} else if prev == neighbor.StatusHeard && cur.Status == neighbor.StatusSymmetric {
		ctx.Emit(&event.Event{
			Type:  event.NhoodChange,
			Nhood: &event.NhoodPayload{Kind: event.NeighborSymmetric, Neighbor: src, TwoHopVia: cur.TwoHop},
		})
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
	now := ctx.Clock().Now()
	hold := time.Duration(float64(m.cfg.HelloInterval) * m.cfg.HoldFactor)
	lost := m.state.Links.Expire(now.Add(-hold))
	for _, nb := range lost {
		m.state.mu.Lock()
		delete(m.state.selectors, nb)
		m.state.mu.Unlock()
		ctx.Emit(&event.Event{
			Type:  event.NhoodChange,
			Nhood: &event.NhoodPayload{Kind: event.NeighborLost, Neighbor: nb},
		})
	}
	m.state.Links.Drop(now.Add(-3 * hold))
	m.state.mu.Lock()
	m.state.dupes.Sweep(now, reactive.DupHold, nil)
	m.state.mu.Unlock()
	if len(lost) > 0 {
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
	changed := len(newSet) != len(m.state.selected)
	if !changed {
		for _, a := range newSet {
			if !m.state.selected[a] {
				changed = true
				break
			}
		}
	}
	if changed {
		m.state.selected = make(map[mnet.Addr]bool, len(newSet))
		for _, a := range newSet {
			m.state.selected[a] = true
		}
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
	isSelector := st.selectors[prevHop]
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
