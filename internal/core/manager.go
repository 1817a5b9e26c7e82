package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"manetkit/internal/event"
	"manetkit/internal/kernel"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/pool"
	"manetkit/internal/queue"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// Model selects the concurrency model applied to event delivery (§4.4).
type Model uint8

// The concurrency models of §4.4. They govern events travelling up from
// the System CF; callers above MANETKit may always use multiple goroutines.
const (
	// SingleThreaded delivers every event inline on the emitting
	// goroutine: no races by construction, minimal resources (the model
	// the paper suggests for sensor motes, and the one used for its
	// comparative evaluation).
	SingleThreaded Model = iota + 1
	// PerMessage shepherds each delivery with its own goroutine; FIFO
	// order per unit is preserved by ticket locks drawn at emission time.
	PerMessage
	// PerN drains deliveries through a fixed worker pool —
	// the thread-per-n-messages midpoint.
	PerN
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case SingleThreaded:
		return "single-threaded"
	case PerMessage:
		return "thread-per-message"
	case PerN:
		return "thread-per-n-messages"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// Config parameterises a Manager.
type Config struct {
	// Node is the local node address (required).
	Node mnet.Addr
	// Clock is the deployment's time source; defaults to vclock.Real().
	Clock vclock.Clock
	// Model defaults to SingleThreaded.
	Model Model
	// PoolSize sizes the PerN worker pool (default 2).
	PoolSize int
	// Metrics, when non-nil, reads the framework counters (ManagerStats)
	// and collects latency histograms (shared across a whole cluster). Nil
	// disables metrics at the cost of one nil check per dispatch.
	Metrics *metrics.Registry
	// Telemetry, when non-nil, receives structured dispatch spans stamped
	// with the deployment clock. Nil, or a dormant bus, records nothing.
	Telemetry *telemetry.Bus
}

// ManagerStats counts framework activity.
type ManagerStats struct {
	Emitted   uint64 // events entering the framework
	Delivered uint64 // unit deliveries
	Dropped   uint64 // deliveries dropped (queue overflow, no chain)
	Rewires   uint64 // topology re-derivations
	Tickets   uint64 // tickets drawn by the asynchronous models
}

// managerCounters is the hot-path representation of ManagerStats: plain
// atomics, so emit and deliver never serialise on the manager mutex just to
// count.
type managerCounters struct {
	emitted   atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	rewires   atomic.Uint64
	tickets   atomic.Uint64
}

// unitRec tracks one deployed unit. Records are created once per deployment
// and shared by reference with every published dispatch plan, so flipping a
// unit to or from the thread-per-ManetProtocol model is visible to the
// current plan without a rebuild.
type unitRec struct {
	name string
	unit Unit
	// dedicated is non-nil when the unit runs the thread-per-ManetProtocol
	// model: its own goroutine draining a FIFO queue. Atomic because the
	// lock-free delivery path reads it concurrently with Enable/Disable.
	dedicated atomic.Pointer[dedicatedRunner]

	// slot is the unit's index in every dispatch plan's emitters, fixed
	// for this deployment; Undeploy frees it for reuse.
	slot int

	// tuple is the manager's own copy of the declaration last read from the
	// unit; roles[i] is the unit's part in the chain of Manager.types[i],
	// resolved from it; reresolved marks roles resolved afresh since the
	// unit's route table was last compiled. All three are guarded by
	// Manager.mu.
	tuple      event.Tuple
	roles      []role
	reresolved bool
}

// Manager is the MANETKit CF plus its Framework Manager (Fig 2): the
// top-level composite in which ManetProtocol instances and the System CF
// are deployed, and the machinery that derives receptacle-to-interface
// bindings from event tuples, routes events (broadcast, exclusive receive,
// interposition, loop avoidance), applies the selected concurrency model,
// and enacts reconfiguration.
type Manager struct {
	cf   *kernel.CF
	node mnet.Addr
	clk  vclock.Clock
	ont  *event.Ontology

	// mu guards reconfiguration state only: the unit table, the derived
	// chains, pollers and lifecycle flags. The steady-state emit path never
	// takes it — it routes via the published plan below.
	mu    sync.Mutex
	units map[string]*unitRec
	order []*unitRec // deployment order: interposer chains follow it
	slots []bool     // slots[i]: some deployed unit holds slot i

	// types lists every event type a unit has provided here; its index is
	// shared by unitRec.roles, chains (nil while nobody provides the type) and
	// dirty (some unit's role in the type changed since its chain was
	// derived). ontVer is the ontology revision the roles are resolved against.
	types   []event.Type
	typeIdx map[event.Type]int
	chains  []*chain
	dirty   []bool
	ontVer  uint64

	pollers []*vclock.Periodic
	closed  bool

	// plan is the compiled event topology, republished by every rewire that
	// re-derived a chain and swapped atomically (RCU): emit loads it once and
	// routes over immutable data.
	plan atomic.Pointer[dispatchPlan]
	// model is the global concurrency model, read once per emission.
	model atomic.Uint32
	// subs is the context concentrator's subscriber snapshot, republished
	// on SubscribeContext so dispatch iterates it without locks.
	subs atomic.Pointer[[]ctxSub]
	// stats are the hot-path counters; Stats() snapshots them.
	stats managerCounters

	// rewireHook, when set, runs after every topology re-derivation (and
	// after concurrency-model switches), outside m.mu so it can re-enter
	// the manager's reflective accessors — the attachment point for the
	// inspect package's rewire journal.
	rewireHook func()

	// workers is the PerN pool: built under m.mu, read atomically on the
	// delivery path.
	workers  atomic.Pointer[pool.Pool]
	poolSize int
	inflight sync.WaitGroup

	// obs is the instrument bundle; nil when both metrics and tracing are
	// disabled. Set once at construction, never mutated: hot paths read it
	// without m.mu. metrics is the registry it came from.
	obs     *managerObs
	metrics *metrics.Registry

	// Single-threaded delivery queue: inline deliveries are drained in
	// FIFO order by whichever goroutine first enters the framework, so a
	// handler-emitted event destined for a unit already on the call stack
	// is processed after the current delivery instead of deadlocking on
	// the unit's critical section ("the same thread is used to call each
	// ManetProtocol instance in turn", §4.4). dmu guards only this queue,
	// so inline delivery never contends with reconfiguration.
	dmu      sync.Mutex
	inlineQ  queue.Ring[inlineDelivery]
	draining bool
}

type inlineDelivery struct {
	rec *unitRec
	ev  *event.Event
}

type ctxSub struct {
	pattern event.Type
	fn      func(*event.Event)
}

// NewManager creates a MANETKit deployment for one node.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Node.IsUnspecified() || cfg.Node.IsBroadcast() {
		return nil, fmt.Errorf("core: invalid node address %v", cfg.Node)
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.Model == 0 {
		cfg.Model = SingleThreaded
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 2
	}
	m := &Manager{
		cf:       kernel.NewCF("manetkit"),
		node:     cfg.Node,
		clk:      cfg.Clock,
		ont:      event.NewOntology(),
		units:    make(map[string]*unitRec),
		typeIdx:  make(map[event.Type]int),
		poolSize: cfg.PoolSize,
		obs:      newManagerObs(cfg.Node, cfg.Metrics, cfg.Telemetry),
		metrics:  cfg.Metrics,
	}
	m.model.Store(uint32(cfg.Model))
	m.plan.Store(emptyPlan)
	cfg.Metrics.Attach(m.readMetrics)
	return m, nil
}

// readMetrics reports ManagerStats to the deployment's metrics registry.
func (m *Manager) readMetrics(emit func(name string, v uint64)) {
	s := m.Stats()
	emit("core_emitted", s.Emitted)
	emit("core_delivered", s.Delivered)
	emit("core_dropped", s.Dropped)
	emit("core_rewires", s.Rewires)
	emit("core_tickets", s.Tickets)
}

// Node returns the local node address.
func (m *Manager) Node() mnet.Addr { return m.node }

// Clock returns the deployment clock.
func (m *Manager) Clock() vclock.Clock { return m.clk }

// Ontology returns the deployment's event ontology.
func (m *Manager) Ontology() *event.Ontology { return m.ont }

// Arch is the MANETKit CF's architecture meta-model: the kernel CF's
// components (the deployed units) and the receptacle-to-interface links the
// current chains stand for, derived at each call, de-duplicated and sorted.
// The chains are the only record of the event topology, so what reflection
// shows is what dispatch routes.
func (m *Manager) Arch() kernel.Arch {
	a := m.cf.Arch()
	m.mu.Lock()
	for _, ch := range m.chains {
		if ch != nil {
			a.Bindings = ch.linkSet(a.Bindings)
		}
	}
	m.mu.Unlock()
	slices.SortFunc(a.Bindings, func(x, y kernel.BindingInfo) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
	})
	a.Bindings = slices.Compact(a.Bindings)
	return a
}

// SetModel switches the global concurrency model. Deliveries already in
// flight complete under the old model; FIFO order per unit is preserved
// across the switch because tickets are model-independent.
func (m *Manager) SetModel(mod Model) error {
	if mod < SingleThreaded || mod > PerN {
		return fmt.Errorf("core: unknown concurrency model %d", mod)
	}
	m.mu.Lock()
	if mod == PerN {
		if _, err := m.workersLocked(); err != nil {
			m.mu.Unlock()
			return err
		}
	}
	m.model.Store(uint32(mod))
	hook := m.rewireHook
	m.mu.Unlock()
	if hook != nil {
		hook()
	}
	return nil
}

// workersLocked returns the PerN pool, building it on first use. A closed
// manager has none and builds none: Close closes the pool it swaps out, and
// nothing would close a later one.
func (m *Manager) workersLocked() (*pool.Pool, error) {
	if m.closed {
		return nil, errManagerClosed
	}
	if p := m.workers.Load(); p != nil {
		return p, nil
	}
	p, err := pool.New(m.poolSize, 0)
	if err != nil {
		return nil, err
	}
	m.workers.Store(p)
	return p, nil
}

var errManagerClosed = errors.New("core: manager closed")

// Model returns the current global concurrency model.
func (m *Manager) Model() Model {
	return Model(m.model.Load())
}

// Deploy inserts a unit (a ManetProtocol CF or the System CF) into the
// deployment and re-derives the event topology. Simultaneous deployment of
// multiple protocols is simply multiple Deploy calls.
func (m *Manager) Deploy(u Unit) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return errManagerClosed
	}
	if _, ok := m.units[u.Name()]; ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: unit %q", kernel.ErrDuplicate, u.Name())
	}
	m.mu.Unlock()

	if err := m.cf.Insert(u); err != nil {
		return err
	}
	m.mu.Lock()
	rec := &unitRec{name: u.Name(), unit: u, slot: m.claimSlotLocked()}
	m.mu.Unlock()
	env := &Env{
		Node:     m.node,
		Clock:    m.clk,
		Ontology: m.ont,
		mgr:      m,
		rec:      rec,
		metrics:  m.metrics,
	}
	if m.obs != nil {
		env.bus = m.obs.bus
	}
	u.Attach(env)

	m.mu.Lock()
	m.units[rec.name] = rec
	m.order = append(m.order, rec)
	dedic := false
	if p, ok := u.(*Protocol); ok && p.wantsDedicated() {
		dedic = true
	}
	m.mu.Unlock()
	if dedic {
		if err := m.EnableDedicatedThread(u.Name()); err != nil {
			return err
		}
	}
	m.Rewire()
	return nil
}

// Undeploy stops and removes the named unit and re-derives the topology. The
// MANETKit CF's integrity rules are checked first: a vetoed removal returns
// their error with the unit still deployed and still receiving events.
func (m *Manager) Undeploy(name string) error {
	if _, ok := m.Unit(name); !ok {
		return fmt.Errorf("%w: unit %q", kernel.ErrNoComponent, name)
	}
	if err := m.cf.Remove(name); err != nil {
		return err
	}
	// The record is still here: only an Undeploy whose Remove succeeded
	// deletes it, and Deploy refuses the name while it is recorded.
	m.mu.Lock()
	rec := m.units[name]
	delete(m.units, name)
	m.order = slices.DeleteFunc(m.order, func(r *unitRec) bool { return r == rec })
	m.slots[rec.slot] = false
	m.retireLocked(rec)
	m.mu.Unlock()

	if d := rec.dedicated.Swap(nil); d != nil {
		d.stop()
	}
	rec.unit.Detach()
	m.Rewire()
	return nil
}

// claimSlotLocked hands out the lowest slot no deployed unit holds.
func (m *Manager) claimSlotLocked() int {
	i := slices.Index(m.slots, false)
	if i < 0 {
		i = len(m.slots)
		m.slots = append(m.slots, false)
	}
	m.slots[i] = true
	return i
}

// Unit implements unit lookup for direct calls.
func (m *Manager) Unit(name string) (Unit, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.units[name]
	if !ok {
		return nil, false
	}
	return rec.unit, true
}

// Units lists deployed unit names in deployment order.
func (m *Manager) Units() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, len(m.order))
	for i, rec := range m.order {
		names[i] = rec.name
	}
	return names
}

// EnableDedicatedThread switches the named unit to the
// thread-per-ManetProtocol model: a dedicated goroutine drains a FIFO of
// its events, and emitters hand off without blocking (§4.4).
func (m *Manager) EnableDedicatedThread(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.units[name]
	if !ok {
		return fmt.Errorf("%w: unit %q", kernel.ErrNoComponent, name)
	}
	if rec.dedicated.Load() != nil {
		return nil
	}
	rec.dedicated.Store(newDedicatedRunner(m, rec.unit, m.metrics))
	return nil
}

// DisableDedicatedThread reverts the unit to the global model.
func (m *Manager) DisableDedicatedThread(name string) error {
	m.mu.Lock()
	rec, ok := m.units[name]
	var d *dedicatedRunner
	if ok {
		d = rec.dedicated.Swap(nil)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: unit %q", kernel.ErrNoComponent, name)
	}
	if d != nil {
		d.stop()
	}
	return nil
}

// Rewire re-derives the per-event-type delivery chains from the deployed
// units' tuples and publishes them — the automatic, declarative
// reconfiguration of §4.2/§4.5.
func (m *Manager) Rewire() {
	m.mu.Lock()
	m.rewireLocked()
	hook := m.rewireHook
	m.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// SetRewireHook installs fn to run after every topology re-derivation
// triggered through Rewire (Deploy, Undeploy and tuple changes all funnel
// through it) and after SetModel. fn runs outside the manager's internal
// lock, so it may call the reflective accessors (Units, Unit, Model, Arch,
// DedicatedThread) — the inspect package uses this to journal every
// reconfiguration as a snapshot diff. Passing nil removes the hook.
func (m *Manager) SetRewireHook(fn func()) {
	m.mu.Lock()
	m.rewireHook = fn
	m.mu.Unlock()
}

// DedicatedThread reports whether the named unit currently runs the
// thread-per-ManetProtocol model (reflective, for tooling).
func (m *Manager) DedicatedThread(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.units[name]
	return ok && rec.dedicated.Load() != nil
}

func (m *Manager) rewireLocked() {
	m.stats.rewires.Add(1)
	var rewireStart time.Time
	if m.obs != nil && m.obs.rewireLat != nil {
		rewireStart = m.clk.Now()
	}
	m.resolveLocked()
	replan := false
	for i, d := range m.dirty {
		if d {
			replan = true
			m.chains[i] = m.deriveLocked(i, m.chains[i])
		}
	}
	if replan {
		m.plan.Store(m.compileLocked())
		clear(m.dirty)
	}
	if m.obs != nil {
		if m.obs.rewireLat != nil {
			m.obs.rewireLat.Observe(m.clk.Now().Sub(rewireStart))
		}
		if m.obs.bus.Active() {
			m.obs.bus.Record(m.clk.Now(), telemetry.Span{
				Node: m.obs.nodeStr, Kind: telemetry.KindRebind, QDepth: len(m.plan.Load().byType),
			})
		}
	}
}

// resolveLocked reads each deployed unit's tuple once and brings its roles up
// to date: from scratch when the tuple or the ontology's hierarchy changed,
// otherwise only for the types provided for the first time since. Every type
// a role was lost or gained in ends up dirty.
func (m *Manager) resolveLocked() {
	ver := m.ont.Version()
	for _, rec := range m.order {
		tp := rec.unit.Tuple()
		if ver != m.ontVer || !slices.Equal(tp.Required, rec.tuple.Required) || !slices.Equal(tp.Provided, rec.tuple.Provided) {
			rec.tuple = event.Tuple{Required: slices.Clone(tp.Required), Provided: slices.Clone(tp.Provided)}
			m.retireLocked(rec)
			for _, t := range tp.Provided {
				if _, ok := m.typeIdx[t]; !ok {
					m.typeIdx[t] = len(m.types)
					m.types = append(m.types, t)
					m.chains = append(m.chains, nil)
					m.dirty = append(m.dirty, false)
				}
			}
		}
	}
	m.ontVer = ver
	for _, rec := range m.order {
		for i := len(rec.roles); i < len(m.types); i++ {
			r := roleIn(m.ont, rec.tuple, m.types[i])
			rec.roles = append(rec.roles, r)
			m.dirty[i] = m.dirty[i] || r != 0
		}
	}
}

// retireLocked forgets rec's resolved roles — it left the deployment, or its
// declaration changed — and marks every type it had a part in dirty.
func (m *Manager) retireLocked(rec *unitRec) {
	for i, r := range rec.roles {
		m.dirty[i] = m.dirty[i] || r != 0
	}
	rec.roles = rec.roles[:0]
	rec.reresolved = true
}

// emit routes ev from the unit rec (nil for the context poller, which is no
// deployed unit): through the remaining interposers for its type, then to
// the terminals (broadcast or exclusive). Routing reads only the published
// plan — no manager lock, no allocation: target lists were compiled at the
// last rewire. Every delivery scheduled takes a hold on a borrowed event
// (event.Borrow); the first emission also owns the creator's, which it
// releases once every delivery and context subscriber has had the event.
func (m *Manager) emit(rec *unitRec, ev *event.Event) {
	own := ev.Claim()
	from := "context-poller"
	if rec != nil {
		from = rec.name
	}
	if m.tracing() {
		m.span(telemetry.KindEmit, from, "", ev, 0)
	}
	m.stats.emitted.Add(1)
	targets := m.plan.Load().targets(rec, ev.Type)
	if len(targets) == 0 {
		// No chain for the type, or a chain whose compiled route is empty
		// (no terminals beyond the emitter, or a vanished interposer): every
		// such loss is counted and traced.
		m.dropEvent(from, ev)
	} else {
		m.deliverBatch(from, targets, ev, Model(m.model.Load()))
	}
	m.dispatchContextEvent(ev)
	if own {
		ev.Release()
	}
}

// tracing reports whether a span recorded now would be kept: one nil
// check and, with a bus, one atomic load. Span sites test it before they
// read the clock or build the span.
func (m *Manager) tracing() bool { return m.obs != nil && m.obs.bus.Active() }

// span records one dispatch-path span about ev; call it behind tracing.
func (m *Manager) span(kind, from, to string, ev *event.Event, qdepth int) {
	m.obs.bus.Record(m.clk.Now(), telemetry.Span{
		Node: m.obs.nodeStr, Kind: kind, Event: string(ev.Type),
		From: from, To: to, Corr: ev.Corr, QDepth: qdepth,
	})
}

// dropEvent accounts one undeliverable event.
func (m *Manager) dropEvent(from string, ev *event.Event) {
	m.stats.dropped.Add(1)
	if m.tracing() {
		m.span(telemetry.KindDrop, from, "", ev, 0)
	}
}

// refuse accounts a scheduled delivery that will never reach Accept — the
// worker pool is closed, or the manager is — as a counted, traced drop, and
// releases its hold.
func (m *Manager) refuse(from string, rec *unitRec, ev *event.Event) {
	m.stats.dropped.Add(1)
	if m.tracing() {
		m.span(telemetry.KindDrop, from, rec.name, ev, 0)
	}
	ev.Release()
}

// runAccept enters the unit's critical section, hands it the event and
// releases the delivery's hold. A unit detached while a stale plan (or an
// already-queued delivery) still referenced it reports ErrNotDeployed; that
// loss is accounted as a drop (with a drop span naming the vanished target)
// rather than vanishing silently.
func (m *Manager) runAccept(u Unit, ev *event.Event) {
	sec := u.Section()
	sec.Lock()
	err := u.Accept(ev)
	sec.Unlock()
	m.accountAcceptErr(u, ev, err)
	ev.Release()
}

// accountAcceptErr records the delivery-to-detached-unit loss; any other
// Accept error is the unit's own business (protocols count handler errors
// themselves).
func (m *Manager) accountAcceptErr(u Unit, ev *event.Event, err error) {
	if err == nil || !errors.Is(err, ErrNotDeployed) {
		return
	}
	m.stats.dropped.Add(1)
	if m.tracing() {
		m.span(telemetry.KindDrop, "", u.Name(), ev, 0)
	}
}

// deliverBatch hands ev to each target under the active concurrency model.
// All targets are enqueued/ticketed before any processing starts, so the
// per-unit FIFO order is the emission order even when handlers emit
// further events mid-delivery.
func (m *Manager) deliverBatch(from string, targets []*unitRec, ev *event.Event, model Model) {
	if model == SingleThreaded {
		m.deliverSingleThreaded(from, targets, ev)
		return
	}
	for _, rec := range targets {
		m.deliver(from, rec, ev, model)
	}
}

// deliverSingleThreaded enqueues every target on the drain queue, then (as
// the outermost frame) drains it with m.dmu dropped around each Accept, so
// handler re-emits nest onto the same queue instead of recursing.
func (m *Manager) deliverSingleThreaded(from string, targets []*unitRec, ev *event.Event) {
	m.dmu.Lock()
	for _, rec := range targets {
		m.stats.delivered.Add(1)
		ev.Hold()
		if d := rec.dedicated.Load(); d != nil {
			// enqueue never blocks (bounded TryPush), so the hand-off is
			// safe under dmu.
			if !d.enqueue(ev) {
				m.stats.dropped.Add(1)
				ev.Release()
			} else if m.tracing() {
				m.span(telemetry.KindDispatch, from, rec.unit.Name(), ev, d.q.Len())
			}
			continue
		}
		m.inlineQ.Push(inlineDelivery{rec: rec, ev: ev})
		if m.tracing() {
			m.span(telemetry.KindDispatch, from, rec.unit.Name(), ev, m.inlineQ.Len())
		}
	}
	if m.draining {
		// An outer frame on this (or another) goroutine is already
		// draining; it will pick these up in order.
		m.dmu.Unlock()
		return
	}
	m.draining = true
	for {
		d, ok := m.inlineQ.Pop()
		if !ok {
			m.draining = false
			m.dmu.Unlock()
			return
		}
		m.dmu.Unlock()
		m.runAccept(d.rec.unit, d.ev)
		m.dmu.Lock()
	}
}

// deliver hands ev to one unit under an asynchronous concurrency model
// (PerMessage/PerN), always inside the unit's critical section and in FIFO
// emission order. SingleThreaded delivery goes through
// deliverSingleThreaded's drain queue instead.
func (m *Manager) deliver(from string, rec *unitRec, ev *event.Event, model Model) {
	m.stats.delivered.Add(1)
	ev.Hold()
	dedicated := rec.dedicated.Load()
	if m.tracing() {
		qdepth := 0
		if dedicated != nil {
			qdepth = dedicated.q.Len()
		}
		m.span(telemetry.KindDispatch, from, rec.unit.Name(), ev, qdepth)
	}

	if dedicated != nil {
		if !dedicated.enqueue(ev) {
			m.stats.dropped.Add(1)
			ev.Release()
		}
		return
	}
	sec := rec.unit.Section()
	switch model {
	case PerMessage:
		ticket := sec.Ticket()
		m.stats.tickets.Add(1)
		m.inflight.Add(1)
		go func() {
			defer m.inflight.Done()
			m.waitTicket(sec, ticket)
			err := rec.unit.Accept(ev)
			sec.Unlock()
			m.accountAcceptErr(rec.unit, ev, err)
			ev.Release()
		}()
	case PerN:
		workers := m.workers.Load()
		if workers == nil {
			m.mu.Lock()
			workers, _ = m.workersLocked()
			m.mu.Unlock()
			if workers == nil {
				m.refuse(from, rec, ev)
				return
			}
		}
		ticket := sec.Ticket()
		m.stats.tickets.Add(1)
		m.inflight.Add(1)
		err := workers.Submit(func() {
			defer m.inflight.Done()
			m.waitTicket(sec, ticket)
			aerr := rec.unit.Accept(ev)
			sec.Unlock()
			m.accountAcceptErr(rec.unit, ev, aerr)
			ev.Release()
		})
		if err != nil {
			// Pool closed: account the ticket to keep the lock serviceable.
			sec.Wait(ticket)
			sec.Unlock()
			m.inflight.Done()
			m.refuse(from, rec, ev)
		}
	}
}

// waitTicket blocks until the shepherd's ticket is served, recording the
// wait in the ticket-acquisition histogram when metrics are enabled.
func (m *Manager) waitTicket(sec *TicketMutex, ticket uint64) {
	if m.obs != nil && m.obs.ticketWait != nil {
		start := m.clk.Now()
		sec.Wait(ticket)
		m.obs.ticketWait.Observe(m.clk.Now().Sub(start))
		return
	}
	sec.Wait(ticket)
}

// WaitIdle blocks until all in-flight asynchronous deliveries (PerMessage,
// PerN and dedicated queues) have drained. Synchronous deliveries are by
// definition complete when emit returns. A drained runner's handlers may
// have emitted to a runner already waited for, so the wait repeats until a
// pass finds every runner idle.
func (m *Manager) WaitIdle() {
	for {
		m.inflight.Wait()
		m.mu.Lock()
		runners := make([]*dedicatedRunner, 0, len(m.units))
		for _, rec := range m.units {
			if d := rec.dedicated.Load(); d != nil {
				runners = append(runners, d)
			}
		}
		m.mu.Unlock()
		waited := false
		for _, d := range runners {
			waited = d.waitIdle() || waited
		}
		if !waited {
			return
		}
	}
}

// Stats returns a snapshot of the framework counters.
func (m *Manager) Stats() ManagerStats {
	return ManagerStats{
		Emitted:   m.stats.emitted.Load(),
		Delivered: m.stats.delivered.Load(),
		Dropped:   m.stats.dropped.Load(),
		Rewires:   m.stats.rewires.Load(),
		Tickets:   m.stats.tickets.Load(),
	}
}

// Chain exposes the derived delivery chain for an event type (reflective,
// for tests and tooling): the interposer order and the terminal names.
func (m *Manager) Chain(t event.Type) (interposers, terminals []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.typeIdx[t]
	if !ok || m.chains[i] == nil {
		return nil, nil
	}
	for _, rec := range m.chains[i].interposers {
		interposers = append(interposers, rec.name)
	}
	for _, rec := range m.chains[i].terminals {
		terminals = append(terminals, rec.name)
	}
	return interposers, terminals
}

// SubscribeContext registers a callback with the Framework Manager's
// context concentrator (§4.5): fn observes every event matching pattern
// (typically event.Context or a concrete context type). Callbacks run
// synchronously on the emitting goroutine; keep them light. The event is
// lent for the call: one the framework borrowed is recycled once its
// deliveries return, so fn copies whatever it keeps (*ev, *ev.Route).
func (m *Manager) SubscribeContext(pattern event.Type, fn func(*event.Event)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var cur []ctxSub
	if p := m.subs.Load(); p != nil {
		cur = *p
	}
	next := make([]ctxSub, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, ctxSub{pattern: pattern, fn: fn})
	m.subs.Store(&next)
}

// AddContextPoller hides poll-based context sources behind the event facade
// (§4.5): poll is invoked every interval and any non-nil event it returns
// is fed to the concentrator's subscribers and the event topology.
func (m *Manager) AddContextPoller(interval time.Duration, poll func() *event.Event) {
	per := vclock.NewPeriodic(m.clk, interval, 0, int64(m.node.Uint32()), func() {
		if ev := poll(); ev != nil {
			m.emit(nil, ev)
		}
	})
	m.mu.Lock()
	m.pollers = append(m.pollers, per)
	m.mu.Unlock()
}

// dispatchContextEvent feeds ev to the context concentrator's subscribers.
func (m *Manager) dispatchContextEvent(ev *event.Event) {
	p := m.subs.Load()
	if p == nil {
		return
	}
	for _, s := range *p {
		if m.ont.Matches(ev.Type, s.pattern) {
			s.fn(ev)
		}
	}
}

// AddRule registers an integrity rule on the MANETKit CF — e.g. the
// paper's example of ensuring only one reactive routing protocol instance
// exists in a deployment (§4.2). Rules see the deployed units: a Deploy or
// Undeploy violating one is rejected with nothing changed. Bindings are
// derived from tuples, not inserted, so a rule forbids a composition by
// forbidding its units, as aodv.RuleSingleReactive does.
func (m *Manager) AddRule(r kernel.IntegrityRule) error { return m.cf.AddRule(r) }

// Seal unloads the deployment's reconfiguration machinery once the desired
// configuration is reached (§6.2 footnote: "it is possible to unload the
// OpenCom kernel to free up memory"): the integrity rules of the MANETKit
// CF and of every deployed protocol's CF, which also refuse further
// insertions. Event routing and the bindings Arch derives keep working;
// further Deploy/Rewire calls become no-ops or fail.
func (m *Manager) Seal() {
	m.mu.Lock()
	recs := make([]*unitRec, 0, len(m.units))
	for _, rec := range m.units {
		recs = append(recs, rec)
	}
	m.mu.Unlock()
	m.cf.Seal()
	for _, rec := range recs {
		if p, ok := rec.unit.(*Protocol); ok {
			p.CF().Seal()
		}
	}
}

// Quiesce enters every deployed unit's critical section (in deployment
// order) and returns a resume function — used for transactional
// reconfiguration spanning multiple protocols.
func (m *Manager) Quiesce() func() {
	m.mu.Lock()
	recs := slices.Clone(m.order)
	m.mu.Unlock()
	var resumes []func()
	for _, rec := range recs {
		sec := rec.unit.Section()
		sec.Lock()
		resumes = append(resumes, sec.Unlock)
	}
	return func() {
		for i := len(resumes) - 1; i >= 0; i-- {
			resumes[i]()
		}
	}
}

// Close stops every deployed protocol's sources, then pollers, dedicated
// runners and the worker pool, and waits for in-flight deliveries. The
// manager is unusable afterwards: a closed deployment schedules no further
// timers and emits no further frames.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	pollers := m.pollers
	m.pollers = nil
	var dedicated []*dedicatedRunner
	var protos []*Protocol
	for _, rec := range m.units {
		if d := rec.dedicated.Swap(nil); d != nil {
			dedicated = append(dedicated, d)
		}
		if p, ok := rec.unit.(*Protocol); ok {
			protos = append(protos, p)
		}
	}
	workers := m.workers.Swap(nil)
	m.mu.Unlock()

	for _, p := range protos {
		p.Stop()
	}
	for _, p := range pollers {
		p.Stop()
	}
	m.inflight.Wait()
	for _, d := range dedicated {
		d.stop()
	}
	if workers != nil {
		workers.Close()
	}
}
