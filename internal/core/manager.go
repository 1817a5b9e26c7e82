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
	// PerN drains deliveries through a pool of PerNWorkers workers — the
	// thread-per-n-messages midpoint.
	PerN
)

// The pools behind the two models that drain a queue (§4.4); both sizes are
// implementation choices.
const (
	// PerNWorkers is the n of thread-per-n-messages: the PerN pool's size.
	PerNWorkers = 4
	// DedicatedQueueBound is how many events a unit's
	// thread-per-ManetProtocol queue holds before it drops the newest.
	DedicatedQueueBound = 1024
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
	// model: a pool of one worker with a bounded queue. Atomic because the
	// lock-free delivery path reads it concurrently with Enable/Disable.
	// unwatch, guarded by Manager.mu, takes that queue off the metrics
	// registry.
	dedicated atomic.Pointer[pool.Pool]
	unwatch   func()

	// slot is the unit's index in every dispatch plan's emitters, fixed
	// for this deployment; Undeploy frees it for reuse.
	slot int

	// tuple is the manager's own copy of the declaration last read from the
	// unit; roles[i] is the unit's part in the chain of Manager.chains[i],
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
	order []*unitRec // the deployed units in deployment order: interposer chains follow it
	slots []bool     // slots[i]: some deployed unit holds slot i

	// chains has an entry per event type a unit has provided here, in the
	// order first provided, indexed like unitRec.roles. ontVer is the
	// ontology revision the roles are resolved against.
	chains []chain
	ontVer uint64

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

	// workers is the PerN pool: built under m.mu where PerN is chosen,
	// read atomically on the delivery path. inflight counts the PerMessage
	// shepherds still running, and handoffs every delivery ever left to
	// another goroutine (a shepherd or a pool), which is how emit tells
	// whether an emission settled.
	workers  atomic.Pointer[pool.Pool]
	inflight sync.WaitGroup
	handoffs atomic.Uint64

	// obs is the instrument bundle, nil without a bus, set once at
	// construction; delivery reads the plans' copy of its gate. metrics is
	// the deployment's registry (nil when disabled). unwatch ends retrace.
	obs     *observer
	metrics *metrics.Registry
	unwatch func()

	// Single-threaded delivery queue: inline deliveries are drained in
	// FIFO order by whichever goroutine first enters the framework, so a
	// handler-emitted event destined for a unit already on the call stack
	// is processed after the current delivery instead of deadlocking on
	// the unit's critical section ("the same thread is used to call each
	// ManetProtocol instance in turn", §4.4). dmu guards only this queue,
	// so inline delivery never contends with reconfiguration. draining marks
	// the drain owned; it is cleared only under dmu with the queue empty.
	dmu      sync.Mutex
	inlineQ  queue.Ring[inlineDelivery]
	draining atomic.Bool
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
	m := &Manager{
		cf:      kernel.NewCF("manetkit"),
		node:    cfg.Node,
		clk:     cfg.Clock,
		ont:     event.NewOntology(),
		obs:     newObserver(cfg.Node, cfg.Telemetry),
		metrics: cfg.Metrics,
	}
	if cfg.Model == PerN {
		if _, err := m.startLocked(&m.workers, PerNWorkers, 0); err != nil {
			return nil, err
		}
	}
	m.model.Store(uint32(cfg.Model))
	m.plan.Store(&dispatchPlan{}) // routes nothing, so emit never sees a nil plan
	m.unwatch = cfg.Telemetry.Watch(m.retrace)
	m.retrace() // the bus may have flipped before the watch
	cfg.Metrics.Attach(m.readMetrics)
	return m, nil
}

// retrace watches the bus: a flip republishes the dispatch plan and every
// protocol's accept plan with the gate, so delivery never reads the bus's.
func (m *Manager) retrace() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if plan := m.plan.Load(); plan.traced != m.obs.active() {
		next := *plan
		next.traced = !plan.traced
		m.plan.Store(&next)
	}
	for _, rec := range m.order {
		if p, ok := rec.unit.(*Protocol); ok {
			p.retrace()
		}
	}
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
	for i := range m.chains {
		if ch := &m.chains[i]; ch.members != nil {
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
		if _, err := m.startLocked(&m.workers, PerNWorkers, 0); err != nil {
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

// startLocked starts a pool of size workers in slot unless one runs there,
// and reports whether it did. Pools are built only where a model is chosen,
// never on the delivery path. A closed manager builds none: Close closes
// the pools it swaps out, and nothing would close a later one.
func (m *Manager) startLocked(slot *atomic.Pointer[pool.Pool], size, bound int) (bool, error) {
	if m.closed {
		return false, errManagerClosed
	}
	if slot.Load() != nil {
		return false, nil
	}
	p, err := pool.New(size, bound)
	if err != nil {
		return false, err
	}
	slot.Store(p)
	return true, nil
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
	if m.unitLocked(u.Name()) != nil {
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
		obs:      m.obs,
	}
	u.Attach(env)

	m.mu.Lock()
	m.order = append(m.order, rec)
	var err error
	if p, ok := u.(*Protocol); ok {
		p.retrace() // a flip since Attach missed it
		if p.wantsDedicated() {
			err = m.dedicateLocked(rec)
		}
	}
	m.mu.Unlock()
	if err != nil {
		return err
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
	rec := m.unitLocked(name)
	m.order = slices.DeleteFunc(m.order, func(r *unitRec) bool { return r == rec })
	m.slots[rec.slot] = false
	m.retireLocked(rec)
	stop := rec.undedicateLocked()
	m.mu.Unlock()

	stop()
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
	if rec := m.unitLocked(name); rec != nil {
		return rec.unit, true
	}
	return nil, false
}

// unitLocked returns the deployed unit of that name, or nil.
func (m *Manager) unitLocked(name string) *unitRec {
	if i := slices.IndexFunc(m.order, func(rec *unitRec) bool { return rec.name == name }); i >= 0 {
		return m.order[i]
	}
	return nil
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
// thread-per-ManetProtocol model: a pool of one worker drains a bounded
// queue of its events, and emitters hand off without blocking (§4.4).
func (m *Manager) EnableDedicatedThread(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.unitLocked(name)
	if rec == nil {
		return fmt.Errorf("%w: unit %q", kernel.ErrNoComponent, name)
	}
	return m.dedicateLocked(rec)
}

// dedicateLocked starts rec's dedicated pool unless it has one, and
// reports the pool's queue depth and overflow count while it runs.
func (m *Manager) dedicateLocked(rec *unitRec) error {
	started, err := m.startLocked(&rec.dedicated, 1, DedicatedQueueBound)
	if started {
		rec.unwatch = watchQueue(m.metrics, rec.name, rec.dedicated.Load())
	}
	return err
}

// undedicateLocked reverts rec to the global model and returns what retires
// its pool, for the caller to run outside Manager.mu: the pool drains its
// queue, then its counts leave the metrics registry.
func (rec *unitRec) undedicateLocked() (stop func()) {
	p, unwatch := rec.dedicated.Swap(nil), rec.unwatch
	if p == nil {
		return func() {}
	}
	rec.unwatch = nil
	return func() {
		p.Close()
		unwatch()
	}
}

// DisableDedicatedThread reverts the unit to the global model.
func (m *Manager) DisableDedicatedThread(name string) error {
	m.mu.Lock()
	rec := m.unitLocked(name)
	if rec == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: unit %q", kernel.ErrNoComponent, name)
	}
	stop := rec.undedicateLocked()
	m.mu.Unlock()
	stop()
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
	rec := m.unitLocked(name)
	return rec != nil && rec.dedicated.Load() != nil
}

func (m *Manager) rewireLocked() {
	m.stats.rewires.Add(1)
	m.resolveLocked()
	replan := false
	for i := range m.chains {
		if ch := &m.chains[i]; ch.dirty {
			replan = true
			m.deriveLocked(i, ch)
		}
	}
	if replan {
		m.plan.Store(m.compileLocked())
		for i := range m.chains {
			m.chains[i].dirty = false
		}
	}
	if m.obs.active() {
		m.obs.bus.Record(m.clk.Now(), telemetry.Span{
			Node: m.obs.nodeStr, Kind: telemetry.KindRebind, QDepth: len(m.plan.Load().chained),
		})
	}
}

// resolveLocked reads each deployed unit's tuple once and brings its roles up
// to date: from scratch when the tuple or the ontology's hierarchy changed,
// otherwise only for the types provided for the first time since. Every type
// a role was lost or gained in ends up dirty.
func (m *Manager) resolveLocked() {
	ver, n := m.ont.Version(), len(m.chains)
	for _, rec := range m.order {
		tp := rec.unit.Tuple()
		if ver != m.ontVer || !slices.Equal(tp.Required, rec.tuple.Required) || !slices.Equal(tp.Provided, rec.tuple.Provided) {
			rec.tuple = event.Tuple{Required: slices.Clone(tp.Required), Provided: slices.Clone(tp.Provided)}
			m.retireLocked(rec)
			for _, t := range tp.Provided {
				if m.chainIndex(t) < 0 {
					m.chains = append(m.chains, chain{t: t})
				}
			}
		}
	}
	if len(m.chains) > n {
		m.chains = slices.Clone(m.chains) // sized to fit
	}
	m.ontVer = ver
	for _, rec := range m.order {
		for i := len(rec.roles); i < len(m.chains); i++ {
			r := roleIn(m.ont, rec.tuple, m.chains[i].t)
			rec.roles = append(rec.roles, r)
			m.chains[i].dirty = m.chains[i].dirty || r != 0
		}
	}
}

// chainIndex returns the index of t's entry in m.chains, or -1.
func (m *Manager) chainIndex(t event.Type) int {
	return slices.IndexFunc(m.chains, func(ch chain) bool { return ch.t == t })
}

// retireLocked forgets rec's resolved roles — it left the deployment, or its
// declaration changed — and marks every type it had a part in dirty.
func (m *Manager) retireLocked(rec *unitRec) {
	for i, r := range rec.roles {
		m.chains[i].dirty = m.chains[i].dirty || r != 0
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
//
// emit reports whether the emission settled: whether every delivery it
// scheduled, and every one those deliveries' handlers scheduled in turn,
// had returned when it returned. That holds when each was dropped or run
// inline by this call's own drain; a delivery left to another goroutine (a
// PerMessage shepherd, the PerN pool, a dedicated thread) or queued behind
// a drain that another frame owns makes it false, as does one a concurrent
// emission left to another goroutine meanwhile.
func (m *Manager) emit(rec *unitRec, ev *event.Event) (settled bool) {
	handoffs := m.handoffs.Load()
	own := ev.Claim()
	from := "context-poller"
	if rec != nil {
		from = rec.name
	}
	plan := m.plan.Load()
	tracing := plan.traced
	if tracing {
		if ev.Corr == "" && ev.Msg != nil {
			ev.Corr = ev.Msg.CorrID()
		}
		m.span(telemetry.KindEmit, from, "", ev, 0)
	}
	m.stats.emitted.Add(1)
	targets := plan.targets(rec, ev.Type)
	settled = true
	if len(targets) == 0 {
		// No chain for the type, or a chain whose compiled route is empty
		// (no terminals beyond the emitter, or a vanished interposer): every
		// such loss is counted and traced.
		m.stats.dropped.Add(1)
		if tracing {
			m.span(telemetry.KindDrop, from, "", ev, 0)
		}
	} else {
		settled = m.deliverBatch(from, targets, ev, Model(m.model.Load()), tracing)
	}
	m.dispatchContextEvent(ev)
	if own {
		ev.Release()
	}
	return settled && m.handoffs.Load() == handoffs
}

// span records one dispatch-path span about ev; call it behind tracing.
func (m *Manager) span(kind, from, to string, ev *event.Event, qdepth int) {
	m.obs.bus.Record(m.clk.Now(), telemetry.Span{
		Node: m.obs.nodeStr, Kind: kind, Event: string(ev.Type),
		From: from, To: to, Corr: ev.Corr, QDepth: qdepth,
	})
}

// refuse accounts a scheduled delivery that will never reach Accept — its
// pool is full or closed, or the manager is closed — as a counted drop
// traced with the unit's name, and releases its hold.
func (m *Manager) refuse(from string, rec *unitRec, ev *event.Event, tracing bool) {
	m.stats.dropped.Add(1)
	if tracing {
		m.span(telemetry.KindDrop, from, rec.name, ev, 0)
	}
	ev.Release()
}

// runAccept enters the unit's critical section and hands it the event.
func (m *Manager) runAccept(u Unit, ev *event.Event) {
	u.Section().Lock()
	m.accept(u, ev)
}

// accept hands the unit, whose critical section the caller entered, the
// event, leaves the section and releases the delivery's hold. A unit
// detached while a stale plan (or an already-queued delivery) still
// referenced it reports ErrNotDeployed; that loss is accounted as a drop
// (with a drop span naming the vanished target) rather than vanishing
// silently. Any other Accept error is the unit's own business (protocols
// count handler errors themselves).
func (m *Manager) accept(u Unit, ev *event.Event) {
	err := u.Accept(ev)
	u.Section().Unlock()
	if err != nil && errors.Is(err, ErrNotDeployed) {
		m.stats.dropped.Add(1)
		if m.obs.active() {
			m.span(telemetry.KindDrop, "", u.Name(), ev, 0)
		}
	}
	ev.Release()
}

// deliverBatch hands ev to each target, always inside the unit's critical
// section and in FIFO emission order: a unit on its own thread through its
// dedicated pool, any other under the global model. All targets are
// enqueued/ticketed before any processing starts, so the per-unit FIFO
// order is the emission order even when handlers emit further events
// mid-delivery. tracing is the gate of the plan emit routed by: an
// emission's dispatch spans are kept exactly when its emit span is. It
// reports whether it drained the deliveries it queued inline itself; the
// ones it leaves to other goroutines count in m.handoffs.
func (m *Manager) deliverBatch(from string, targets []*unitRec, ev *event.Event, model Model, tracing bool) bool {
	if model == SingleThreaded {
		if rec := targets[0]; len(targets) == 1 && rec.dedicated.Load() == nil && m.draining.CompareAndSwap(false, true) {
			// No drain runs, so nothing is queued: deliver at once, with the
			// queue's span, then drain what the handlers queued behind it.
			m.stats.delivered.Add(1)
			ev.Hold()
			if tracing {
				m.span(telemetry.KindDispatch, from, rec.name, ev, 1)
			}
			m.runAccept(rec.unit, ev)
			m.dmu.Lock()
			return m.drainLocked(true)
		}
		m.dmu.Lock()
	}
	for _, rec := range targets {
		m.stats.delivered.Add(1)
		ev.Hold()
		if p := rec.dedicated.Load(); p != nil {
			m.handoffs.Add(1)
			m.handOff(from, rec, ev, p, tracing, func() { m.runAccept(rec.unit, ev) })
			continue
		}
		switch model {
		case SingleThreaded:
			m.inlineQ.Push(inlineDelivery{rec: rec, ev: ev})
			if tracing {
				m.span(telemetry.KindDispatch, from, rec.name, ev, m.inlineQ.Len())
			}
		case PerMessage:
			m.handoffs.Add(1)
			sec, ticket := m.ticket(rec)
			if tracing {
				m.span(telemetry.KindDispatch, from, rec.name, ev, 0)
			}
			m.inflight.Add(1)
			go func() {
				defer m.inflight.Done()
				sec.Wait(ticket)
				m.accept(rec.unit, ev)
			}()
		case PerN:
			m.handoffs.Add(1)
			p := m.workers.Load()
			if p == nil { // Close swapped it out
				m.refuse(from, rec, ev, tracing)
				continue
			}
			sec, ticket := m.ticket(rec)
			if !m.handOff(from, rec, ev, p, tracing, func() {
				sec.Wait(ticket)
				m.accept(rec.unit, ev)
			}) {
				// Serve the ticket to keep the lock serviceable.
				sec.Wait(ticket)
				sec.Unlock()
			}
		}
	}
	if model == SingleThreaded {
		return m.drainLocked(false)
	}
	return true
}

// handOff submits one delivery to a pool and reports whether the pool took
// it; a delivery it does not take is refused.
func (m *Manager) handOff(from string, rec *unitRec, ev *event.Event, p *pool.Pool, tracing bool, task func()) bool {
	if p.Submit(task) != nil {
		m.refuse(from, rec, ev, tracing)
		return false
	}
	if tracing {
		m.span(telemetry.KindDispatch, from, rec.name, ev, p.Stats().Queued)
	}
	return true
}

// ticket draws rec's place in line at emission time, for a delivery an
// asynchronous model runs later.
func (m *Manager) ticket(rec *unitRec) (*TicketMutex, uint64) {
	sec := rec.unit.Section()
	m.stats.tickets.Add(1)
	return sec, sec.Ticket()
}

// drainLocked runs the single-threaded drain queue with m.dmu held on
// entry. As the outermost frame, or for a caller that owns the drain, it
// drains the queue, dropping m.dmu around each Accept, so handler re-emits
// nest onto the same queue instead of recursing, and reports true; an
// inner frame returns false.
func (m *Manager) drainLocked(owned bool) bool {
	if !owned && !m.draining.CompareAndSwap(false, true) {
		// An outer frame on this (or another) goroutine is already
		// draining; it will pick these up in order.
		m.dmu.Unlock()
		return false
	}
	for {
		d, ok := m.inlineQ.Pop()
		if !ok {
			m.draining.Store(false)
			m.dmu.Unlock()
			return true
		}
		m.dmu.Unlock()
		m.runAccept(d.rec.unit, d.ev)
		m.dmu.Lock()
	}
}

// WaitIdle blocks until all in-flight asynchronous deliveries (PerMessage
// shepherds and the pools' queues) have run. Synchronous deliveries are by
// definition complete when emit returns. A delivery's handler may schedule
// more, so the wait repeats until a pass schedules none.
func (m *Manager) WaitIdle() {
	for {
		scheduled := m.stats.delivered.Load()
		m.inflight.Wait()
		m.mu.Lock()
		pools := []*pool.Pool{m.workers.Load()}
		for _, rec := range m.order {
			pools = append(pools, rec.dedicated.Load())
		}
		m.mu.Unlock()
		for _, p := range pools {
			if p != nil {
				p.WaitIdle()
			}
		}
		if m.stats.delivered.Load() == scheduled {
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
	i := m.chainIndex(t)
	if i < 0 || m.chains[i].members == nil {
		return nil, nil
	}
	for _, rec := range m.chains[i].interposers() {
		interposers = append(interposers, rec.name)
	}
	for _, rec := range m.chains[i].terminals() {
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
	recs := slices.Clone(m.order)
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

// Close stops every deployed protocol's sources, then pollers, waits for
// the PerMessage shepherds, and closes the PerN pool and then the dedicated
// ones, each once its queue has run. The manager is unusable afterwards: a
// closed deployment schedules no further timers and emits no further
// frames.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.unwatch()
	pollers := m.pollers
	m.pollers = nil
	var stops []func()
	if p := m.workers.Swap(nil); p != nil {
		stops = append(stops, p.Close)
	}
	var protos []*Protocol
	for _, rec := range m.order {
		stops = append(stops, rec.undedicateLocked())
		if p, ok := rec.unit.(*Protocol); ok {
			protos = append(protos, p)
		}
	}
	m.mu.Unlock()

	for _, p := range protos {
		p.Stop()
	}
	for _, p := range pollers {
		p.Stop()
	}
	m.inflight.Wait()
	for _, stop := range stops {
		stop()
	}
}
