package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"manetkit/internal/event"
	"manetkit/internal/kernel"
	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// Handler is a plug-in event handler within a ManetProtocol CF — the unit
// the paper's fine-grained reconfigurations swap (e.g. multipath DYMO
// replaces the RE and RERR handlers, §5.2). Handlers run atomically inside
// the protocol's critical section.
type Handler interface {
	kernel.Component
	// Pattern returns the event type (possibly abstract) this handler
	// consumes; the protocol's demux matches delivered events against it.
	Pattern() event.Type
	// Handle processes one event. ev and what it carries are lent for the
	// call (event.Borrow), a received message with its frame: a handler
	// that keeps any of it copies it, a message by ev.Msg.Clone().
	Handle(ctx *Context, ev *event.Event) error
}

// handlerComp is the standard Handler implementation: a named component
// wrapping a handler function. It provides no interfaces.
type handlerComp struct {
	name    string
	pattern event.Type
	fn      func(*Context, *event.Event) error
}

var _ Handler = (*handlerComp)(nil)

// NewHandler builds a Handler component from a function.
func NewHandler(name string, pattern event.Type, fn func(*Context, *event.Event) error) Handler {
	return &handlerComp{name: name, pattern: pattern, fn: fn}
}

func (h *handlerComp) Name() string                            { return h.name }
func (h *handlerComp) Provided() []kernel.Interface            { return nil }
func (h *handlerComp) Pattern() event.Type                     { return h.pattern }
func (h *handlerComp) Handle(c *Context, e *event.Event) error { return h.fn(c, e) }

// Context is passed to handlers and event sources: the protocol's view of
// its deployment.
type Context struct {
	proto *Protocol
	env   *Env
}

// Node returns the local node address.
func (c *Context) Node() mnet.Addr { return c.env.Node }

// Clock returns the deployment clock.
func (c *Context) Clock() vclock.Clock { return c.env.Clock }

// Emit pushes an event from this protocol into the framework; the Framework
// Manager routes it per the binding topology (interposers first, then
// requirers).
func (c *Context) Emit(ev *event.Event) { c.env.Emit(ev) }

// State returns the protocol's S element.
func (c *Context) State() kernel.Component { return c.proto.StateElement() }

// Env exposes the deployment environment for direct calls to co-deployed
// units.
func (c *Context) Env() *Env { return c.env }

// Source is a timer-driven event source (the paper's Event Source
// components, e.g. the TC Generator): it fires periodically, inside the
// protocol's critical section. It provides no interfaces.
type Source struct {
	name      string
	interval  time.Duration
	jitter    float64
	immediate bool
	fn        func(*Context)

	mu       sync.Mutex
	periodic *vclock.Periodic
	kick     vclock.Timer
}

var _ kernel.Component = (*Source)(nil)

// NewSource builds a Source component firing fn every interval with the
// given fractional jitter.
func NewSource(name string, interval time.Duration, jitter float64, fn func(*Context)) *Source {
	return &Source{name: name, interval: interval, jitter: jitter, fn: fn}
}

// Immediate makes the source fire once right after the protocol starts,
// ahead of the first full interval — the behaviour of real routing daemons,
// which beacon as soon as they come up. It returns s for chaining.
func (s *Source) Immediate() *Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.immediate = true
	return s
}

func (s *Source) Name() string                 { return s.name }
func (s *Source) Provided() []kernel.Interface { return nil }

// SetInterval retunes the firing cadence (used by e.g. fisheye variants).
func (s *Source) SetInterval(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interval = d
	if s.periodic != nil {
		s.periodic.SetInterval(d)
	}
}

func (s *Source) start(p *Protocol) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.periodic != nil {
		return
	}
	env := p.env
	if env == nil {
		return
	}
	seed := int64(env.Node.Uint32()) ^ int64(len(s.Name())<<16)
	fire := func() {
		p.section.Lock()
		defer p.section.Unlock()
		if !p.Started() {
			return
		}
		s.fn(p.ctxFor(env))
	}
	s.periodic = vclock.NewPeriodic(env.Clock, s.interval, s.jitter, seed, fire)
	if s.immediate {
		s.kick = env.Clock.AfterFunc(0, fire)
	}
}

func (s *Source) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.periodic != nil {
		s.periodic.Stop()
		s.periodic = nil
	}
	if s.kick != nil {
		s.kick.Stop()
		s.kick = nil
	}
}

// Stats counts a protocol's event activity.
type Stats struct {
	Delivered uint64 // events accepted
	Handled   uint64 // handler invocations
	Errors    uint64 // handler errors
}

// protoStats is the hot-path representation of Stats: per-event updates are
// single atomic ops, never mutex acquisitions. Handled is incremented after
// the handler returns, adjacent to Errors, so the two can no longer drift
// apart across separate lock acquisitions; Stats() loads Errors first, so a
// concurrent snapshot always observes Handled >= Errors.
type protoStats struct {
	delivered atomic.Uint64
	handled   atomic.Uint64
	errors    atomic.Uint64
}

// Protocol is the generic ManetProtocol CF (§4.2, Fig 3), instantiated and
// tailored per ad-hoc routing protocol. It hosts the protocol's plug-in
// Event Handlers and Event Sources, its Forward and State elements, and the
// ManetControl machinery: event registry (the tuple), demux, push/pop and
// lifecycle control. It is a CF, so its composition is policed by integrity
// rules (at most one C, F and S element) and reconfigurable at runtime.
type Protocol struct {
	cf      *kernel.CF
	section TicketMutex

	mu    sync.Mutex
	tuple event.Tuple
	// handlers is replaced, never written in place: the published accept
	// plan shares it.
	handlers []Handler
	sources  []*Source
	env      *Env
	started  bool
	dedic    bool // prefer the thread-per-ManetProtocol model
	stats    protoStats

	// counters reads the concrete protocol's own Stats for the
	// deployment's metrics registry; uncount, set by Attach and used by
	// Detach (which the Manager serialises), takes it off again.
	counters func(emit func(name string, v uint64))
	uncount  func()

	// plan is the compiled demux state (pooled context, matched-handler
	// tables), rebuilt whenever the handler set or deployment changes and
	// read lock-free by Accept. Nil exactly when the protocol is unattached.
	plan atomic.Pointer[acceptPlan]

	// lifecycle hooks a concrete protocol installs
	onInit  func(ctx *Context) error
	onStart func(ctx *Context) error
	onStop  func(ctx *Context) error
}

var (
	_ Unit              = (*Protocol)(nil)
	_ kernel.Quiescable = (*Protocol)(nil)
)

// ErrNotDeployed is returned by lifecycle calls on an unattached protocol.
var ErrNotDeployed = errors.New("core: protocol not deployed")

// elementRules are every ManetProtocol CF's integrity rules: at most one C,
// F and S element. They are immutable, so every protocol shares them.
var elementRules = []kernel.IntegrityRule{
	kernel.RuleSingleton("control element", func(c string) bool { return c == "control" }),
	kernel.RuleSingleton("forward element", func(c string) bool { return c == "forward" }),
	kernel.RuleSingleton("state element", func(c string) bool { return c == "state" }),
}

// NewProtocol creates an empty ManetProtocol CF with the standard integrity
// rules.
func NewProtocol(name string) *Protocol {
	p := &Protocol{}
	p.cf = kernel.NewCF(name, elementRules...)
	// The ManetControl C component: generic lifecycle operations (§4.2).
	control := kernel.NewBase("control")
	control.Provide("IControl", p)
	if err := p.cf.Insert(control); err != nil {
		panic(fmt.Sprintf("core: inserting control element: %v", err))
	}
	p.cf.Provide("IControl", p)
	return p
}

// Name implements kernel.Component.
func (p *Protocol) Name() string { return p.cf.Name() }

// Provided implements kernel.Component.
func (p *Protocol) Provided() []kernel.Interface { return p.cf.Provided() }

// Provide exports an additional interface on the protocol boundary (e.g. a
// typed IState facade for direct calls from other protocols).
func (p *Protocol) Provide(name string, impl any) { p.cf.Provide(name, impl) }

// CF exposes the protocol's architecture meta-model (ICFMeta).
func (p *Protocol) CF() *kernel.CF { return p.cf }

// Section implements Unit.
func (p *Protocol) Section() *TicketMutex { return &p.section }

// Quiesce implements kernel.Quiescable by entering the protocol's critical
// section: any in-flight handler completes first, further event-shepherding
// threads queue behind the reconfiguration (§4.5).
func (p *Protocol) Quiesce() func() {
	p.section.Lock()
	return p.section.Unlock
}

// SetTuple declares the protocol's <required, provided> events. When the
// protocol is deployed, the Framework Manager re-derives the binding
// topology immediately (declarative reconfiguration, §4.5).
func (p *Protocol) SetTuple(t event.Tuple) {
	p.mu.Lock()
	p.tuple = t
	env := p.env
	p.mu.Unlock()
	if env != nil && env.mgr != nil {
		env.mgr.Rewire()
	}
}

// Tuple implements Unit.
func (p *Protocol) Tuple() event.Tuple {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tuple
}

// OnInit, OnStart and OnStop install lifecycle hooks (run inside the
// critical section).
func (p *Protocol) OnInit(fn func(*Context) error)  { p.mu.Lock(); p.onInit = fn; p.mu.Unlock() }
func (p *Protocol) OnStart(fn func(*Context) error) { p.mu.Lock(); p.onStart = fn; p.mu.Unlock() }
func (p *Protocol) OnStop(fn func(*Context) error)  { p.mu.Lock(); p.onStop = fn; p.mu.Unlock() }

// SetCounters installs read as the source of the protocol's counters in
// the deployment's metrics registry (see metrics.Registry.Attach), which
// reads them from Attach to Detach. Call it before deployment.
func (p *Protocol) SetCounters(read func(emit func(name string, v uint64))) {
	p.mu.Lock()
	p.counters = read
	p.mu.Unlock()
}

// PreferDedicatedThread opts this protocol into the
// thread-per-ManetProtocol concurrency model, independent of the global
// model (§4.4).
func (p *Protocol) PreferDedicatedThread(on bool) {
	p.mu.Lock()
	p.dedic = on
	p.mu.Unlock()
}

func (p *Protocol) wantsDedicated() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dedic
}

// AddHandler plugs an event handler into the protocol.
func (p *Protocol) AddHandler(h Handler) error {
	if err := p.cf.Insert(h); err != nil {
		return err
	}
	p.mu.Lock()
	p.handlers = append(append(make([]Handler, 0, len(p.handlers)+1), p.handlers...), h)
	p.rebuildAcceptPlanLocked()
	p.mu.Unlock()
	return nil
}

// RemoveHandler unplugs the named handler.
func (p *Protocol) RemoveHandler(name string) error {
	if err := p.cf.Remove(name); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handlers = slices.DeleteFunc(slices.Clone(p.handlers), func(h Handler) bool { return h.Name() == name })
	p.rebuildAcceptPlanLocked()
	return nil
}

// ReplaceHandler atomically swaps the named handler for h, quiescing the
// protocol first — the paper's fine-grained reconfiguration enactment.
func (p *Protocol) ReplaceHandler(name string, h Handler) error {
	resume := p.Quiesce()
	defer resume()
	if err := p.cf.Replace(name, h); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := slices.IndexFunc(p.handlers, func(old Handler) bool { return old.Name() == name }); i >= 0 {
		p.handlers = slices.Clone(p.handlers)
		p.handlers[i] = h
	} else {
		p.handlers = append(append(make([]Handler, 0, len(p.handlers)+1), p.handlers...), h)
	}
	p.rebuildAcceptPlanLocked()
	return nil
}

// AddSource plugs in a timer-driven event source; it starts firing
// immediately if the protocol is already started.
func (p *Protocol) AddSource(s *Source) error {
	if err := p.cf.Insert(s); err != nil {
		return err
	}
	p.mu.Lock()
	p.sources = append(p.sources, s)
	started := p.started
	p.mu.Unlock()
	if started {
		s.start(p)
	}
	return nil
}

// RemoveSource unplugs and stops the named source. A CF integrity veto
// leaves the source plugged in and firing.
func (p *Protocol) RemoveSource(name string) error {
	if err := p.cf.Remove(name); err != nil {
		return err
	}
	p.mu.Lock()
	var src *Source
	if i := slices.IndexFunc(p.sources, func(s *Source) bool { return s.Name() == name }); i >= 0 {
		src = p.sources[i]
		p.sources = slices.Delete(p.sources, i, i+1)
	}
	p.mu.Unlock()
	if src != nil {
		src.stop()
	}
	return nil
}

// SetForward installs the protocol's F element (component name "forward").
func (p *Protocol) SetForward(c kernel.Component) error { return p.setElement("forward", c) }

// SetState installs the protocol's S element (component name "state").
// Passing the S element of a previous protocol instance implements the
// paper's state carry-over (§4.5).
func (p *Protocol) SetState(c kernel.Component) error { return p.setElement("state", c) }

// setElement plugs c in as the kind element, replacing the one plugged in,
// which the CF holds under that name.
func (p *Protocol) setElement(kind string, c kernel.Component) error {
	if c.Name() != kind {
		return fmt.Errorf("core: %s element must be named %q, got %q", kind, kind, c.Name())
	}
	if _, ok := p.cf.Plug(kind); !ok {
		return p.cf.Insert(c)
	}
	resume := p.Quiesce()
	defer resume()
	return p.cf.Replace(kind, c)
}

// DetachState removes and returns the S element so it can be carried over
// into a replacement protocol instance.
func (p *Protocol) DetachState() (kernel.Component, error) {
	s, ok := p.cf.Plug("state")
	if !ok {
		return nil, fmt.Errorf("%w: no state element", kernel.ErrNoComponent)
	}
	resume := p.Quiesce()
	defer resume()
	if err := p.cf.Remove("state"); err != nil {
		return nil, err
	}
	return s, nil
}

// StateElement returns the S element (nil if unset).
func (p *Protocol) StateElement() kernel.Component {
	s, _ := p.cf.Plug("state")
	return s
}

// Attach implements Unit.
func (p *Protocol) Attach(env *Env) {
	p.mu.Lock()
	p.env = env
	p.rebuildAcceptPlanLocked()
	read := p.counters
	p.mu.Unlock()
	if read != nil { // outside p.mu: read takes the State's own lock
		p.uncount = env.metrics.Attach(read)
	}
}

// Detach implements Unit.
func (p *Protocol) Detach() {
	p.Stop()
	p.mu.Lock()
	p.env = nil
	p.rebuildAcceptPlanLocked()
	p.mu.Unlock()
	if p.uncount != nil {
		p.uncount()
		p.uncount = nil
	}
}

// Deployed reports whether the protocol is attached to a Manager.
func (p *Protocol) Deployed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.env != nil
}

// Started reports whether the protocol is running.
func (p *Protocol) Started() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.started
}

// Init runs the protocol's initialisation hook (IControl.init).
func (p *Protocol) Init() error {
	p.mu.Lock()
	env, fn := p.env, p.onInit
	p.mu.Unlock()
	if env == nil {
		return ErrNotDeployed
	}
	if fn == nil {
		return nil
	}
	p.section.Lock()
	defer p.section.Unlock()
	return fn(p.ctxFor(env))
}

// Start begins protocol execution: the start hook runs and the event
// sources begin firing.
func (p *Protocol) Start() error {
	p.mu.Lock()
	if p.env == nil {
		p.mu.Unlock()
		return ErrNotDeployed
	}
	if p.started {
		p.mu.Unlock()
		return nil
	}
	p.started = true
	env := p.env
	fn := p.onStart
	sources := append([]*Source(nil), p.sources...)
	p.mu.Unlock()

	if fn != nil {
		p.section.Lock()
		err := fn(p.ctxFor(env))
		p.section.Unlock()
		if err != nil {
			p.mu.Lock()
			p.started = false
			p.mu.Unlock()
			return err
		}
	}
	for _, s := range sources {
		s.start(p)
	}
	return nil
}

// Stop halts the sources and runs the stop hook. Stop is idempotent.
func (p *Protocol) Stop() {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return
	}
	p.started = false
	env := p.env
	fn := p.onStop
	sources := append([]*Source(nil), p.sources...)
	p.mu.Unlock()

	for _, s := range sources {
		s.stop()
	}
	if fn != nil && env != nil {
		p.section.Lock()
		defer p.section.Unlock()
		_ = fn(p.ctxFor(env))
	}
}

// Tracing reports whether the deployment this protocol is attached to
// records trace spans right now — the gate for optional per-message work
// (such as correlation-ID derivation) that only pays off when the bus will
// see it. Lock-free: hot paths consult it per message.
func (p *Protocol) Tracing() bool {
	plan := p.plan.Load()
	return plan != nil && plan.traced
}

// Clock returns the deployment clock, or nil before the protocol is
// deployed.
func (p *Protocol) Clock() vclock.Clock {
	if plan := p.plan.Load(); plan != nil {
		return plan.env.Clock
	}
	return nil
}

// Emit pushes an event from this protocol into the framework from outside a
// handler — the ManetControl push operation (IPush). Used by components that
// receive stimuli from below the framework, such as the System CF's network
// driver upcall. Lock-free: the deployment environment rides the published
// accept plan. An undeployed protocol emits nothing, and a borrowed event's
// first emission is over when it returns, so its carrier is released then.
func (p *Protocol) Emit(ev *event.Event) error {
	_, err := p.EmitSettled(ev)
	return err
}

// EmitSettled is Emit reporting whether the emission settled: whether every
// delivery it caused, its handlers' emissions included, had returned when it
// returned (Manager.emit). Only then may what ev's payload points into be
// recycled, as the System CF recycles a received frame's decode. An
// undeployed protocol delivers nothing, which settles.
func (p *Protocol) EmitSettled(ev *event.Event) (bool, error) {
	plan := p.plan.Load()
	if plan == nil {
		if ev.Claim() {
			ev.Release()
		}
		return true, ErrNotDeployed
	}
	return plan.env.emitSettled(ev), nil
}

// RunLocked executes fn inside the protocol's critical section with a
// deployment context. Timer callbacks (e.g. route-discovery retries) use it
// to interact with protocol state under the same atomicity guarantee as
// event handlers.
func (p *Protocol) RunLocked(fn func(*Context)) error {
	plan := p.plan.Load()
	if plan == nil {
		return ErrNotDeployed
	}
	p.section.Lock()
	defer p.section.Unlock()
	fn(plan.ctx)
	return nil
}

// Accept implements Unit: the demux dispatches the event to every handler
// whose pattern matches. The Framework Manager holds the critical section
// when calling Accept, so handler execution is atomic. The steady-state path
// reads only the published plan: no p.mu, no handler-slice copy, no Context
// allocation, and for a type some handler matches, no hash and no
// per-handler ontology walk.
func (p *Protocol) Accept(ev *event.Event) error {
	plan := p.plan.Load()
	if plan == nil {
		return ErrNotDeployed
	}
	if plan.ontVersion != plan.ont.Version() {
		// RegisterType re-shaped the hierarchy since compilation; the
		// matched-handler tables may be stale. Rare, so recompile here.
		if plan = p.rebuildAcceptPlan(); plan == nil {
			return ErrNotDeployed
		}
	}
	p.stats.delivered.Add(1)
	var errs []error
	if matched, ok := plan.matchedFor(ev.Type); ok {
		for _, h := range matched {
			errs = p.runHandler(plan, h, ev, errs)
		}
	} else {
		// No handler matched the type at compile time, or the ontology did
		// not know it then: match on the fly (identity and Any still apply;
		// Matches is lock-free).
		for _, h := range plan.handlers {
			if !plan.ont.Matches(ev.Type, h.Pattern()) {
				continue
			}
			errs = p.runHandler(plan, h, ev, errs)
		}
	}
	return errors.Join(errs...)
}

// runHandler invokes one matched handler with the plan's pooled context and
// settles the per-event counters: Handled is counted when the handler
// returns, immediately followed by Errors on failure.
func (p *Protocol) runHandler(plan *acceptPlan, h Handler, ev *event.Event, errs []error) []error {
	if plan.traced {
		obs := plan.obs
		obs.bus.Record(plan.env.Clock.Now(), telemetry.Span{
			Node: obs.nodeStr, Kind: telemetry.KindHandle,
			Event: string(ev.Type), To: p.Name(), Handler: h.Name(),
			Corr: ev.Corr,
		})
	}
	err := h.Handle(plan.ctx, ev)
	p.stats.handled.Add(1)
	if err != nil {
		p.stats.errors.Add(1)
		errs = append(errs, fmt.Errorf("handler %q: %w", h.Name(), err))
	}
	return errs
}

// Stats returns a snapshot of the protocol's event counters. Errors is
// loaded before Handled, so the snapshot never shows an error without its
// handler invocation.
func (p *Protocol) Stats() Stats {
	e := p.stats.errors.Load()
	h := p.stats.handled.Load()
	d := p.stats.delivered.Load()
	return Stats{Delivered: d, Handled: h, Errors: e}
}

// Reconfigure quiesces the protocol and runs fn — arbitrary fine-grained
// reconfiguration under mutual exclusion with event processing.
func (p *Protocol) Reconfigure(fn func() error) error {
	resume := p.Quiesce()
	defer resume()
	return fn()
}

// String renders a short diagnostic description.
func (p *Protocol) String() string {
	t := p.Tuple()
	var req, prov []string
	for _, r := range t.Required {
		s := string(r.Type)
		if r.Exclusive {
			s += "!"
		}
		req = append(req, s)
	}
	for _, pr := range t.Provided {
		prov = append(prov, string(pr))
	}
	return fmt.Sprintf("%s<req:%s prov:%s>", p.Name(), strings.Join(req, ","), strings.Join(prov, ","))
}
