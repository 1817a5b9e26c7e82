package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"manetkit/internal/event"
	"manetkit/internal/kernel"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newMgr(t *testing.T, model Model) (*Manager, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	m, err := NewManager(Config{
		Node:  mnet.MustParseAddr("10.0.0.1"),
		Clock: clk,
		Model: model,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, clk
}

// recorder builds a protocol that records every event it accepts.
type recorder struct {
	p   *Protocol
	mu  sync.Mutex
	got []event.Type
}

func newRecorder(t *testing.T, name string, tuple event.Tuple) *recorder {
	t.Helper()
	r := &recorder{p: NewProtocol(name)}
	r.p.SetTuple(tuple)
	h := NewHandler(name+"-h", event.Any, func(ctx *Context, ev *event.Event) error {
		r.mu.Lock()
		r.got = append(r.got, ev.Type)
		r.mu.Unlock()
		return nil
	})
	if err := r.p.AddHandler(h); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *recorder) events() []event.Type {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]event.Type(nil), r.got...)
}

func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{Node: mnet.Addr{}}); err == nil {
		t.Fatal("unspecified node accepted")
	}
	if _, err := NewManager(Config{Node: mnet.Broadcast}); err == nil {
		t.Fatal("broadcast node accepted")
	}
}

func TestAutoBindingFromTuples(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	req := newRecorder(t, "requirer", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	if err := m.Deploy(prov.p); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy(req.p); err != nil {
		t.Fatal(err)
	}
	// Reflective view shows the derived binding.
	arch := m.Arch()
	found := false
	for _, b := range arch.Bindings {
		if b.From == "provider" && b.To == "requirer" {
			found = true
		}
	}
	if !found {
		t.Fatalf("derived binding missing: %+v", arch.Bindings)
	}
	// Event flows provider -> requirer.
	env := &Env{} // emit through the protocol's own context
	_ = env
	prov.p.Start()
	req.p.Start()
	emitFrom(t, m, "provider", &event.Event{Type: event.TCOut})
	if got := req.events(); len(got) != 1 || got[0] != event.TCOut {
		t.Fatalf("requirer got %v", got)
	}
	if got := prov.events(); len(got) != 0 {
		t.Fatalf("provider received its own event: %v", got)
	}
}

// emitFrom emits an event from the named deployed unit and waits for every
// delivery to finish.
func emitFrom(t *testing.T, m *Manager, from string, ev *event.Event) {
	t.Helper()
	emitAs(m, from, ev)
	m.WaitIdle()
}

// emitAs emits ev the way the named unit's Env does; a name no deployed unit
// holds emits from outside every chain, as the context poller.
func emitAs(m *Manager, from string, ev *event.Event) {
	m.mu.Lock()
	rec := m.unitLocked(from)
	m.mu.Unlock()
	m.emit(rec, ev)
}

func TestBroadcastFanOut(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	prov := newRecorder(t, "sys", event.Tuple{Provided: []event.Type{event.HelloIn}})
	r1 := newRecorder(t, "p1", event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	r2 := newRecorder(t, "p2", event.Tuple{Required: []event.Requirement{{Type: event.MsgIn}}}) // abstract
	for _, u := range []*Protocol{prov.p, r1.p, r2.p} {
		if err := m.Deploy(u); err != nil {
			t.Fatal(err)
		}
	}
	emitFrom(t, m, "sys", &event.Event{Type: event.HelloIn})
	if len(r1.events()) != 1 {
		t.Fatalf("p1 got %v", r1.events())
	}
	if len(r2.events()) != 1 {
		t.Fatal("abstract (ontology) requirement did not receive concrete subtype")
	}
}

func TestExclusiveReceive(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	prov := newRecorder(t, "sys", event.Tuple{Provided: []event.Type{event.NoRoute}})
	excl := newRecorder(t, "dymo", event.Tuple{Required: []event.Requirement{{Type: event.NoRoute, Exclusive: true}}})
	other := newRecorder(t, "snoop", event.Tuple{Required: []event.Requirement{{Type: event.NoRoute}}})
	for _, u := range []*Protocol{prov.p, excl.p, other.p} {
		if err := m.Deploy(u); err != nil {
			t.Fatal(err)
		}
	}
	emitFrom(t, m, "sys", &event.Event{Type: event.NoRoute})
	if len(excl.events()) != 1 {
		t.Fatal("exclusive requirer did not receive event")
	}
	if len(other.events()) != 0 {
		t.Fatal("exclusive receive leaked to another requirer")
	}
}

func TestInterposition(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	olsr := newRecorder(t, "olsr", event.Tuple{Provided: []event.Type{event.TCOut}})
	sys := newRecorder(t, "sys", event.Tuple{Required: []event.Requirement{{Type: event.MsgOut}}})

	// Fisheye-style interposer: provides AND requires TC_OUT, rewrites the
	// hop limit and re-emits.
	fish := NewProtocol("fisheye")
	fish.SetTuple(event.Tuple{
		Required: []event.Requirement{{Type: event.TCOut}},
		Provided: []event.Type{event.TCOut},
	})
	var sawInInterposer int
	fish.AddHandler(NewHandler("fish-h", event.TCOut, func(ctx *Context, ev *event.Event) error {
		sawInInterposer++
		out := *ev
		out.Device = "rewritten"
		ctx.Emit(&out)
		return nil
	}))

	for _, u := range []*Protocol{olsr.p, sys.p, fish} {
		if err := m.Deploy(u); err != nil {
			t.Fatal(err)
		}
	}
	inter, terms := m.Chain(event.TCOut)
	if len(inter) != 1 || inter[0] != "fisheye" {
		t.Fatalf("interposers = %v", inter)
	}
	if len(terms) != 1 || terms[0] != "sys" {
		t.Fatalf("terminals = %v", terms)
	}

	var sysGot []event.Event
	sysH := NewHandler("sys-capture", event.TCOut, func(ctx *Context, ev *event.Event) error {
		sysGot = append(sysGot, *ev) // the delivery lends ev: keep a copy
		return nil
	})
	if err := sys.p.AddHandler(sysH); err != nil {
		t.Fatal(err)
	}

	emitFrom(t, m, "olsr", &event.Event{Type: event.TCOut})
	if sawInInterposer != 1 {
		t.Fatalf("interposer saw %d events", sawInInterposer)
	}
	if len(sysGot) != 1 || sysGot[0].Device != "rewritten" {
		t.Fatalf("terminal got %d events, modified=%v", len(sysGot), sysGot)
	}
	// No loop: the interposer's own emission did not come back to it.
	if sawInInterposer != 1 {
		t.Fatal("interposition looped")
	}
}

func TestInterposerCanDropEvents(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.TCOut}})
	sink := newRecorder(t, "sink", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	filter := NewProtocol("filter")
	filter.SetTuple(event.Tuple{
		Required: []event.Requirement{{Type: event.TCOut}},
		Provided: []event.Type{event.TCOut},
	})
	filter.AddHandler(NewHandler("drop-all", event.TCOut, func(ctx *Context, ev *event.Event) error {
		return nil // swallow
	}))
	for _, u := range []*Protocol{src.p, sink.p, filter} {
		if err := m.Deploy(u); err != nil {
			t.Fatal(err)
		}
	}
	emitFrom(t, m, "src", &event.Event{Type: event.TCOut})
	if len(sink.events()) != 0 {
		t.Fatal("dropped event reached terminal")
	}
}

func TestInterposerChainOrderFollowsDeployment(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.TCOut}})
	sink := newRecorder(t, "sink", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	var order []string
	mkInter := func(name string) *Protocol {
		p := NewProtocol(name)
		p.SetTuple(event.Tuple{
			Required: []event.Requirement{{Type: event.TCOut}},
			Provided: []event.Type{event.TCOut},
		})
		p.AddHandler(NewHandler(name+"-h", event.TCOut, func(ctx *Context, ev *event.Event) error {
			order = append(order, name)
			ctx.Emit(ev)
			return nil
		}))
		return p
	}
	i1, i2 := mkInter("inter1"), mkInter("inter2")
	for _, u := range []*Protocol{src.p, i1, i2, sink.p} {
		if err := m.Deploy(u); err != nil {
			t.Fatal(err)
		}
	}
	emitFrom(t, m, "src", &event.Event{Type: event.TCOut})
	if len(order) != 2 || order[0] != "inter1" || order[1] != "inter2" {
		t.Fatalf("interposer order = %v", order)
	}
	if len(sink.events()) != 1 {
		t.Fatalf("sink got %v", sink.events())
	}
}

func TestDeclarativeRewireOnSetTuple(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.TCOut}})
	sink := newRecorder(t, "sink", event.Tuple{})
	if err := m.Deploy(src.p); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy(sink.p); err != nil {
		t.Fatal(err)
	}
	emitFrom(t, m, "src", &event.Event{Type: event.TCOut})
	if len(sink.events()) != 0 {
		t.Fatal("event delivered without requirement")
	}
	// Declarative reconfiguration: update the tuple, topology follows.
	sink.p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	emitFrom(t, m, "src", &event.Event{Type: event.TCOut})
	if len(sink.events()) != 1 {
		t.Fatalf("rewire did not take effect: %v", sink.events())
	}
}

func TestUndeployRemovesFromTopology(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.TCOut}})
	sink := newRecorder(t, "sink", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	if err := m.Deploy(src.p); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy(sink.p); err != nil {
		t.Fatal(err)
	}
	if err := m.Undeploy("sink"); err != nil {
		t.Fatal(err)
	}
	emitFrom(t, m, "src", &event.Event{Type: event.TCOut})
	if len(sink.events()) != 0 {
		t.Fatal("undeployed unit received event")
	}
	if len(m.Units()) != 1 {
		t.Fatalf("Units = %v", m.Units())
	}
	if err := m.Undeploy("sink"); err == nil {
		t.Fatal("double undeploy succeeded")
	}
	// Duplicate deployment rejected.
	dupe := newRecorder(t, "src", event.Tuple{})
	if err := m.Deploy(dupe.p); err == nil {
		t.Fatal("duplicate unit name accepted")
	}
}

func TestHandlerDemuxMatchesPattern(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	p := NewProtocol("p")
	p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.MsgIn}}})
	var hello, tc, all int
	p.AddHandler(NewHandler("hello-h", event.HelloIn, func(*Context, *event.Event) error { hello++; return nil }))
	p.AddHandler(NewHandler("tc-h", event.TCIn, func(*Context, *event.Event) error { tc++; return nil }))
	p.AddHandler(NewHandler("all-h", event.MsgIn, func(*Context, *event.Event) error { all++; return nil }))
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.HelloIn, event.TCIn}})
	if err := m.Deploy(src.p); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy(p); err != nil {
		t.Fatal(err)
	}
	emitFrom(t, m, "src", &event.Event{Type: event.HelloIn})
	emitFrom(t, m, "src", &event.Event{Type: event.TCIn})
	if hello != 1 || tc != 1 || all != 2 {
		t.Fatalf("demux counts hello=%d tc=%d all=%d", hello, tc, all)
	}
	st := p.Stats()
	if st.Delivered != 2 || st.Handled != 4 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestHandlerErrorsAreAggregated(t *testing.T) {
	p := NewProtocol("p")
	p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	sentinel := errors.New("boom")
	p.AddHandler(NewHandler("bad", event.HelloIn, func(*Context, *event.Event) error { return sentinel }))
	p.Attach(&Env{Node: mnet.MustParseAddr("10.0.0.1"), Clock: vclock.NewVirtual(epoch), Ontology: event.NewOntology()})
	err := p.Accept(&event.Event{Type: event.HelloIn})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Accept = %v", err)
	}
	if p.Stats().Errors != 1 {
		t.Fatalf("Stats = %+v", p.Stats())
	}
}

func TestProtocolLifecycleAndSources(t *testing.T) {
	m, clk := newMgr(t, SingleThreaded)
	p := NewProtocol("beacon")
	p.SetTuple(event.Tuple{Provided: []event.Type{event.HelloOut}})
	var fired int
	p.AddSource(NewSource("hello-gen", 10*time.Millisecond, 0, func(ctx *Context) {
		fired++
		ctx.Emit(&event.Event{Type: event.HelloOut})
	}))
	var inited, started, stopped bool
	p.OnInit(func(*Context) error { inited = true; return nil })
	p.OnStart(func(*Context) error { started = true; return nil })
	p.OnStop(func(*Context) error { stopped = true; return nil })

	if err := p.Start(); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("Start undeployed = %v", err)
	}
	if err := m.Deploy(p); err != nil {
		t.Fatal(err)
	}
	if err := p.Init(); err != nil || !inited {
		t.Fatalf("Init: %v, inited=%v", err, inited)
	}
	if err := p.Start(); err != nil || !started {
		t.Fatalf("Start: %v", err)
	}
	clk.Advance(35 * time.Millisecond)
	if fired != 3 {
		t.Fatalf("source fired %d times", fired)
	}
	p.Stop()
	if !stopped {
		t.Fatal("stop hook not run")
	}
	clk.Advance(50 * time.Millisecond)
	if fired != 3 {
		t.Fatal("source fired after Stop")
	}
	// Restart works.
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	if fired != 4 {
		t.Fatalf("source did not resume: %d", fired)
	}
}

// TestLifecycleHookAllocs: Init, Start and Stop hand a deployed protocol's
// hooks its pooled Context (ctxFor), so a lifecycle round trip through
// hooks allocates nothing — a routing CF's start hook is free.
func TestLifecycleHookAllocs(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	p := NewProtocol("p")
	hook := func(*Context) error { return nil }
	p.OnInit(hook)
	p.OnStart(hook)
	p.OnStop(hook)
	if err := m.Deploy(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		_ = p.Init()
		_ = p.Start()
		p.Stop()
	})
	if allocs != 0 {
		t.Errorf("Init, Start and Stop with hooks allocate %.0f objects", allocs)
	}
}

func TestSourceAddedWhileRunningStarts(t *testing.T) {
	m, clk := newMgr(t, SingleThreaded)
	p := NewProtocol("p")
	p.SetTuple(event.Tuple{})
	if err := m.Deploy(p); err != nil {
		t.Fatal(err)
	}
	p.Start()
	var n int
	p.AddSource(NewSource("late", 5*time.Millisecond, 0, func(*Context) { n++ }))
	clk.Advance(11 * time.Millisecond)
	if n != 2 {
		t.Fatalf("late source fired %d", n)
	}
	if err := p.RemoveSource("late"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Millisecond)
	if n != 2 {
		t.Fatal("removed source still firing")
	}
}

// TestRemoveSourceVetoKeepsItFiring: a CF integrity rule that vetoes the
// removal leaves the source plugged in and still firing.
func TestRemoveSourceVetoKeepsItFiring(t *testing.T) {
	m, clk := newMgr(t, SingleThreaded)
	p := NewProtocol("p")
	p.SetTuple(event.Tuple{})
	if err := m.Deploy(p); err != nil {
		t.Fatal(err)
	}
	p.Start()
	var n int
	p.AddSource(NewSource("beacon", time.Second, 0, func(*Context) { n++ }))
	if err := p.CF().AddRule(kernel.RuleRequired("beacon", func(c string) bool { return c == "beacon" })); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2500 * time.Millisecond)
	if n != 2 {
		t.Fatalf("beacon fired %d times in 2.5s", n)
	}
	if err := p.RemoveSource("beacon"); !errors.Is(err, kernel.ErrIntegrity) {
		t.Fatalf("RemoveSource = %v, want ErrIntegrity", err)
	}
	if _, ok := p.CF().Plug("beacon"); !ok {
		t.Fatal("vetoed removal unplugged the beacon")
	}
	clk.Advance(3 * time.Second)
	if n != 5 {
		t.Fatalf("beacon fired %d times by 5.5s, want 5: the vetoed removal stopped it", n)
	}
}

func TestReplaceHandlerUnderQuiescence(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	p := NewProtocol("dymo")
	p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.REIn}}})
	var v1, v2 int
	p.AddHandler(NewHandler("re-handler", event.REIn, func(*Context, *event.Event) error { v1++; return nil }))
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.REIn}})
	m.Deploy(src.p)
	m.Deploy(p)
	emitFrom(t, m, "src", &event.Event{Type: event.REIn})
	// Swap in the multipath RE handler.
	if err := p.ReplaceHandler("re-handler", NewHandler("re-handler-mp", event.REIn,
		func(*Context, *event.Event) error { v2++; return nil })); err != nil {
		t.Fatal(err)
	}
	emitFrom(t, m, "src", &event.Event{Type: event.REIn})
	if v1 != 1 || v2 != 1 {
		t.Fatalf("v1=%d v2=%d", v1, v2)
	}
}

func TestStateCarryOver(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	old := NewProtocol("proto-v1")
	stateComp := NewStateComponent("state", map[string]int{"routes": 7})
	if err := old.SetState(stateComp); err != nil {
		t.Fatal(err)
	}
	m.Deploy(old)
	// Replace protocol, carrying the S component over (§4.5).
	detached, err := old.DetachState()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Undeploy("proto-v1"); err != nil {
		t.Fatal(err)
	}
	repl := NewProtocol("proto-v2")
	if err := repl.SetState(detached); err != nil {
		t.Fatal(err)
	}
	m.Deploy(repl)
	got, ok := StateValue[map[string]int](repl)
	if !ok || got["routes"] != 7 {
		t.Fatalf("carried state = %v, %v", got, ok)
	}
}

func TestIntegrityTwoStateElementsRejected(t *testing.T) {
	p := NewProtocol("p")
	if err := p.SetState(NewStateComponent("state", 1)); err != nil {
		t.Fatal(err)
	}
	// SetState replaces; direct CF insert of a second "state" must fail.
	err := p.CF().Insert(NewStateComponent("state", 2))
	if err == nil {
		t.Fatal("second state element accepted by CF")
	}
	// Misnamed element rejected by SetState.
	if err := p.SetForward(NewStateComponent("state", 3)); err == nil {
		t.Fatal("misnamed forward element accepted")
	}
}

func TestContextConcentrator(t *testing.T) {
	m, clk := newMgr(t, SingleThreaded)
	src := newRecorder(t, "sensor", event.Tuple{Provided: []event.Type{event.PowerStatus}})
	m.Deploy(src.p)
	var got []event.Event
	m.SubscribeContext(event.Context, func(ev *event.Event) { got = append(got, *ev) })
	emitFrom(t, m, "sensor", &event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.5}})
	if len(got) != 1 || got[0].Power.Fraction != 0.5 {
		t.Fatalf("concentrator got %v", got)
	}
	// Poll-based source hidden behind the facade.
	m.AddContextPoller(20*time.Millisecond, func() *event.Event {
		return &event.Event{Type: event.SysStatus}
	})
	clk.Advance(45 * time.Millisecond)
	if len(got) != 3 {
		t.Fatalf("poller contributed %d events", len(got)-1)
	}
}

func TestQuiesceBlocksDelivery(t *testing.T) {
	m, _ := newMgr(t, PerMessage)
	sink := newRecorder(t, "sink", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.TCOut}})
	m.Deploy(src.p)
	m.Deploy(sink.p)

	resume := m.Quiesce()
	emitAs(m, "src", &event.Event{Type: event.TCOut}) // shepherd goroutine blocks on section
	time.Sleep(10 * time.Millisecond)
	if len(sink.events()) != 0 {
		t.Fatal("delivery proceeded during quiescence")
	}
	resume()
	m.WaitIdle()
	if len(sink.events()) != 1 {
		t.Fatalf("delivery lost after resume: %v", sink.events())
	}
}

// Every manager starts from the one standard hierarchy; a type registered
// on one manager's ontology stays there: the others neither see it nor
// move their Version.
func TestRegisterTypeStaysWithItsManager(t *testing.T) {
	a, _ := newMgr(t, SingleThreaded)
	b, _ := newMgr(t, SingleThreaded)
	c, _ := newMgr(t, SingleThreaded)
	if err := a.Ontology().RegisterType("X_LOCAL", event.MsgIn); err != nil {
		t.Fatal(err)
	}
	if !a.Ontology().Matches("X_LOCAL", event.MsgIn) || a.Ontology().Version() != 1 {
		t.Fatal("the registering ontology lost its type")
	}
	for _, m := range []*Manager{b, c} {
		o := m.Ontology()
		if o.Version() != 0 || o.Parent("X_LOCAL") != "" || o.Matches("X_LOCAL", event.MsgIn) {
			t.Fatalf("another manager's ontology saw the type: version %d", o.Version())
		}
		if got, want := o.Types(), event.NewOntology().Types(); len(got) != len(want) || &got[0] != &want[0] {
			t.Fatal("another manager's ontology no longer shares the standard hierarchy")
		}
	}
}
