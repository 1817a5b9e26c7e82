package core

import (
	"errors"
	"slices"
	"testing"

	"manetkit/internal/event"
	"manetkit/internal/kernel"
)

func TestManagerSealKeepsRoutingWorking(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.HelloIn}})
	sink := newRecorder(t, "sink", event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	m.Deploy(src.p)
	m.Deploy(sink.p)
	bound := m.Arch().Bindings
	if len(bound) == 0 {
		t.Fatal("setup: no reflective bindings")
	}
	m.Seal()
	// Kernel metadata is unloaded, but event routing keeps working and the
	// bindings, derived from the chains that route, are still shown.
	emitFrom(t, m, "src", &event.Event{Type: event.HelloIn})
	if len(sink.events()) != 1 {
		t.Fatal("event routing broken by Seal")
	}
	if got := m.Arch().Bindings; !slices.Equal(got, bound) {
		t.Fatalf("bindings after Seal = %v, before %v", got, bound)
	}
	// Rewire becomes a metadata no-op rather than an error.
	m.Rewire()
	emitFrom(t, m, "src", &event.Event{Type: event.HelloIn})
	if len(sink.events()) != 2 {
		t.Fatal("routing broken after post-seal Rewire")
	}
	if got := m.Arch().Bindings; !slices.Equal(got, bound) {
		t.Fatalf("bindings after post-seal Rewire = %v, before %v", got, bound)
	}
	// Protocol CFs are sealed too: structural mutation is refused.
	err := sink.p.CF().Insert(kernel.NewBase("late"))
	if !errors.Is(err, kernel.ErrSealed) {
		t.Fatalf("post-seal Insert = %v", err)
	}
}

func TestProtocolLifecycleErrors(t *testing.T) {
	p := NewProtocol("p")
	if err := p.Init(); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("Init undeployed = %v", err)
	}
	if err := p.Emit(&event.Event{Type: event.HelloIn}); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("Emit undeployed = %v", err)
	}
	if err := p.RunLocked(func(*Context) {}); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("RunLocked undeployed = %v", err)
	}
	if p.Clock() != nil {
		t.Fatal("Clock on undeployed protocol non-nil")
	}
	if err := p.Accept(&event.Event{Type: event.HelloIn}); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("Accept undeployed = %v", err)
	}
	if _, err := p.DetachState(); err == nil {
		t.Fatal("DetachState without state succeeded")
	}
	if err := p.RemoveHandler("ghost"); err == nil {
		t.Fatal("RemoveHandler of missing handler succeeded")
	}
	p.Stop() // Stop before Start is a no-op
}

func TestManagerMiscErrors(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	if err := m.EnableDedicatedThread("ghost"); err == nil {
		t.Fatal("EnableDedicatedThread on missing unit succeeded")
	}
	if err := m.DisableDedicatedThread("ghost"); err == nil {
		t.Fatal("DisableDedicatedThread on missing unit succeeded")
	}
	if _, ok := m.Unit("ghost"); ok {
		t.Fatal("Unit found a ghost")
	}
	inter, terms := m.Chain(event.HelloIn)
	if inter != nil || terms != nil {
		t.Fatal("Chain for unknown type non-empty")
	}
	// Deploy after Close fails.
	m.Close()
	p := NewProtocol("late")
	if err := m.Deploy(p); err == nil {
		t.Fatal("Deploy after Close succeeded")
	}
	m.Close() // idempotent
}

func TestStartHookFailureRollsBackStarted(t *testing.T) {
	m, clk := newMgr(t, SingleThreaded)
	p := NewProtocol("p")
	p.SetTuple(event.Tuple{})
	boom := errors.New("boom")
	p.OnStart(func(*Context) error { return boom })
	fired := 0
	p.AddSource(NewSource("s", 1e6, 0, func(*Context) { fired++ }))
	if err := m.Deploy(p); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); !errors.Is(err, boom) {
		t.Fatalf("Start = %v", err)
	}
	if p.Started() {
		t.Fatal("protocol marked started after hook failure")
	}
	clk.RunUntilIdle(10)
	if fired != 0 {
		t.Fatal("sources started despite hook failure")
	}
}

func TestQueryUnitDirectCall(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	p := NewProtocol("holder")
	p.SetTuple(event.Tuple{})
	type facade interface{ Magic() int }
	p.Provide("IMagic", magicImpl{})
	if err := m.Deploy(p); err != nil {
		t.Fatal(err)
	}
	probe := NewProtocol("probe")
	probe.SetTuple(event.Tuple{})
	if err := m.Deploy(probe); err != nil {
		t.Fatal(err)
	}
	var got int
	probe.RunLocked(func(ctx *Context) {
		if f, ok := QueryUnit[facade](ctx.Env(), "holder"); ok {
			got = f.Magic()
		}
	})
	if got != 42 {
		t.Fatalf("direct call got %d", got)
	}
	probe.RunLocked(func(ctx *Context) {
		if _, ok := QueryUnit[facade](ctx.Env(), "ghost"); ok {
			t.Error("QueryUnit found a ghost")
		}
	})
}

type magicImpl struct{}

func (magicImpl) Magic() int { return 42 }
