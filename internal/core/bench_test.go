package core

import (
	"testing"
	"time"

	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

func benchManager(b *testing.B, model Model) *Manager {
	b.Helper()
	m, err := NewManager(Config{
		Node:  mnet.MustParseAddr("10.0.0.1"),
		Clock: vclock.NewVirtual(epoch),
		Model: model,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
	return m
}

func deployPair(b testing.TB, m *Manager) *Protocol {
	b.Helper()
	src := NewProtocol("src")
	src.SetTuple(event.Tuple{Provided: []event.Type{event.HelloIn}})
	sink := NewProtocol("sink")
	sink.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	sink.AddHandler(NewHandler("h", event.HelloIn, func(*Context, *event.Event) error { return nil }))
	for _, p := range []*Protocol{src, sink} {
		if err := m.Deploy(p); err != nil {
			b.Fatal(err)
		}
	}
	return src
}

// deployInterposer adds a unit that requires and re-provides HELLO_IN,
// forwarding every event it is handed.
func deployInterposer(b testing.TB, m *Manager) {
	b.Helper()
	inter := NewProtocol("inter")
	inter.SetTuple(event.Tuple{
		Required: []event.Requirement{{Type: event.HelloIn}},
		Provided: []event.Type{event.HelloIn},
	})
	inter.AddHandler(NewHandler("fwd", event.HelloIn, func(ctx *Context, ev *event.Event) error {
		ctx.Emit(ev)
		return nil
	}))
	if err := m.Deploy(inter); err != nil {
		b.Fatal(err)
	}
}

// TestDispatchAllocs pins SingleThreaded dispatch at zero allocations per
// event on every route through the manager: a direct delivery, one through
// an interposer, a type no unit requires (dropped), a delivery a stale plan
// makes to a detached unit (dropped through ErrNotDeployed), a delivery the
// context concentrator also hands a subscriber, a timer source's tick, a
// type outside the emitter's tuple (the chain's default route), a type the
// receiver has no handler for (matched on the fly), and the first emit
// under a freshly compiled plan (route tables are compiled, not filled).
// The TicketMutex every delivery takes, with the ticket wait the PerMessage
// and PerN shepherds go through, is pinned on its own, uncontended.
func TestDispatchAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drops bool
		setup func(t *testing.T, m *Manager, clk *vclock.Virtual) func()
	}{
		{"direct", false, func(t *testing.T, m *Manager, _ *vclock.Virtual) func() {
			src := deployPair(t, m)
			ev := &event.Event{Type: event.HelloIn}
			return func() { _ = src.Emit(ev) }
		}},
		{"interposed", false, func(t *testing.T, m *Manager, _ *vclock.Virtual) func() {
			src := deployPair(t, m)
			deployInterposer(t, m)
			ev := &event.Event{Type: event.HelloIn}
			return func() { _ = src.Emit(ev) }
		}},
		{"no chain", true, func(t *testing.T, m *Manager, _ *vclock.Virtual) func() {
			src := NewProtocol("src")
			src.SetTuple(event.Tuple{Provided: []event.Type{event.HelloIn}})
			if err := m.Deploy(src); err != nil {
				t.Fatal(err)
			}
			ev := &event.Event{Type: event.HelloIn}
			return func() { _ = src.Emit(ev) }
		}},
		{"stale unit", true, func(t *testing.T, m *Manager, _ *vclock.Virtual) func() {
			src := deployPair(t, m)
			stale := m.plan.Load()
			if err := m.Undeploy("sink"); err != nil {
				t.Fatal(err)
			}
			m.plan.Store(stale) // a concurrent emitter may still hold it
			ev := &event.Event{Type: event.HelloIn}
			return func() { _ = src.Emit(ev) }
		}},
		{"context subscriber", false, func(t *testing.T, m *Manager, _ *vclock.Virtual) func() {
			src := NewProtocol("src")
			src.SetTuple(event.Tuple{Provided: []event.Type{event.NhoodChange}})
			sink := NewProtocol("sink")
			sink.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.NhoodChange}}})
			sink.AddHandler(NewHandler("h", event.NhoodChange, func(*Context, *event.Event) error { return nil }))
			for _, p := range []*Protocol{src, sink} {
				if err := m.Deploy(p); err != nil {
					t.Fatal(err)
				}
			}
			seen := 0
			m.SubscribeContext(event.Context, func(*event.Event) { seen++ })
			ev := &event.Event{Type: event.NhoodChange}
			return func() {
				before := seen
				_ = src.Emit(ev)
				if seen != before+1 {
					t.Fatal("the context subscriber missed the event")
				}
			}
		}},
		{"source tick", false, func(t *testing.T, m *Manager, clk *vclock.Virtual) func() {
			src := deployPair(t, m)
			ev := &event.Event{Type: event.HelloIn}
			src.AddSource(NewSource("gen", time.Millisecond, 0, func(ctx *Context) { ctx.Emit(ev) }))
			if err := src.Start(); err != nil {
				t.Fatal(err)
			}
			return func() {
				before := m.Stats().Delivered
				clk.Advance(time.Millisecond)
				if m.Stats().Delivered != before+1 {
					t.Fatal("the source did not fire")
				}
			}
		}},
		{"outside tuple", false, func(t *testing.T, m *Manager, _ *vclock.Virtual) func() {
			deployPair(t, m)
			stranger := NewProtocol("stranger")
			stranger.SetTuple(event.Tuple{Provided: []event.Type{event.TCOut}})
			if err := m.Deploy(stranger); err != nil {
				t.Fatal(err)
			}
			ev := &event.Event{Type: event.HelloIn}
			return func() {
				before := m.Stats().Delivered
				_ = stranger.Emit(ev)
				if m.Stats().Delivered != before+1 {
					t.Fatal("the default route did not deliver")
				}
			}
		}},
		{"no handler", false, func(t *testing.T, m *Manager, _ *vclock.Virtual) func() {
			src := NewProtocol("src")
			src.SetTuple(event.Tuple{Provided: []event.Type{event.HelloIn}})
			sink := NewProtocol("sink")
			sink.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.MsgIn}}})
			sink.AddHandler(NewHandler("h", event.TCIn, func(*Context, *event.Event) error { return nil }))
			for _, p := range []*Protocol{src, sink} {
				if err := m.Deploy(p); err != nil {
					t.Fatal(err)
				}
			}
			ev := &event.Event{Type: event.HelloIn}
			return func() {
				before := sink.Stats()
				_ = src.Emit(ev)
				if after := sink.Stats(); after.Delivered != before.Delivered+1 || after.Handled != before.Handled {
					t.Fatalf("sink stats %+v -> %+v: want one delivery and no handler", before, after)
				}
			}
		}},
		{"fresh plan", false, func(t *testing.T, m *Manager, _ *vclock.Virtual) func() {
			src := deployPair(t, m)
			sink, _ := m.Unit("sink")
			plans := [2]*dispatchPlan{m.plan.Load()}
			sink.(*Protocol).SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn, Exclusive: true}}})
			plans[1] = m.plan.Load()
			if before, after := routesOf(m, plans[0], "src"), routesOf(m, plans[1], "src"); after == nil || sameRoutes(before, after) {
				t.Fatal("the retuple did not recompile the emitter's route table")
			}
			ev := &event.Event{Type: event.HelloIn}
			i := 0
			return func() {
				m.plan.Store(plans[i%2])
				i++
				before := m.Stats().Delivered
				_ = src.Emit(ev)
				if m.Stats().Delivered != before+1 {
					t.Fatal("the fresh plan did not deliver")
				}
			}
		}},
		{"ticket mutex", false, func(*testing.T, *Manager, *vclock.Virtual) func() {
			var tm TicketMutex
			return func() {
				tm.Wait(tm.Ticket())
				tm.Unlock()
				tm.Lock()
				tm.Unlock()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, clk := newMgr(t, SingleThreaded)
			op := tc.setup(t, m, clk)
			op() // warm
			if n := testing.AllocsPerRun(100, op); n != 0 {
				t.Errorf("%s dispatch allocates %.0f objects per event, want 0", tc.name, n)
			}
			if st := m.Stats(); (st.Dropped > 0) != tc.drops {
				t.Errorf("stats %+v: the case did not take its route (drops: %v)", st, tc.drops)
			}
		})
	}
}

// BenchmarkEmitDirect measures the provider->requirer path.
func BenchmarkEmitDirect(b *testing.B) {
	m := benchManager(b, SingleThreaded)
	src := deployPair(b, m)
	ev := &event.Event{Type: event.HelloIn}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Emit(ev)
	}
}

// BenchmarkEmitThroughInterposer adds one interposer to the path.
func BenchmarkEmitThroughInterposer(b *testing.B) {
	m := benchManager(b, SingleThreaded)
	src := deployPair(b, m)
	deployInterposer(b, m)
	ev := &event.Event{Type: event.HelloIn}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Emit(ev)
	}
}

// BenchmarkEmitPerMessage measures the goroutine-shepherded path.
func BenchmarkEmitPerMessage(b *testing.B) {
	m := benchManager(b, PerMessage)
	src := deployPair(b, m)
	ev := &event.Event{Type: event.HelloIn}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Emit(ev)
	}
	b.StopTimer()
	m.WaitIdle()
}

// The tuples the bundled units declare (internal/system, mpr, olsr, neighbor,
// dymo), so BenchmarkRewire derives the chains a real stack has.
var (
	systemTuple = event.Tuple{
		Required: []event.Requirement{{Type: event.MsgOut}, {Type: event.RouteFound}},
		Provided: []event.Type{
			event.HelloIn, event.TCIn, event.MsgIn, event.REIn, event.RerrIn,
			event.NoRoute, event.RouteUpdate, event.SendRouteErr, event.LinkBreak,
			event.PowerStatus, event.LinkInfo, event.SysStatus,
		},
	}
	mprTuple = event.Tuple{
		Required: []event.Requirement{{Type: event.HelloIn}, {Type: event.PowerStatus}},
		Provided: []event.Type{event.HelloOut, event.NhoodChange, event.MPRChange},
	}
	olsrTuple = event.Tuple{
		Required: []event.Requirement{{Type: event.TCIn}, {Type: event.NhoodChange}, {Type: event.MPRChange}},
		Provided: []event.Type{event.TCOut},
	}
	ndTuple = event.Tuple{
		Required: []event.Requirement{{Type: event.HelloIn}, {Type: event.LinkBreak}},
		Provided: []event.Type{event.HelloOut, event.NhoodChange},
	}
	dymoTuple = event.Tuple{
		Required: []event.Requirement{
			{Type: event.REIn}, {Type: event.RerrIn}, {Type: event.MsgIn}, {Type: event.NhoodChange},
			{Type: event.NoRoute, Exclusive: true}, {Type: event.RouteUpdate},
			{Type: event.SendRouteErr}, {Type: event.LinkBreak},
		},
		Provided: []event.Type{event.REOut, event.RerrOut, event.RouteFound},
	}
)

// BenchmarkRewire measures topology re-derivation: a Rewire that finds
// nothing changed, and one per SetTuple as the last unit withdraws its
// declaration and restores it (every chain it is part of re-derived).
func BenchmarkRewire(b *testing.B) {
	types := []event.Type{event.HelloIn, event.TCIn, event.REIn, event.TCOut, event.HelloOut}
	var synthetic []event.Tuple
	for i := 0; i < 6; i++ {
		synthetic = append(synthetic, event.Tuple{
			Required: []event.Requirement{{Type: types[i%len(types)]}},
			Provided: []event.Type{types[(i+2)%len(types)]},
		})
	}
	for _, dep := range []struct {
		name   string
		tuples []event.Tuple
	}{
		{"synthetic6", synthetic},
		{"system+mpr+olsr", []event.Tuple{systemTuple, mprTuple, olsrTuple}},
		{"system+nd+dymo", []event.Tuple{systemTuple, ndTuple, dymoTuple}},
	} {
		m := benchManager(b, SingleThreaded)
		var last *Protocol
		for i, tp := range dep.tuples {
			last = NewProtocol(string(rune('a' + i)))
			last.SetTuple(tp)
			if err := m.Deploy(last); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(dep.name+"/unchanged", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Rewire()
			}
		})
		b.Run(dep.name+"/retuple", func(b *testing.B) {
			flip := [2]event.Tuple{{}, dep.tuples[len(dep.tuples)-1]}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				last.SetTuple(flip[i%2])
			}
		})
	}
}

// BenchmarkTicketMutexHandoff measures the FIFO lock's direct handoff.
func BenchmarkTicketMutexHandoff(b *testing.B) {
	var tm TicketMutex
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tm.Lock()
			tm.Unlock() //nolint:staticcheck // empty section is the measurement
		}
	})
}
