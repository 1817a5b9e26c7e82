package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// countingUnit deploys a protocol whose handler counts the events it
// accepts and every one that reached it released (poisoned) or mistyped.
type countingUnit struct {
	p        *Protocol
	accepted atomic.Int64
	bad      atomic.Int64
}

func newCountingUnit(t *testing.T, name string, tuple event.Tuple, want event.Type, fn func(*Context, *event.Event)) *countingUnit {
	t.Helper()
	u := &countingUnit{p: NewProtocol(name)}
	u.p.SetTuple(tuple)
	if err := u.p.AddHandler(NewHandler(name+"-h", want, func(ctx *Context, ev *event.Event) error {
		u.accepted.Add(1)
		if ev.Poisoned() || ev.Type != want {
			u.bad.Add(1)
		}
		if fn != nil {
			fn(ctx, ev)
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	return u
}

// TestBorrowedEventHoldsPerModel: under every concurrency model a borrowed
// event stays readable for each of its deliveries — an interposer's
// re-emission, two terminals, a sniffer and a context subscriber — and is
// released exactly once when the last returns: a release too many panics,
// one too few leaves it unpoisoned at quiescence.
func TestBorrowedEventHoldsPerModel(t *testing.T) {
	for _, tc := range []struct {
		name      string
		model     Model
		dedicated []string
	}{
		{"single-threaded", SingleThreaded, nil},
		{"per-message", PerMessage, nil},
		{"per-n", PerN, nil},
		{"dedicated", SingleThreaded, []string{"mid", "a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newMgr(t, tc.model)
			src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.TCOut}})
			mid := newCountingUnit(t, "mid", event.Tuple{
				Provided: []event.Type{event.TCOut},
				Required: []event.Requirement{{Type: event.TCOut}},
			}, event.TCOut, func(ctx *Context, ev *event.Event) { ctx.Emit(ev) })
			a := newCountingUnit(t, "a", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}}, event.TCOut, nil)
			b := newCountingUnit(t, "b", event.Tuple{Required: []event.Requirement{{Type: event.MsgOut}}}, event.TCOut, nil)
			var sniffed, subscribed, badObs atomic.Int64
			sn, err := NewSniffer("sniffer", func(ev *event.Event) {
				sniffed.Add(1)
				if ev.Poisoned() {
					badObs.Add(1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			m.SubscribeContext(event.MsgOut, func(ev *event.Event) {
				subscribed.Add(1)
				if ev.Poisoned() {
					badObs.Add(1)
				}
			})
			for _, u := range []*Protocol{src.p, mid.p, a.p, b.p, sn} {
				if err := m.Deploy(u); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range tc.dedicated {
				if err := m.EnableDedicatedThread(name); err != nil {
					t.Fatal(err)
				}
			}

			// Borrow every event before the first is emitted, so no carrier
			// is reused while the test still reads it.
			const n = 64
			evs := make([]*event.Event, n)
			for i := range evs {
				evs[i] = event.Borrow(event.TCOut)
			}
			for _, ev := range evs {
				emitAs(m, "src", ev)
			}
			m.WaitIdle()

			for _, u := range []*countingUnit{mid, a, b} {
				if got := u.accepted.Load(); got != n {
					t.Errorf("%s accepted %d events, want %d", u.p.Name(), got, n)
				}
				if got := u.bad.Load(); got != 0 {
					t.Errorf("%s was handed %d released events", u.p.Name(), got)
				}
			}
			// The sniffer is a terminal behind the interposer; the subscriber
			// sees the emission and the re-emission, on the emitting goroutine.
			if sniffed.Load() != n || subscribed.Load() != 2*n || badObs.Load() != 0 {
				t.Errorf("sniffed %d (want %d), subscribed %d (want %d), %d released", sniffed.Load(), n, subscribed.Load(), 2*n, badObs.Load())
			}
			for i, ev := range evs {
				if !ev.Poisoned() {
					t.Fatalf("event %d still held at quiescence: %+v", i, *ev)
				}
			}
		})
	}
}

// TestBorrowedEventFailurePaths: a delivery that never reaches Accept still
// releases its hold — no chain, an undeployed emitter, a full dedicated
// queue, a closed worker pool — and every loss is counted as a drop.
func TestBorrowedEventFailurePaths(t *testing.T) {
	t.Run("no chain", func(t *testing.T) {
		m, _ := newMgr(t, SingleThreaded)
		ev := event.Borrow(event.LinkInfo)
		emitAs(m, "", ev)
		if !ev.Poisoned() || m.Stats().Dropped != 1 {
			t.Fatalf("poisoned %v, dropped %d", ev.Poisoned(), m.Stats().Dropped)
		}
	})
	t.Run("undeployed emitter", func(t *testing.T) {
		ev := event.Borrow(event.HelloOut)
		if err := NewProtocol("loose").Emit(ev); err != ErrNotDeployed {
			t.Fatalf("Emit = %v, want ErrNotDeployed", err)
		}
		if !ev.Poisoned() {
			t.Fatal("an event no framework took was not released")
		}
	})
	// A full dedicated queue refuses the newest event as a drop traced with
	// the unit's name, under either model that emits to it, and records no
	// dispatch span for it.
	t.Run("dedicated queue full", func(t *testing.T) {
		for _, model := range []Model{SingleThreaded, PerMessage} {
			t.Run(model.String(), func(t *testing.T) {
				m, _, bus := newObservedMgr(t, model)
				gate := make(chan struct{})
				var entered atomic.Bool
				slow := newCountingUnit(t, "slow", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}}, event.TCOut,
					func(*Context, *event.Event) {
						if entered.CompareAndSwap(false, true) {
							<-gate
						}
					})
				src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.TCOut}})
				for _, u := range []*Protocol{src.p, slow.p} {
					if err := m.Deploy(u); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.EnableDedicatedThread("slow"); err != nil {
					t.Fatal(err)
				}
				evs := make([]*event.Event, DedicatedQueueBound+2)
				for i := range evs {
					evs[i] = event.Borrow(event.TCOut)
				}
				emitAs(m, "src", evs[0])
				for !entered.Load() { // the worker holds evs[0]; the queue is empty
					runtime.Gosched()
				}
				for _, ev := range evs[1:] {
					emitAs(m, "src", ev)
				}
				if last := evs[len(evs)-1]; !last.Poisoned() || m.Stats().Dropped != 1 {
					t.Errorf("overflowing event poisoned %v, dropped %d", last.Poisoned(), m.Stats().Dropped)
				}
				close(gate) // before any Fatal: Close waits for the worker
				m.WaitIdle()
				for i, ev := range evs {
					if !ev.Poisoned() {
						t.Fatalf("event %d still held at quiescence", i)
					}
				}
				if got := slow.accepted.Load(); got != DedicatedQueueBound+1 || slow.bad.Load() != 0 {
					t.Fatalf("accepted %d (want %d), %d released", got, DedicatedQueueBound+1, slow.bad.Load())
				}
				var drops, dispatches int
				for _, s := range bus.Spans() {
					switch {
					case s.Kind == telemetry.KindDrop && s.To == "slow":
						drops++
					case s.Kind == telemetry.KindDispatch && s.To == "slow":
						dispatches++
					}
				}
				if st := m.Stats(); uint64(drops) != st.Dropped || dispatches != DedicatedQueueBound+1 {
					t.Fatalf("%d drop spans for %d dropped, %d dispatch spans for %d accepted", drops, st.Dropped, dispatches, DedicatedQueueBound+1)
				}
			})
		}
	})
}

// TestCloseUnderPerNLeaksNothing: Close swaps the worker pool out before
// it waits for the deliveries in flight, so a handler that emits meanwhile
// finds no pool. It must not build one nothing would close; its delivery,
// like one a closed pool refuses, is a counted, traced drop — so every
// delivery is either handled or dropped.
func TestCloseUnderPerNLeaksNothing(t *testing.T) {
	newPerN := func(t *testing.T) (*Manager, *telemetry.Bus) {
		t.Helper()
		bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: 64})
		m, err := NewManager(Config{Node: mnet.MustParseAddr("10.0.0.1"), Clock: vclock.NewVirtual(epoch), Model: PerN, Telemetry: bus})
		if err != nil {
			t.Fatal(err)
		}
		return m, bus
	}
	drops := func(bus *telemetry.Bus) (n int) {
		for _, s := range bus.Spans() {
			if s.Kind == telemetry.KindDrop && s.To == "sink" {
				n++
			}
		}
		return n
	}
	sinkTuple := event.Tuple{Required: []event.Requirement{{Type: event.NoRoute}}}

	t.Run("emit during close", func(t *testing.T) {
		before := runtime.NumGoroutine()
		m, bus := newPerN(t)
		started, release := make(chan struct{}), make(chan struct{})
		relay := newCountingUnit(t, "relay", event.Tuple{
			Provided: []event.Type{event.NoRoute},
			Required: []event.Requirement{{Type: event.TCOut}},
		}, event.TCOut, func(ctx *Context, ev *event.Event) {
			close(started)
			<-release
			ctx.Emit(event.WithRoute(event.NoRoute, event.RoutePayload{PacketID: 1}))
		})
		sink := newCountingUnit(t, "sink", sinkTuple, event.NoRoute, nil)
		src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.TCOut}})
		for _, u := range []*Protocol{src.p, relay.p, sink.p} {
			if err := m.Deploy(u); err != nil {
				t.Fatal(err)
			}
		}
		emitAs(m, "src", event.Borrow(event.TCOut))
		<-started
		closed := make(chan struct{})
		go func() { m.Close(); close(closed) }()
		for m.workers.Load() != nil { // Close has swapped the pool out
			runtime.Gosched()
		}
		close(release)
		<-closed

		st := m.Stats()
		handled := uint64(relay.accepted.Load() + sink.accepted.Load())
		if st.Delivered != handled+st.Dropped || st.Dropped != 1 || drops(bus) != 1 {
			t.Errorf("delivered %d, handled %d, dropped %d (%d traced); want every delivery handled or dropped, the late one dropped",
				st.Delivered, handled, st.Dropped, drops(bus))
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d goroutines before the manager, %d after Close: a worker pool outlived it", before, after)
		}
	})

	t.Run("closed pool refuses", func(t *testing.T) {
		m, bus := newPerN(t)
		defer m.Close()
		sink := newCountingUnit(t, "sink", sinkTuple, event.NoRoute, nil)
		src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.NoRoute}})
		for _, u := range []*Protocol{src.p, sink.p} {
			if err := m.Deploy(u); err != nil {
				t.Fatal(err)
			}
		}
		// The window Close leaves: a delivery loaded the pool before the
		// swap and submits after the pool closed.
		m.workers.Load().Close()
		ev := event.WithRoute(event.NoRoute, event.RoutePayload{PacketID: 2})
		emitAs(m, "src", ev)
		st := m.Stats()
		if st.Delivered != uint64(sink.accepted.Load())+st.Dropped || st.Dropped != 1 || drops(bus) != 1 {
			t.Errorf("delivered %d, handled %d, dropped %d (%d traced); want the refused delivery dropped",
				st.Delivered, sink.accepted.Load(), st.Dropped, drops(bus))
		}
		if !ev.Poisoned() {
			t.Error("the refused delivery kept its hold")
		}
	})
}

// TestDedicatedThreadAfterCloseStartsNothing: a closed manager refuses a
// dedicated thread instead of starting a pool nothing would close.
func TestDedicatedThreadAfterCloseStartsNothing(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	if err := m.Deploy(NewProtocol("p")); err != nil {
		t.Fatal(err)
	}
	m.Close()
	before := runtime.NumGoroutine()
	if err := m.EnableDedicatedThread("p"); !errors.Is(err, errManagerClosed) {
		t.Errorf("EnableDedicatedThread after Close = %v, want %v", err, errManagerClosed)
	}
	if after := runtime.NumGoroutine(); after > before || m.DedicatedThread("p") {
		t.Errorf("%d goroutines before, %d after; dedicated %v: a pool outlived Close", before, after, m.DedicatedThread("p"))
	}
}

// TestEmitSettledPerModel: an emission settles only when every delivery it
// caused, its handlers' re-emissions included, ran inline on the emitting
// call's own drain: under SingleThreaded with nothing on a dedicated thread.
// A delivery on a shepherd, the PerN pool or a dedicated thread (the
// emission's own or a re-emission's), or an emission queued behind a drain
// another frame owns, does not settle. An emission nobody receives does.
func TestEmitSettledPerModel(t *testing.T) {
	for _, tc := range []struct {
		name      string
		model     Model
		dedicated string
		want      bool
	}{
		{"single-threaded", SingleThreaded, "", true},
		{"per-message", PerMessage, "", false},
		{"per-n", PerN, "", false},
		{"dedicated terminal", SingleThreaded, "a", false},
		{"dedicated re-emission", SingleThreaded, "b", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newMgr(t, tc.model)
			src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.TCOut, event.PowerStatus}})
			a := newCountingUnit(t, "a", event.Tuple{
				Provided: []event.Type{event.RouteFound},
				Required: []event.Requirement{{Type: event.TCOut}},
			}, event.TCOut, func(ctx *Context, ev *event.Event) { ctx.Emit(&event.Event{Type: event.RouteFound}) })
			b := newCountingUnit(t, "b", event.Tuple{Required: []event.Requirement{{Type: event.RouteFound}}}, event.RouteFound, nil)
			for _, u := range []*Protocol{src.p, a.p, b.p} {
				if err := m.Deploy(u); err != nil {
					t.Fatal(err)
				}
			}
			if tc.dedicated != "" {
				if err := m.EnableDedicatedThread(tc.dedicated); err != nil {
					t.Fatal(err)
				}
			}
			const n = 16
			for i := 0; i < n; i++ {
				settled, err := src.p.EmitSettled(event.Borrow(event.TCOut))
				if err != nil || settled != tc.want {
					t.Fatalf("emission %d: settled %v (%v), want %v", i, settled, err, tc.want)
				}
				if settled && (a.accepted.Load() != int64(i+1) || b.accepted.Load() != int64(i+1)) {
					t.Fatalf("emission %d settled with %d/%d deliveries run", i, a.accepted.Load(), b.accepted.Load())
				}
			}
			// Once nothing is in flight (a concurrent hand-off would make any
			// emission report false), an emission nobody receives settles.
			m.WaitIdle()
			if settled, err := src.p.EmitSettled(event.Borrow(event.PowerStatus)); err != nil || !settled {
				t.Fatalf("an emission nobody receives: settled %v (%v), want true", settled, err)
			}
			if a.accepted.Load() != n || b.accepted.Load() != n || a.bad.Load()+b.bad.Load() != 0 {
				t.Fatalf("a accepted %d, b %d, %d released; want %d each", a.accepted.Load(), b.accepted.Load(), a.bad.Load()+b.bad.Load(), n)
			}
		})
	}
	t.Run("behind another drain", func(t *testing.T) {
		m, _ := newMgr(t, SingleThreaded)
		src := newRecorder(t, "src", event.Tuple{Provided: []event.Type{event.TCOut, event.HelloOut}})
		var inner []bool
		a := newCountingUnit(t, "a", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}}, event.TCOut, func(*Context, *event.Event) {
			settled, _ := src.p.EmitSettled(event.Borrow(event.HelloOut))
			inner = append(inner, settled)
		})
		b := newCountingUnit(t, "b", event.Tuple{Required: []event.Requirement{{Type: event.HelloOut}}}, event.HelloOut, nil)
		for _, u := range []*Protocol{src.p, a.p, b.p} {
			if err := m.Deploy(u); err != nil {
				t.Fatal(err)
			}
		}
		settled, err := src.p.EmitSettled(event.Borrow(event.TCOut))
		if err != nil || !settled || b.accepted.Load() != 1 {
			t.Fatalf("outer emission: settled %v (%v) with %d nested deliveries run, want true and 1", settled, err, b.accepted.Load())
		}
		if len(inner) != 1 || inner[0] {
			t.Fatalf("an emission queued behind the outer drain reports settled %v, want [false]", inner)
		}
	})
}
