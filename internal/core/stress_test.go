package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// TestEmitReconfigureStress hammers the lock-free emit path from many
// goroutines while the topology churns underneath it: Deploy, Undeploy,
// Rewire, SetTuple, dedicated-thread flips and concurrency-model switches
// all publish fresh dispatch plans concurrently with emission. Run under
// -race in CI, it proves plan-swap safety: readers see either the whole old
// topology or the whole new one, never a torn mix.
func TestEmitReconfigureStress(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)

	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	req := newRecorder(t, "requirer", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	if err := m.Deploy(prov.p); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy(req.p); err != nil {
		t.Fatal(err)
	}

	const (
		emitters  = 4
		perEmit   = 1500
		churnIter = 60
	)
	var wg sync.WaitGroup
	var emitErrs atomic.Uint64

	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				if err := prov.p.Emit(&event.Event{Type: event.TCOut}); err != nil {
					// Only the not-deployed window during churn is legal.
					emitErrs.Add(1)
				}
			}
		}()
	}

	// Churn 1: a transient interposer appears and disappears, so emitters
	// race against plans that insert and remove a hop mid-chain.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churnIter; i++ {
			mid := NewProtocol(fmt.Sprintf("mid-%d", i))
			mid.SetTuple(event.Tuple{
				Provided: []event.Type{event.TCOut},
				Required: []event.Requirement{{Type: event.TCOut}},
			})
			if err := mid.AddHandler(NewHandler("fwd", event.TCOut, func(ctx *Context, ev *event.Event) error {
				ctx.Emit(&event.Event{Type: event.TCOut})
				return nil
			})); err != nil {
				t.Error(err)
				return
			}
			if err := m.Deploy(mid); err != nil {
				t.Error(err)
				return
			}
			if err := m.Undeploy(mid.Name()); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Churn 2: the requirer's dedicated thread flips on and off and its
	// tuple is rewritten, forcing both pool swaps and full replans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churnIter; i++ {
			if err := m.EnableDedicatedThread("requirer"); err != nil {
				t.Error(err)
				return
			}
			if err := m.DisableDedicatedThread("requirer"); err != nil {
				t.Error(err)
				return
			}
			req.p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
			m.Rewire()
		}
	}()

	// Churn 3: the global concurrency model cycles through all three.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churnIter; i++ {
			for _, mod := range []Model{PerMessage, PerN, SingleThreaded} {
				if err := m.SetModel(mod); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	wg.Wait()
	_ = m.SetModel(SingleThreaded)
	m.WaitIdle()

	if n := emitErrs.Load(); n != 0 {
		t.Fatalf("Emit returned %d errors for a continuously deployed protocol", n)
	}
	// Every emitted event must be accounted: delivered or dropped, never
	// silently lost. Interposer hops re-emit, so emitted can exceed the
	// emitter count, but the ledger must balance.
	st := m.Stats()
	if st.Emitted < emitters*perEmit {
		t.Fatalf("emitted %d < %d sent", st.Emitted, emitters*perEmit)
	}
	if st.Delivered+st.Dropped < st.Emitted {
		t.Fatalf("ledger leak: emitted=%d delivered=%d dropped=%d", st.Emitted, st.Delivered, st.Dropped)
	}
}

// TestVanishedInterposerCountsDrop pins the fix for the silent-loss bug:
// when a type's compiled route is empty (its next stage vanished in the
// Undeploy/Rewire race window), the event must be counted as dropped and
// traced, not lost without a ledger entry. The plan is built white-box
// because every public mutation immediately replans.
func TestVanishedInterposerCountsDrop(t *testing.T) {
	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: 1 << 8})
	m, err := NewManager(Config{
		Node:      mnet.MustParseAddr("10.0.0.1"),
		Clock:     vclock.NewVirtual(epoch),
		Telemetry: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Deploy(newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}}).p); err != nil {
		t.Fatal(err)
	}

	m.plan.Store(&dispatchPlan{chained: []route{{t: event.TCOut}}, traced: true})

	emitAs(m, "provider", &event.Event{Type: event.TCOut})

	st := m.Stats()
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	var drops int
	for _, s := range bus.Spans() {
		if s.Kind == telemetry.KindDrop {
			drops++
			if s.From != "provider" || s.Event != string(event.TCOut) {
				t.Fatalf("drop span misattributed: %+v", s)
			}
		}
	}
	if drops != 1 {
		t.Fatalf("drop spans = %d, want 1", drops)
	}
}

// TestStaleplanDeliveryToDetachedUnit pins the RCU generalisation of the
// same bug: a plan captured before an Undeploy may still route to the
// detached unit for a moment. Accept then reports ErrNotDeployed and the
// manager must account the loss as a drop naming the vanished target.
func TestStalePlanDeliveryToDetachedUnit(t *testing.T) {
	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: 1 << 8})
	m, err := NewManager(Config{
		Node:      mnet.MustParseAddr("10.0.0.1"),
		Clock:     vclock.NewVirtual(epoch),
		Telemetry: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	req := newRecorder(t, "requirer", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	if err := m.Deploy(prov.p); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy(req.p); err != nil {
		t.Fatal(err)
	}

	stale := m.plan.Load()
	if err := m.Undeploy("requirer"); err != nil {
		t.Fatal(err)
	}
	// A concurrent emitter may still hold the pre-Undeploy plan.
	m.plan.Store(stale)
	emitAs(m, "provider", &event.Event{Type: event.TCOut})

	st := m.Stats()
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	found := false
	for _, s := range bus.Spans() {
		if s.Kind == telemetry.KindDrop && s.To == "requirer" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no drop span naming the detached target; spans: %+v", bus.Spans())
	}
	if got := req.events(); len(got) != 0 {
		t.Fatalf("detached requirer still handled events: %v", got)
	}
}

// TestProtocolStatsConsistency pins the satellite bugfix for the
// Handled/Errors drift: both are settled when the handler returns, as
// adjacent atomic ops, so no snapshot can show an error without its handler
// invocation — under any interleaving.
func TestProtocolStatsConsistency(t *testing.T) {
	m, _ := newMgr(t, SingleThreaded)
	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	fail := NewProtocol("failer")
	fail.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	if err := fail.AddHandler(NewHandler("boom", event.TCOut, func(ctx *Context, ev *event.Event) error {
		return fmt.Errorf("boom")
	})); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy(prov.p); err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy(fail); err != nil {
		t.Fatal(err)
	}

	const (
		emitters = 4
		perEmit  = 2000
	)
	var emitWg, readWg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < emitters; g++ {
		emitWg.Add(1)
		go func() {
			defer emitWg.Done()
			for i := 0; i < perEmit; i++ {
				_ = prov.p.Emit(&event.Event{Type: event.TCOut})
			}
		}()
	}
	// Concurrent readers: no snapshot may ever show an error without its
	// handler invocation, or a handler invocation without its delivery.
	for g := 0; g < 2; g++ {
		readWg.Add(1)
		go func() {
			defer readWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := fail.Stats()
				if st.Errors > st.Handled {
					t.Errorf("snapshot drift: Errors=%d > Handled=%d", st.Errors, st.Handled)
					return
				}
				if st.Handled > st.Delivered {
					t.Errorf("snapshot drift: Handled=%d > Delivered=%d", st.Handled, st.Delivered)
					return
				}
				time.Sleep(time.Microsecond)
			}
		}()
	}
	emitWg.Wait()
	close(stop)
	readWg.Wait()
	m.WaitIdle()

	st := fail.Stats()
	want := uint64(emitters * perEmit)
	if st.Delivered != want || st.Handled != want || st.Errors != want {
		t.Fatalf("final stats = %+v, want all %d", st, want)
	}
}
