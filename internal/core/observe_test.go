package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manetkit/internal/event"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// newObservedMgr builds a manager with metrics and tracing enabled.
func newObservedMgr(t *testing.T, model Model) (*Manager, *metrics.Registry, *telemetry.Bus) {
	t.Helper()
	reg := metrics.NewRegistry()
	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: 1 << 12})
	m, err := NewManager(Config{
		Node:      mnet.MustParseAddr("10.0.0.1"),
		Clock:     vclock.NewVirtual(epoch),
		Model:     model,
		Metrics:   reg,
		Telemetry: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, reg, bus
}

func TestObservedDispatchCountsAndTraces(t *testing.T) {
	m, reg, bus := newObservedMgr(t, SingleThreaded)
	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	req := newRecorder(t, "requirer", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	for _, p := range []*Protocol{prov.p, req.p} {
		if err := m.Deploy(p); err != nil {
			t.Fatal(err)
		}
	}
	emitFrom(t, m, "provider", &event.Event{Type: event.TCOut})
	emitFrom(t, m, "provider", &event.Event{Type: event.TCOut})

	snap := reg.Snapshot()
	if got := snap.Counters["core_emitted"]; got != 2 {
		t.Fatalf("core_emitted = %d, want 2", got)
	}
	if got := snap.Counters["core_delivered"]; got != 2 {
		t.Fatalf("core_delivered = %d, want 2", got)
	}
	// Deploys re-derive the topology.
	if got := snap.Counters["core_rewires"]; got < 2 {
		t.Fatalf("core_rewires = %d, want >= 2", got)
	}

	var emits, dispatches, handles int
	for _, s := range bus.Spans() {
		switch s.Kind {
		case telemetry.KindEmit:
			emits++
			if s.Node != "10.0.0.1" || s.Event != string(event.TCOut) {
				t.Fatalf("bad emit span: %+v", s)
			}
		case telemetry.KindDispatch:
			dispatches++
			if s.From != "provider" || s.To != "requirer" {
				t.Fatalf("bad dispatch span: %+v", s)
			}
		case telemetry.KindHandle:
			handles++
			if s.To != "requirer" {
				t.Fatalf("bad handle span: %+v", s)
			}
		}
	}
	if emits != 2 || dispatches != 2 || handles != 2 {
		t.Fatalf("spans: emit=%d dispatch=%d handle=%d, want 2 each", emits, dispatches, handles)
	}
}

func TestObservedDropOnUnroutedEvent(t *testing.T) {
	m, reg, bus := newObservedMgr(t, SingleThreaded)
	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	if err := m.Deploy(prov.p); err != nil {
		t.Fatal(err)
	}
	emitFrom(t, m, "provider", &event.Event{Type: event.TCOut})
	if got := reg.Snapshot().Counters["core_dropped"]; got != 1 {
		t.Fatalf("core_dropped = %d, want 1", got)
	}
	var drops int
	for _, s := range bus.Spans() {
		if s.Kind == telemetry.KindDrop {
			drops++
		}
	}
	if drops != 1 {
		t.Fatalf("drop spans = %d, want 1", drops)
	}
}

func TestObservedAsyncModelCountsTickets(t *testing.T) {
	m, reg, _ := newObservedMgr(t, PerMessage)
	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	req := newRecorder(t, "requirer", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	for _, p := range []*Protocol{prov.p, req.p} {
		if err := m.Deploy(p); err != nil {
			t.Fatal(err)
		}
	}
	emitFrom(t, m, "provider", &event.Event{Type: event.TCOut})
	snap := reg.Snapshot()
	if got := snap.Counters["core_tickets"]; got != 1 {
		t.Fatalf("core_tickets = %d, want 1", got)
	}
}

func TestObservedDedicatedQueueGauge(t *testing.T) {
	m, reg, _ := newObservedMgr(t, SingleThreaded)
	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	req := newRecorder(t, "requirer", event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	for _, p := range []*Protocol{prov.p, req.p} {
		if err := m.Deploy(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.EnableDedicatedThread("requirer"); err != nil {
		t.Fatal(err)
	}
	emitFrom(t, m, "provider", &event.Event{Type: event.TCOut})
	snap := reg.Snapshot()
	if _, ok := snap.Gauges["core_dedicated_depth:requirer"]; !ok {
		t.Fatalf("dedicated depth gauge missing: %+v", snap.Gauges)
	}
	if got := snap.Counters["core_delivered"]; got != 1 {
		t.Fatalf("core_delivered = %d, want 1", got)
	}
}

// A manager built without a telemetry bus must carry a nil bundle, with or
// without a metrics registry: the registry reads counts from the layers'
// Stats, so the whole instrumented path is then a single nil check per site.
func TestDisabledObservabilityIsNil(t *testing.T) {
	for _, reg := range []*metrics.Registry{nil, metrics.NewRegistry()} {
		m, err := NewManager(Config{
			Node:    mnet.MustParseAddr("10.0.0.1"),
			Clock:   vclock.NewVirtual(epoch),
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		if m.obs != nil {
			t.Fatalf("manager without telemetry (registry %v) carries a non-nil obs bundle", reg != nil)
		}
		p := NewProtocol("p")
		p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
		if err := m.Deploy(p); err != nil {
			t.Fatal(err)
		}
		if obs := p.plan.Load().obs; obs != nil {
			t.Fatalf("protocol in a deployment without telemetry (registry %v) carries a non-nil obs bundle", reg != nil)
		}
	}
}

// TestObservabilityOverheadGuard is the <5% budget check on the two
// configurations NewManager builds: a deployment without a telemetry bus
// carries a nil bundle, one with a bus that nothing records or subscribes
// to carries a bundle whose bus is dormant. The dormant side must cost less
// than 5% more per direct dispatch than the nil side. It is measured where
// it stands: one deployment dispatches in turn with a nil bundle and with a
// dormant one, on the same machine code and the same objects (the bundles
// are swapped in place), so the difference is each site's extra load and
// test of the bus. Each side keeps its fastest of many interleaved batches,
// which filters out scheduling and parallel-test noise; the median over
// freshly deployed pairs filters out the heap layout one pair happened to
// get.
func TestObservabilityOverheadGuard(t *testing.T) {
	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: -1})
	defer bus.Close()
	if bus.Active() {
		t.Fatal("a bus with no recorder and no subscribers must be dormant")
	}
	node := mnet.MustParseAddr("10.0.0.9")
	dormant := newObserver(node, bus)
	overhead := func() float64 {
		m, err := NewManager(Config{Node: node, Clock: vclock.NewVirtual(epoch), Model: SingleThreaded})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		src := deployPair(t, m)
		u, _ := m.Unit("sink")
		plan := u.(*Protocol).plan.Load() // the delivery reads its bundle from here
		ev := &event.Event{Type: event.HelloIn}
		perBatch := 100
		batch := func(withBus bool) float64 {
			m.obs, plan.obs = nil, nil
			if withBus {
				m.obs, plan.obs = dormant, dormant
			}
			start := time.Now()
			for range perBatch {
				_ = src.Emit(ev)
			}
			return float64(time.Since(start).Nanoseconds()) / float64(perBatch)
		}
		// Batches of about 250µs give the same number of quiet windows
		// whatever a dispatch costs (the race detector makes it ~30x).
		batch(false) // warm
		perBatch = max(10, int(250e3/batch(false)))
		bare, withBus := batch(false), batch(true)
		for range 199 {
			bare = min(bare, batch(false))
			withBus = min(withBus, batch(true))
		}
		return (withBus - bare) / bare
	}
	pct := make([]float64, 9) // per pair, in percent
	for i := range pct {
		pct[i] = 100 * overhead()
	}
	slices.Sort(pct)
	median := pct[len(pct)/2]
	t.Logf("dormant-bus overhead %.2f%%, the median of %.2f", median, pct)
	if bus.Seq() != 0 {
		t.Fatalf("dormant bus recorded %d events", bus.Seq())
	}
	if median >= 5 {
		t.Fatalf("dormant-bus overhead %.2f%% >= 5%% budget (per pair: %.2f)", median, pct)
	}
}

// A direct dispatch reads the telemetry gate from the plans it loads, never
// from the bus. The plans are compiled against a dormant bus; then, without
// the bus flipping, the manager's and the handler's bundles are swapped for
// one whose bus records. A dispatch that called Bus.Active anywhere — the
// emission, the handler, the correlation-ID derivation — would see that bus
// active and record a span or stamp a correlation ID.
func TestDormantDispatchReadsNoBusGate(t *testing.T) {
	dormant := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: -1})
	m, err := NewManager(Config{Node: mnet.MustParseAddr("10.0.0.9"), Clock: vclock.NewVirtual(epoch), Telemetry: dormant})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	src := deployPair(t, m)
	u, _ := m.Unit("sink")
	sink := u.(*Protocol)
	plan := sink.plan.Load()
	if m.plan.Load().traced || plan.traced || sink.Tracing() {
		t.Fatal("plans compiled against a dormant bus are traced")
	}
	live := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: 64})
	m.obs, plan.obs = newObserver(m.node, live), newObserver(m.node, live)
	ev := &event.Event{Type: event.HelloIn, Msg: &packetbb.Message{Type: 1, SeqNum: 7}}
	if err := src.Emit(ev); err != nil {
		t.Fatal(err)
	}
	if got := sink.Stats().Handled; got != 1 {
		t.Fatalf("sink handled %d events, want 1", got)
	}
	if live.Seq() != 0 || ev.Corr != "" {
		t.Fatalf("the dispatch read the bus: %d events recorded, correlation ID %q", live.Seq(), ev.Corr)
	}
}

// Spans start with the first emission after Subscribe returns and stop
// once the last subscriber has gone: the bus's flips republish the plans
// before the call that flipped it returns.
func TestSpansFollowSubscriptions(t *testing.T) {
	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: -1})
	m, err := NewManager(Config{Node: mnet.MustParseAddr("10.0.0.9"), Clock: vclock.NewVirtual(epoch), Telemetry: bus})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	src := deployPair(t, m)
	emit := func() uint64 {
		before := bus.Seq()
		if err := src.Emit(&event.Event{Type: event.HelloIn}); err != nil {
			t.Fatal(err)
		}
		return bus.Seq() - before
	}
	if n := emit(); n != 0 {
		t.Fatalf("a dormant bus got %d events", n)
	}
	first := bus.Subscribe(64, telemetry.StreamSpans)
	if n := emit(); n != 3 {
		t.Fatalf("the first emission after Subscribe recorded %d spans, want emit, dispatch and handle", n)
	}
	second := bus.Subscribe(64, telemetry.StreamSpans)
	first.Close()
	if n := emit(); n != 3 {
		t.Fatalf("with one subscriber left an emission recorded %d spans, want 3", n)
	}
	second.Close()
	if n := emit(); n != 0 {
		t.Fatalf("after the last unsubscribe an emission recorded %d spans", n)
	}
	if m.plan.Load().traced {
		t.Fatal("the dispatch plan is still traced")
	}
	if a, b := len(first.C()), len(second.C()); a != 3 || b != 3 {
		t.Fatalf("subscribers received %d and %d spans, want 3 each", a, b)
	}
}

// Subscriptions come and go while units emit and a unit is deployed and
// undeployed: under -race this pins that republishing the gate races with
// nothing, and once the last subscriber has gone every plan is untraced.
func TestGateFlipsRaceWithDispatchAndDeploy(t *testing.T) {
	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: -1})
	m, err := NewManager(Config{Node: mnet.MustParseAddr("10.0.0.9"), Clock: vclock.NewVirtual(epoch), Telemetry: bus})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	src := deployPair(t, m)
	var wg sync.WaitGroup
	var done atomic.Bool
	wg.Add(3)
	go func() {
		defer wg.Done()
		for !done.Load() {
			_ = src.Emit(&event.Event{Type: event.HelloIn})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			p := NewProtocol(fmt.Sprintf("late-%d", i))
			p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
			if err := m.Deploy(p); err != nil {
				t.Error(err)
				return
			}
			if err := m.Undeploy(p.Name()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for range 200 {
			sub := bus.Subscribe(1)
			sub.Close()
		}
	}()
	wg.Wait()
	if m.plan.Load().traced {
		t.Fatal("the dispatch plan is traced with no subscriber left")
	}
	for _, name := range m.Units() {
		u, _ := m.Unit(name)
		if u.(*Protocol).Tracing() {
			t.Fatalf("%s's accept plan is traced with no subscriber left", name)
		}
	}
}

// BenchmarkEmitDirectInstrumented is BenchmarkEmitDirect with metrics and
// tracing enabled — the CI-tracked companion number.
func BenchmarkEmitDirectInstrumented(b *testing.B) {
	reg := metrics.NewRegistry()
	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: 1 << 12})
	m, err := NewManager(Config{
		Node:      mnet.MustParseAddr("10.0.0.1"),
		Clock:     vclock.NewVirtual(epoch),
		Model:     SingleThreaded,
		Metrics:   reg,
		Telemetry: bus,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
	src := deployPair(b, m)
	ev := &event.Event{Type: event.HelloIn}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Emit(ev)
	}
}

// TestDedicatedQueueCountersSurviveToggle: a dedicated queue's overflow
// count is its pool's own Stats, read while the pool runs. Disabling the
// thread keeps what it counted; the fresh pool of a re-enabled thread
// starts from zero without taking the counter down or counting twice.
func TestDedicatedQueueCountersSurviveToggle(t *testing.T) {
	reg := metrics.NewRegistry()
	m, err := NewManager(Config{
		Node: mnet.MustParseAddr("10.0.0.1"), Clock: vclock.NewVirtual(epoch),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	entered, release := make(chan struct{}, 8), make(chan struct{})
	slow := NewProtocol("requirer")
	slow.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	if err := slow.AddHandler(NewHandler("slow-h", event.Any, func(*Context, *event.Event) error {
		entered <- struct{}{}
		<-release
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Protocol{prov.p, slow} {
		if err := m.Deploy(p); err != nil {
			t.Fatal(err)
		}
	}
	const dropped = "core_dedicated_dropped:requirer"
	// overflow emits DedicatedQueueBound+2 events with the worker held
	// inside the first: the next DedicatedQueueBound wait, the last is
	// dropped.
	overflow := func() {
		t.Helper()
		if err := m.EnableDedicatedThread("requirer"); err != nil {
			t.Fatal(err)
		}
		emitAs(m, "provider", &event.Event{Type: event.TCOut})
		<-entered
		for range DedicatedQueueBound + 1 {
			emitAs(m, "provider", &event.Event{Type: event.TCOut})
		}
		if got := reg.Snapshot().Gauges["core_dedicated_depth:requirer"]; got != DedicatedQueueBound {
			t.Fatalf("depth gauge = %d with a full queue waiting, want %d", got, DedicatedQueueBound)
		}
		for range DedicatedQueueBound {
			release <- struct{}{}
			<-entered
		}
		release <- struct{}{}
		m.WaitIdle()
	}

	overflow()
	if got := reg.Snapshot().Counters[dropped]; got != 1 {
		t.Fatalf("%s = %d after one overflow, want 1", dropped, got)
	}
	if err := m.DisableDedicatedThread("requirer"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[dropped]; got != 1 {
		t.Fatalf("%s = %d after disable, want 1", dropped, got)
	}
	if got, ok := snap.Gauges["core_dedicated_depth:requirer"]; !ok || got != 0 {
		t.Fatalf("depth gauge after disable = %d (present %v), want 0", got, ok)
	}
	overflow()
	snap = reg.Snapshot()
	if got := snap.Counters[dropped]; got != 2 {
		t.Fatalf("%s = %d after re-enable and a second overflow, want 2", dropped, got)
	}
	if got, want := snap.Counters["core_dropped"], m.Stats().Dropped; got != want || got != 2 {
		t.Fatalf("core_dropped = %d, ManagerStats.Dropped = %d, want 2", got, want)
	}
}

// TestCountersFollowCarriedState is the paper's state carry-over (§4.5)
// as examples/protocolswitch would do it: the S element of one protocol
// instance moves into its replacement, and the counts it keeps move with
// it. The registry reads them once — not again from zero, and not twice.
func TestCountersFollowCarriedState(t *testing.T) {
	m, reg, _ := newObservedMgr(t, SingleThreaded)
	type counts struct{ handled atomic.Uint64 }
	instance := func(name string, st *StateComponent) *Protocol {
		p := NewProtocol(name)
		p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
		if err := p.SetState(st); err != nil {
			t.Fatal(err)
		}
		c := st.Value().(*counts)
		p.SetCounters(func(emit func(string, uint64)) { emit("carried_handled", c.handled.Load()) })
		if err := p.AddHandler(NewHandler("h", event.TCOut, func(*Context, *event.Event) error {
			c.handled.Add(1)
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		return p
	}
	prov := newRecorder(t, "provider", event.Tuple{Provided: []event.Type{event.TCOut}})
	old := instance("old", NewStateComponent("state", &counts{}))
	for _, p := range []*Protocol{prov.p, old} {
		if err := m.Deploy(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		emitFrom(t, m, "provider", &event.Event{Type: event.TCOut})
	}
	st, err := old.DetachState()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Undeploy("old"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["carried_handled"]; got != 3 {
		t.Fatalf("carried_handled after undeploy = %d, want 3", got)
	}
	if err := m.Deploy(instance("new", st.(*StateComponent))); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["carried_handled"]; got != 3 {
		t.Fatalf("carried_handled after the carried state redeployed = %d, want 3", got)
	}
	emitFrom(t, m, "provider", &event.Event{Type: event.TCOut})
	if got := reg.Snapshot().Counters["carried_handled"]; got != 4 {
		t.Fatalf("carried_handled = %d, want 4", got)
	}
}
