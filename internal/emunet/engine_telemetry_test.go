package emunet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// cliqueStorm drives a 12-node clique through one broadcast storm — every
// node broadcasts at the same instant, so all 132 deliveries fall due
// together and land in one epoch — with the medium publishing to a bus,
// and returns the bus's NDJSON dump, the network and its registry.
func cliqueStorm(t *testing.T) ([]byte, *emunet.Network, *metrics.Registry) {
	t.Helper()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := emunet.New(clk, 7)
	reg := metrics.NewRegistry()
	net.SetMetrics(reg)
	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: 1 << 10})
	net.SetTelemetry(bus)

	nodes := emunet.Addrs(12)
	if err := emunet.BuildClique(net, nodes, emunet.DefaultQuality()); err != nil {
		t.Fatalf("BuildClique: %v", err)
	}
	for _, a := range nodes {
		clk.AfterFunc(time.Millisecond, func() {
			nic, _ := net.NIC(a)
			_ = nic.Send(mnet.Broadcast, []byte("hello"))
		})
	}
	clk.Advance(50 * time.Millisecond)
	var dump bytes.Buffer
	if err := telemetry.WriteEvents(&dump, bus.Events()); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	bus.Close()
	return dump.Bytes(), net, reg
}

// TestEpochObserverAndEngineCounters checks the per-epoch events the
// medium publishes against the engine's own cumulative counters and the
// metrics registry, and pins the engine stream's schema: an epoch event
// carries exactly epoch, events, commit_lag_ns and queue_depth, and
// follows the frame-rx spans of its deliveries.
func TestEpochObserverAndEngineCounters(t *testing.T) {
	dump, net, reg := cliqueStorm(t)
	recorded, err := telemetry.ReadEvents(bytes.NewReader(dump))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	var events []telemetry.Event
	rxSpans := 0
	for _, ev := range recorded {
		if ev.Stream == telemetry.StreamSpans {
			if ev.Kind == telemetry.KindFrameRx {
				rxSpans++
			}
			continue
		}
		if len(events) == 0 && rxSpans != 132 {
			t.Fatalf("first epoch event after %d frame-rx spans, want the storm's 132", rxSpans)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no epochs observed")
	}
	var sum uint64
	maxEvents := 0
	var last emunet.EpochStats
	for i, ev := range events {
		if ev.Stream != telemetry.StreamEngine || ev.Kind != "epoch" {
			t.Fatalf("event %d is %s/%s, want engine/epoch", i, ev.Stream, ev.Kind)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(ev.Data, &fields); err != nil {
			t.Fatalf("epoch event payload: %v", err)
		}
		var keys []string
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, ","); got != "commit_lag_ns,epoch,events,queue_depth" {
			t.Fatalf("epoch event fields %q, want commit_lag_ns,epoch,events,queue_depth", got)
		}
		if err := json.Unmarshal(ev.Data, &last); err != nil {
			t.Fatalf("epoch event payload: %v", err)
		}
		if last.Epoch != uint64(i+1) {
			t.Fatalf("epoch %d has ordinal %d, want %d", i, last.Epoch, i+1)
		}
		if last.CommitLag != 0 {
			t.Errorf("epoch %d commit lag %s: must be 0 on the virtual clock", i, last.CommitLag)
		}
		sum += uint64(last.Events)
		maxEvents = max(maxEvents, last.Events)
	}
	if last.QueueDepth != 0 {
		t.Errorf("final epoch left queue depth %d", last.QueueDepth)
	}
	if maxEvents != 132 { // 12 broadcasts × 11 receivers at one instant
		t.Errorf("storm epoch: %d events, want 132", maxEvents)
	}

	eng, ok := net.EngineStats()
	if !ok {
		t.Fatal("EngineStats: not the event core")
	}
	want := emunet.EngineStats{Epochs: uint64(len(events)), Events: sum, MaxEpochEvents: maxEvents}
	if eng != want {
		t.Fatalf("EngineStats %+v, want %+v (from observed epochs)", eng, want)
	}
	if sum != net.Stats().RxFrames {
		t.Errorf("epoch events sum %d != Stats.RxFrames %d on a run with no feedback events", sum, net.Stats().RxFrames)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["net_engine_epochs"]; got != eng.Epochs {
		t.Errorf("net_engine_epochs = %d, want %d", got, eng.Epochs)
	}
	if got := snap.Counters["net_engine_epoch_events"]; got != sum {
		t.Errorf("net_engine_epoch_events = %d, want %d", got, sum)
	}
	if len(snap.Gauges) != 0 {
		t.Errorf("the medium registers no gauges, got %v", snap.Gauges)
	}
}

// TestEpochObserverLegacyEngine: the reference path has no epochs; it
// must publish no engine event and EngineStats must say so.
func TestEpochObserverLegacyEngine(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := emunet.NewReference(clk, 7)
	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: -1})
	sub := bus.Subscribe(8, telemetry.StreamEngine)
	net.SetTelemetry(bus)
	nodes := emunet.Addrs(2)
	if err := emunet.BuildLine(net, nodes, emunet.DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	nic, _ := net.NIC(nodes[0])
	_ = nic.Send(nodes[1], []byte("x"))
	clk.Advance(10 * time.Millisecond)
	bus.Close()
	if st := sub.Stats(); st.Published != 0 {
		t.Fatalf("%d engine events published on the reference path", st.Published)
	}
	if _, ok := net.EngineStats(); ok {
		t.Fatal("EngineStats ok on the reference path")
	}
	if net.Stats().RxFrames != 1 {
		t.Fatalf("reference delivery broken: %+v", net.Stats())
	}
}

// The telemetry bus under real load: a thousand-node emulation (the same
// scenario shape as the replay-scale gate, rebuilt over the exported API
// because this external package is what may import telemetry) streams
// spans and engine epochs to live subscribers. The gates:
//
//   - a deliberately tiny spans subscriber loses events but never stalls
//     the emulation, and its accounting is exact to the event;
//   - the engine subscriber with ample buffer sees every epoch, and the
//     decoded epochs reproduce the engine's own cumulative counters;
//   - the flight recorder's dump is byte-identical across GOMAXPROCS 1
//     and all CPUs — the streaming layer inherits the event core's
//     replay determinism.

// thousandNodeBusRun drives the 1000-node grid with a bus attached and
// one subscriber per busy stream. Returns the recorder dump fingerprint
// and the network's engine stats.
func thousandNodeBusRun(t *testing.T) (string, emunet.EngineStats) {
	t.Helper()
	const n, cols = 1000, 32
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := emunet.New(clk, 1701)
	bus := telemetry.New(telemetry.Config{Epoch: epoch, RecorderCapacity: 1 << 17})
	net.SetTelemetry(bus)
	engineSub := bus.Subscribe(1<<16, telemetry.StreamEngine) // ample: loses nothing
	spansSub := bus.Subscribe(64, telemetry.StreamSpans)      // tiny: must drop, not stall
	idleSub := bus.Subscribe(8, telemetry.StreamHealth)       // nothing flows here

	nodes := emunet.Addrs(n)
	q := emunet.DefaultQuality()
	q.Loss = 0.05
	if err := emunet.BuildGrid(net, nodes, cols, q); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	for i, a := range nodes {
		a := a
		echoed := false
		nic, _ := net.NIC(a)
		back := nodes[(i+n-1)%n]
		nic.SetReceiver(func(f emunet.Frame) {
			if f.Dst == a && !echoed && len(f.Payload) > 0 && f.Payload[0] == 'p' {
				echoed = true
				_ = nic.Send(back, []byte("echo"))
			}
		})
	}
	emunet.NewFaultPlan(93).
		Partition(80*time.Millisecond, 200*time.Millisecond, nodes[:n/2], nodes[n/2:]).
		CorruptFrames(0, 300*time.Millisecond, 0.1).
		DuplicateFrames(0, 300*time.Millisecond, 0.1).
		Apply(net)
	for i, a := range nodes {
		a := a
		peer := nodes[(i+cols+1)%n]
		for k := 0; k < 3; k++ {
			k := k
			clk.AfterFunc(time.Duration(10+k*90)*time.Millisecond, func() {
				nic, ok := net.NIC(a)
				if !ok {
					return
				}
				_ = nic.Send(mnet.Broadcast, []byte(fmt.Sprintf("b%d", k)))
				_ = nic.Send(peer, []byte("ping"))
			})
		}
	}
	clk.Advance(400 * time.Millisecond)
	fp := bus.Fingerprint()
	bus.Close()

	// Exact accounting, stream by stream.
	spanTotal := uint64(len(bus.Spans())) + bus.SpansDropped()
	if st := spansSub.Stats(); st.Published != spanTotal {
		t.Errorf("spans published %d, want every recorded span (%d)", st.Published, spanTotal)
	} else if st.Published != st.Delivered+st.Dropped {
		t.Errorf("spans accounting broken: %+v", st)
	} else if st.Dropped == 0 {
		t.Errorf("spans subscriber with buffer 64 dropped nothing over %d spans", st.Published)
	}

	var drained []telemetry.Event
	for ev := range engineSub.C() {
		drained = append(drained, ev)
	}
	eng, ok := net.EngineStats()
	if !ok {
		t.Fatal("EngineStats: not the event core")
	}
	if st := engineSub.Stats(); st.Dropped != 0 || st.Delivered != uint64(len(drained)) {
		t.Errorf("engine subscriber stats %+v over %d drained", st, len(drained))
	}
	if uint64(len(drained)) != eng.Epochs {
		t.Errorf("engine stream delivered %d epochs, engine committed %d", len(drained), eng.Epochs)
	}
	var sum uint64
	for _, ev := range drained {
		var es emunet.EpochStats
		if err := json.Unmarshal(ev.Data, &es); err != nil {
			t.Fatalf("epoch event payload: %v", err)
		}
		sum += uint64(es.Events)
	}
	if sum != eng.Events {
		t.Errorf("epoch events sum %d != engine total %d", sum, eng.Events)
	}
	if st := idleSub.Stats(); st.Published != 0 {
		t.Errorf("health subscriber saw %d events on a run with no monitor", st.Published)
	}
	return fp, eng
}

func TestThousandNodeTelemetryAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-node telemetry run; skipped in -short")
	}
	prev := runtime.GOMAXPROCS(1)
	serialFP, serialEng := thousandNodeBusRun(t)
	runtime.GOMAXPROCS(prev)
	parallelFP, parallelEng := thousandNodeBusRun(t)
	if serialEng.Events == 0 {
		t.Fatalf("empty run: %+v", serialEng)
	}
	if serialFP != parallelFP {
		t.Errorf("flight-recorder fingerprint diverged across GOMAXPROCS 1 vs %d: %s vs %s",
			runtime.GOMAXPROCS(0), serialFP, parallelFP)
	}
	if serialEng != parallelEng {
		t.Errorf("EngineStats diverged across GOMAXPROCS:\n serial   %+v\n parallel %+v",
			serialEng, parallelEng)
	}
}
