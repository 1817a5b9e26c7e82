package core_test

// Telemetry overhead guard, in the external test package so the proof
// that an attached-but-dormant bus costs nothing on the dispatch path is
// made where real callers stand.

import (
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

var guardEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// instrumentedEmit benchmarks the provider->requirer dispatch of a
// manager with metrics and the given bus (nil for none) — a non-nil bus
// models a deployment that carries the streaming layer but has no live
// consumers.
func instrumentedEmit(b *testing.B, bus *telemetry.Bus) {
	m, err := core.NewManager(core.Config{
		Node:      mnet.MustParseAddr("10.0.0.1"),
		Clock:     vclock.NewVirtual(guardEpoch),
		Model:     core.SingleThreaded,
		Metrics:   metrics.NewRegistry(),
		Telemetry: bus,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
	src := core.NewProtocol("src")
	src.SetTuple(event.Tuple{Provided: []event.Type{event.HelloIn}})
	sink := core.NewProtocol("sink")
	sink.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	sink.AddHandler(core.NewHandler("h", event.HelloIn, func(*core.Context, *event.Event) error { return nil }))
	for _, p := range []*core.Protocol{src, sink} {
		if err := m.Deploy(p); err != nil {
			b.Fatal(err)
		}
	}
	ev := &event.Event{Type: event.HelloIn}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Emit(ev)
	}
}

// TestTelemetryOverheadGuard: handing an instrumented node a telemetry bus
// with no recorder and no subscribers must not change the dispatch cost
// against no bus at all — same allocations, and ns/op within noise (each
// span site is one atomic load on the dormant bus).
func TestTelemetryOverheadGuard(t *testing.T) {
	bus := telemetry.New(telemetry.Config{Epoch: guardEpoch, RecorderCapacity: -1})
	defer bus.Close()
	if bus.Active() {
		t.Fatal("bus with no recorder and no subscribers must be dormant")
	}

	base := testing.Benchmark(func(b *testing.B) { instrumentedEmit(b, nil) })
	withBus := testing.Benchmark(func(b *testing.B) { instrumentedEmit(b, bus) })
	if base.NsPerOp() <= 0 {
		t.Skip("benchmark resolution too coarse on this platform")
	}

	if d := withBus.AllocsPerOp() - base.AllocsPerOp(); d != 0 {
		t.Fatalf("dormant bus added %d allocs per dispatch (base %d, with bus %d)",
			d, base.AllocsPerOp(), withBus.AllocsPerOp())
	}
	ratio := float64(withBus.NsPerOp()) / float64(base.NsPerOp())
	t.Logf("instrumented dispatch %dns/op, with dormant bus %dns/op (ratio %.3f)",
		base.NsPerOp(), withBus.NsPerOp(), ratio)
	if ratio > 1.5 {
		t.Fatalf("dormant telemetry bus costs %.2fx on the dispatch path (budget 1.5x)", ratio)
	}
	// And nothing leaked into the bus itself.
	if bus.Seq() != 0 {
		t.Fatalf("dormant bus recorded %d events", bus.Seq())
	}
}
