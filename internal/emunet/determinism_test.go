package emunet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// chaosRun drives one seeded lossy run with a full FaultPlan and returns
// the medium Stats, the fault firing log, and a per-delivery receive trace.
func chaosRun(t *testing.T, seed int64) (Stats, []string, []string) {
	t.Helper()
	clk := vclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := New(clk, seed)
	addrs := Addrs(4)
	q := DefaultQuality()
	q.Loss = 0.2
	if err := BuildLine(net, addrs, q); err != nil {
		t.Fatalf("BuildLine: %v", err)
	}

	var trace []string
	for i, a := range addrs {
		a := a
		nic, _ := net.NIC(a)
		nic.SetReceiver(func(f Frame) {
			trace = append(trace, fmt.Sprintf("t=%v %v->%v rx %x corrupted=%v",
				clk.Now().Sub(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)),
				f.Src, a, f.Payload, f.Corrupted))
		})
		_ = i
	}

	plan := NewFaultPlan(seed+100).
		Partition(300*time.Millisecond, 600*time.Millisecond, addrs[:2], addrs[2:]).
		Crash(700*time.Millisecond, 900*time.Millisecond, addrs[1]).
		CorruptFrames(0, time.Second, 0.3).
		DuplicateFrames(0, time.Second, 0.3).
		ReorderFrames(0, time.Second, 0.3, 3*time.Millisecond)
	inj := plan.Apply(net)

	// Scripted traffic: every node beacons every 50ms plus unicasts along
	// the line, all scheduled on the virtual clock.
	for i, a := range addrs {
		a := a
		next := addrs[(i+1)%len(addrs)]
		for k := 0; k < 20; k++ {
			k := k
			clk.AfterFunc(time.Duration(k)*50*time.Millisecond, func() {
				nic, ok := net.NIC(a)
				if !ok {
					return
				}
				_ = nic.Send(mnet.Broadcast, []byte(fmt.Sprintf("beacon %v %d", a, k)))
				_ = nic.Send(next, []byte(fmt.Sprintf("uni %v %d", a, k)))
			})
		}
	}
	clk.Advance(1200 * time.Millisecond)
	return net.Stats(), inj.Log(), trace
}

// TestDeterministicReplay is the determinism regression: two runs with the
// same seed and FaultPlan must produce byte-identical Stats, firing logs
// and delivery traces; a different seed must diverge.
func TestDeterministicReplay(t *testing.T) {
	stats1, log1, trace1 := chaosRun(t, 7)
	stats2, log2, trace2 := chaosRun(t, 7)

	if stats1 != stats2 {
		t.Fatalf("Stats diverged:\n run1 %+v\n run2 %+v", stats1, stats2)
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("fault logs diverged:\n run1 %q\n run2 %q", log1, log2)
	}
	if !reflect.DeepEqual(trace1, trace2) {
		t.Fatalf("delivery traces diverged")
	}
	if stats1.Corrupted == 0 || stats1.Duplicated == 0 || stats1.Reordered == 0 {
		t.Fatalf("fault plan injected nothing: %+v", stats1)
	}
	if len(log1) == 0 {
		t.Fatalf("empty firing log")
	}

	stats3, _, _ := chaosRun(t, 8)
	if stats1 == stats3 {
		t.Fatalf("different seeds produced identical stats — seed is not wired through")
	}
}

// goldenFrameFingerprint is the committed frame-level trace fingerprint of
// the seed-7 chaos run: every tx/rx/drop on the faulty medium, in order.
// Update it (from the failure message) only when a change intentionally
// alters medium behaviour.
const goldenFrameFingerprint = "75004474acac8156"

// frameTraceRun repeats the seed-7 chaos run with a recording bus on
// the medium and returns the bus.
func frameTraceRun(t *testing.T, seed int64) *telemetry.Bus {
	t.Helper()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := New(clk, seed)
	bus := telemetry.New(telemetry.Config{Epoch: epoch})
	net.SetTelemetry(bus)
	addrs := Addrs(4)
	q := DefaultQuality()
	q.Loss = 0.2
	if err := BuildLine(net, addrs, q); err != nil {
		t.Fatalf("BuildLine: %v", err)
	}
	plan := NewFaultPlan(seed+100).
		Partition(300*time.Millisecond, 600*time.Millisecond, addrs[:2], addrs[2:]).
		Crash(700*time.Millisecond, 900*time.Millisecond, addrs[1]).
		CorruptFrames(0, time.Second, 0.3).
		DuplicateFrames(0, time.Second, 0.3).
		ReorderFrames(0, time.Second, 0.3, 3*time.Millisecond)
	plan.Apply(net)
	for i, a := range addrs {
		a := a
		next := addrs[(i+1)%len(addrs)]
		for k := 0; k < 20; k++ {
			k := k
			clk.AfterFunc(time.Duration(k)*50*time.Millisecond, func() {
				nic, ok := net.NIC(a)
				if !ok {
					return
				}
				_ = nic.Send(mnet.Broadcast, []byte(fmt.Sprintf("beacon %v %d", a, k)))
				_ = nic.Send(next, []byte(fmt.Sprintf("uni %v %d", a, k)))
			})
		}
	}
	clk.Advance(1200 * time.Millisecond)
	return bus
}

// TestGoldenFrameTrace pins the frame-level span stream of the faulty
// seed-7 run to a committed fingerprint: the structured-trace analogue of
// TestDeterministicReplay, sensitive to delivery *order* as well as counts.
func TestGoldenFrameTrace(t *testing.T) {
	bus := frameTraceRun(t, 7)
	if len(bus.Spans()) == 0 {
		t.Fatal("empty frame trace")
	}
	if bus.SpansDropped() != 0 {
		t.Fatalf("trace evicted %d spans", bus.SpansDropped())
	}
	if got := bus.SpanFingerprint(); got != goldenFrameFingerprint {
		t.Errorf("frame trace fingerprint = %s, want %s (%d spans)\n"+
			"If this change intentionally alters medium behaviour, update goldenFrameFingerprint.",
			got, goldenFrameFingerprint, len(bus.Spans()))
	}
	if got2 := frameTraceRun(t, 7).SpanFingerprint(); got2 != bus.SpanFingerprint() {
		t.Fatalf("same-seed frame traces diverged: %s vs %s", bus.SpanFingerprint(), got2)
	}
}
