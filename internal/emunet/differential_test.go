package emunet

import (
	"fmt"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// The differential suite pits the reference timer-per-delivery path
// (NewReference) against the discrete-event core (New) on identical seeds
// and asserts the two are observably indistinguishable: same frame-level
// span stream, same receive upcall sequence, same Stats, same fault firing
// log, same MAC feedback verdicts. This is the contract that lets every
// golden gate in the repo keep its committed values whatever is done to the
// engine.

// medium is one of the two constructors under comparison.
type medium func(vclock.Clock, int64) *Network

// chaosObservables runs the seed-7 chaos scenario (the TestGoldenFrameTrace
// workload: lossy line, partition+crash+corrupt+duplicate+reorder plan,
// scripted beacons and unicasts) on the given medium and returns everything
// a protocol or test could observe.
func chaosObservables(t *testing.T, seed int64, mk medium) (Stats, []string, []string, []telemetry.Span, string) {
	t.Helper()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := mk(clk, seed)
	bus := telemetry.New(telemetry.Config{Epoch: epoch})
	net.SetTelemetry(bus)
	addrs := Addrs(4)
	q := DefaultQuality()
	q.Loss = 0.2
	if err := BuildLine(net, addrs, q); err != nil {
		t.Fatalf("BuildLine: %v", err)
	}

	var rxLog []string
	for _, a := range addrs {
		a := a
		nic, _ := net.NIC(a)
		nic.SetReceiver(func(f Frame) {
			rxLog = append(rxLog, fmt.Sprintf("t=%v %v->%v rx %x corrupted=%v",
				clk.Now().Sub(epoch), f.Src, a, f.Payload, f.Corrupted))
		})
	}

	plan := NewFaultPlan(seed+100).
		Partition(300*time.Millisecond, 600*time.Millisecond, addrs[:2], addrs[2:]).
		Crash(700*time.Millisecond, 900*time.Millisecond, addrs[1]).
		CorruptFrames(0, time.Second, 0.3).
		DuplicateFrames(0, time.Second, 0.3).
		ReorderFrames(0, time.Second, 0.3, 3*time.Millisecond)
	inj := plan.Apply(net)

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
	return net.Stats(), inj.Log(), rxLog, bus.Spans(), bus.SpanFingerprint()
}

// diffSeq reports the first position where two logs (or span streams)
// diverge.
func diffSeq[T comparable](t *testing.T, name, what string, want, got []T) {
	t.Helper()
	for i := 0; i < min(len(want), len(got)); i++ {
		if want[i] != got[i] {
			t.Errorf("%s: %s %d diverged:\n reference %+v\n core      %+v", name, what, i, want[i], got[i])
			return
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s: %d %ss, reference %d", name, len(got), what, len(want))
	}
}

// TestDifferentialChaos asserts that the event core reproduces the
// reference path's observable behaviour bit-for-bit on the chaos workload,
// across several seeds.
func TestDifferentialChaos(t *testing.T) {
	for _, seed := range []int64{7, 8, 41} {
		name := fmt.Sprintf("seed %d", seed)
		refStats, refLog, refRx, refSpans, refFP := chaosObservables(t, seed, NewReference)
		stats, log, rx, spans, fp := chaosObservables(t, seed, New)
		if len(refRx) == 0 || len(refLog) == 0 {
			t.Fatalf("%s: reference run is empty (%d receives, %d faults)", name, len(refRx), len(refLog))
		}
		if stats != refStats {
			t.Errorf("%s: Stats diverged:\n reference %+v\n core      %+v", name, refStats, stats)
		}
		diffSeq(t, name, "fault", refLog, log)
		diffSeq(t, name, "receive", refRx, rx)
		if fp != refFP {
			diffSeq(t, name, "span", refSpans, spans)
		}
	}
}

// TestDifferentialFeedback covers the MAC-feedback (802.11 ACK analogue)
// path: delivery verdicts and their order must match across engines, for
// linked, lossy, missing-link and mid-flight-crash cases.
func TestDifferentialFeedback(t *testing.T) {
	for _, seed := range []int64{5, 6, 43} {
		ref := feedbackVerdicts(t, NewReference, seed)
		if len(ref) == 0 {
			t.Fatal("no feedback verdicts")
		}
		diffSeq(t, fmt.Sprintf("seed %d", seed), "verdict", ref, feedbackVerdicts(t, New, seed))
	}
}

// feedbackVerdicts runs the MAC-feedback workload — a lossy link, a clean
// one, a missing one, and a crash of the middle node with frames in flight
// to it — and returns the verdict log.
func feedbackVerdicts(t *testing.T, mk medium, seed int64) []string {
	t.Helper()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := mk(clk, seed)
	addrs := Addrs(3)
	for _, a := range addrs {
		if _, err := net.Attach(a); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	lossy := DefaultQuality()
	lossy.Loss = 0.5
	if err := net.SetLink(addrs[0], addrs[1], lossy); err != nil {
		t.Fatalf("SetLink: %v", err)
	}
	if err := net.SetLink(addrs[1], addrs[2], DefaultQuality()); err != nil {
		t.Fatalf("SetLink: %v", err)
	}

	var verdicts []string
	nic0, _ := net.NIC(addrs[0])
	nic1, _ := net.NIC(addrs[1])
	for k := 0; k < 20; k++ {
		k := k
		clk.AfterFunc(time.Duration(k)*10*time.Millisecond, func() {
			_ = nic0.SendWithFeedback(addrs[1], []byte(fmt.Sprintf("ack me %d", k)), func(ok bool) {
				verdicts = append(verdicts, fmt.Sprintf("t=%v 0->1 #%d ok=%v", clk.Now().Sub(epoch), k, ok))
			})
			_ = nic1.SendWithFeedback(addrs[2], []byte(fmt.Sprintf("fwd %d", k)), func(ok bool) {
				verdicts = append(verdicts, fmt.Sprintf("t=%v 1->2 #%d ok=%v", clk.Now().Sub(epoch), k, ok))
			})
			// No link 0->2: the frame is lost and the MAC reports failure.
			_ = nic0.SendWithFeedback(addrs[2], []byte("void"), func(ok bool) {
				verdicts = append(verdicts, fmt.Sprintf("t=%v 0->2 #%d ok=%v", clk.Now().Sub(epoch), k, ok))
			})
		})
	}
	// Crash the middle node mid-run so in-flight frames to it are dropped.
	clk.AfterFunc(95*time.Millisecond, func() { _ = net.Detach(addrs[1]) })
	clk.Advance(400 * time.Millisecond)
	return verdicts
}

// TestDifferentialTopologyEdges walks the topology mutation surface —
// detach with in-flight frames, reattach, asymmetric links, link cuts under
// traffic, scenario playback — and compares receive sequences.
func TestDifferentialTopologyEdges(t *testing.T) {
	run := func(mk medium) ([]string, Stats) {
		epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		clk := vclock.NewVirtual(epoch)
		net := mk(clk, 11)
		addrs := Addrs(5)
		if err := BuildGrid(net, addrs, 5, DefaultQuality()); err != nil {
			t.Fatalf("BuildGrid: %v", err)
		}
		var rxLog []string
		for _, a := range addrs {
			a := a
			nic, _ := net.NIC(a)
			nic.SetReceiver(func(f Frame) {
				rxLog = append(rxLog, fmt.Sprintf("t=%v %v->%v %x", clk.Now().Sub(epoch), f.Src, a, f.Payload))
			})
		}
		var detached *NIC
		clk.AfterFunc(20*time.Millisecond, func() {
			detached, _ = net.NIC(addrs[2])
			_ = net.Detach(addrs[2])
		})
		clk.AfterFunc(60*time.Millisecond, func() {
			_ = net.Reattach(detached)
			_ = net.SetDirectedLink(addrs[1], addrs[2], DefaultQuality())
		})
		clk.AfterFunc(80*time.Millisecond, func() { net.CutLink(addrs[0], addrs[1]) })
		for i, a := range addrs {
			a := a
			peer := addrs[(i+2)%len(addrs)]
			for k := 0; k < 12; k++ {
				k := k
				clk.AfterFunc(time.Duration(k)*9*time.Millisecond, func() {
					nic, ok := net.NIC(a)
					if !ok {
						return
					}
					_ = nic.Send(mnet.Broadcast, []byte(fmt.Sprintf("b %v %d", a, k)))
					_ = nic.Send(peer, []byte(fmt.Sprintf("u %v %d", a, k)))
				})
			}
		}
		clk.Advance(300 * time.Millisecond)
		return rxLog, net.Stats()
	}

	refRx, refStats := run(NewReference)
	if len(refRx) == 0 {
		t.Fatal("no deliveries in reference run")
	}
	rx, stats := run(New)
	if stats != refStats {
		t.Errorf("Stats diverged:\n reference %+v\n core      %+v", refStats, stats)
	}
	diffSeq(t, "grid", "receive", refRx, rx)
}
