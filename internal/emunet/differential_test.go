package emunet

import (
	"fmt"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// The differential suite holds the medium to its oracle: the observable
// outputs of a timer-per-delivery medium, one clock timer per frame in
// flight, recorded in testdata/medium_fingerprints.json. The engine
// reproduced them bit for bit when they were recorded, and must go on
// doing so: same frame-level span stream, same receive upcall sequence,
// same Stats, same fault firing log, same MAC feedback verdicts. This is
// the contract that lets every golden gate in the repo keep its committed
// values whatever is done to the engine. Each workload checks its own
// section of the file; TestMediumFingerprints rewrites it.

// The seeds each workload runs, and so the keys of its section.
var (
	chaosSeeds    = []int64{7, 8, 41}
	feedbackSeeds = []int64{5, 6, 43}
	topologySeeds = []int64{11}
)

// chaosObservables runs the seed-7 chaos scenario (the TestGoldenFrameTrace
// workload: lossy line, partition+crash+corrupt+duplicate+reorder plan,
// scripted beacons and unicasts) and returns everything a protocol or test
// could observe: Stats, the fault log, the receive log and the span
// fingerprint.
func chaosObservables(t *testing.T, seed int64) (Stats, []string, []string, string) {
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
	return net.Stats(), inj.Log(), rxLog, bus.SpanFingerprint()
}

// chaosDigest is chaosObservables as its section of the oracle records it.
func chaosDigest(t *testing.T, seed int64) chaosGolden {
	t.Helper()
	stats, faults, rx, spans := chaosObservables(t, seed)
	if len(faults) == 0 || len(rx) == 0 {
		t.Fatalf("seed %d: chaos run is empty (%d receives, %d faults)", seed, len(rx), len(faults))
	}
	return chaosGolden{
		Stats:    fmt.Sprintf("%+v", stats),
		Faults:   digestLines(faults),
		Receives: digestLines(rx),
		Spans:    spans,
	}
}

// TestDifferentialChaos asserts that the event core reproduces the
// oracle's observable behaviour bit-for-bit on the chaos workload, across
// several seeds.
func TestDifferentialChaos(t *testing.T) {
	want := loadMediumGolden(t).Chaos
	for _, seed := range chaosSeeds {
		got, w := chaosDigest(t, seed), want[fmt.Sprint(seed)]
		if got.Stats != w.Stats {
			t.Errorf("seed %d: Stats diverged:\n oracle %s\n engine %s", seed, w.Stats, got.Stats)
		}
		for _, o := range []struct{ what, got, want string }{
			{"fault log", got.Faults, w.Faults},
			{"receive log", got.Receives, w.Receives},
			{"span stream", got.Spans, w.Spans},
		} {
			if o.got != o.want {
				t.Errorf("seed %d: %s digest %s, oracle %s\n%s", seed, o.what, o.got, o.want, regenerateHint)
			}
		}
	}
}

// TestDifferentialFeedback covers the MAC-feedback (802.11 ACK analogue)
// path: delivery verdicts and their order must match the oracle's, for
// linked, lossy, missing-link and mid-flight-crash cases.
func TestDifferentialFeedback(t *testing.T) {
	want := loadMediumGolden(t).Feedback
	for _, seed := range feedbackSeeds {
		if got, w := feedbackDigest(t, seed), want[fmt.Sprint(seed)]; got != w {
			t.Errorf("seed %d: verdict digest %s, oracle %s\n%s", seed, got, w, regenerateHint)
		}
	}
}

// feedbackDigest is feedbackVerdicts as its section of the oracle records
// it.
func feedbackDigest(t *testing.T, seed int64) string {
	t.Helper()
	verdicts := feedbackVerdicts(t, seed)
	if len(verdicts) == 0 {
		t.Fatal("no feedback verdicts")
	}
	return digestLines(verdicts)
}

// feedbackVerdicts runs the MAC-feedback workload — a lossy link, a clean
// one, a missing one, and a crash of the middle node with frames in flight
// to it — and returns the verdict log.
func feedbackVerdicts(t *testing.T, seed int64) []string {
	t.Helper()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := New(clk, seed)
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
// traffic, scenario playback — and compares the receive sequence and Stats
// to the oracle's.
func TestDifferentialTopologyEdges(t *testing.T) {
	want := loadMediumGolden(t).Topology
	for _, seed := range topologySeeds {
		got, w := topologyDigest(t, seed), want[fmt.Sprint(seed)]
		if got.Stats != w.Stats {
			t.Errorf("seed %d: Stats diverged:\n oracle %s\n engine %s", seed, w.Stats, got.Stats)
		}
		if got.Receives != w.Receives {
			t.Errorf("seed %d: receive log digest %s, oracle %s\n%s", seed, got.Receives, w.Receives, regenerateHint)
		}
	}
}

// topologyDigest runs the topology-edges workload on a five-node line and
// returns its section of the oracle.
func topologyDigest(t *testing.T, seed int64) topologyGolden {
	t.Helper()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := New(clk, seed)
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
	if len(rxLog) == 0 {
		t.Fatal("no deliveries in the topology run")
	}
	return topologyGolden{Stats: fmt.Sprintf("%+v", net.Stats()), Receives: digestLines(rxLog)}
}
