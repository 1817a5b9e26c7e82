package emunet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/trace"
	"manetkit/internal/vclock"
)

// The headline determinism claim of the event core: a thousand-node
// emulation replays byte-identically whatever the host offers. Everything
// observable happens in (virtual time, schedule seq) order on the clock
// goroutine — so the full span trace, not just aggregate counters, must
// fingerprint identically with the scheduler pinned to one CPU and with all
// of them. This is the emunet layer's one GOMAXPROCS replay; harness, eval
// and telemetry each keep their own.

// thousandNodeTrace drives a 1000-node grid: every node beacons, a strided
// unicast mesh crosses the grid, receivers echo the first ping
// (send-from-receive re-entrancy inside epochs), and a fault plan partitions
// half the grid with corruption and duplication live. Returns the trace
// fingerprint, the span count and the final Stats.
func thousandNodeTrace(t *testing.T) (string, int, Stats) {
	t.Helper()
	const n, cols = 1000, 32
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := New(clk, 1701)
	tr := trace.New(epoch, 0)
	net.SetTracer(tr)
	nodes := Addrs(n)
	q := DefaultQuality()
	q.Loss = 0.05
	if err := BuildGrid(net, nodes, cols, q); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	for i, a := range nodes {
		a := a
		echoed := false
		nic, _ := net.NIC(a)
		back := nodes[(i+n-1)%n]
		nic.SetReceiver(func(f Frame) {
			if f.Dst == a && !echoed && len(f.Payload) > 0 && f.Payload[0] == 'p' {
				echoed = true
				_ = nic.Send(back, []byte("echo"))
			}
		})
	}
	NewFaultPlan(93).
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
	return tr.Fingerprint(), len(tr.Spans()), net.Stats()
}

// TestThousandNodeReplayAcrossGOMAXPROCS: GOMAXPROCS=1 versus all CPUs, same
// seed ⇒ byte-identical trace fingerprint and Stats at 1000 nodes.
func TestThousandNodeReplayAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-node replay; skipped in -short")
	}
	prev := runtime.GOMAXPROCS(1)
	serialFP, serialSpans, serialStats := thousandNodeTrace(t)
	runtime.GOMAXPROCS(prev)
	parallelFP, parallelSpans, parallelStats := thousandNodeTrace(t)
	if serialSpans == 0 || serialStats.RxFrames == 0 {
		t.Fatalf("trace is empty (%d spans, stats %+v)", serialSpans, serialStats)
	}
	if parallelFP != serialFP {
		t.Errorf("trace fingerprint diverged across GOMAXPROCS 1 vs %d: %s (%d spans) vs %s (%d spans)",
			runtime.GOMAXPROCS(0), serialFP, serialSpans, parallelFP, parallelSpans)
	}
	if parallelStats != serialStats {
		t.Errorf("Stats diverged across GOMAXPROCS:\n serial   %+v\n parallel %+v", serialStats, parallelStats)
	}
}
