package testbed_test

import (
	"testing"
	"time"

	"manetkit/internal/metrics"
	"manetkit/internal/telemetry"
	"manetkit/internal/testbed"
)

// TestTraceDropCounterWired: when a cluster has both instruments, every
// event the recorder evicts is visible as the cluster-wide
// trace_dropped_total counter — silent span loss is over.
func TestTraceDropCounterWired(t *testing.T) {
	reg := metrics.NewRegistry()
	bus := telemetry.New(telemetry.Config{Epoch: testbed.Epoch, RecorderCapacity: 8}) // tiny ring: eviction guaranteed
	c, err := testbed.New(3, testbed.Options{Seed: 1, Metrics: reg, Telemetry: bus})
	if err != nil {
		t.Fatalf("testbed.New: %v", err)
	}
	defer c.Close()
	if err := c.Line(); err != nil {
		t.Fatalf("Line: %v", err)
	}
	// 20 unicast frames, each recording send+delivery spans: far past 8.
	src, dst := c.Nodes[0].Sys.NIC(), c.Nodes[1].Addr
	for i := 0; i < 20; i++ {
		if err := src.Send(dst, []byte("probe")); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		c.Run(time.Millisecond)
	}

	dropped := bus.Evicted()
	if bus.SpansDropped() == 0 || dropped < bus.SpansDropped() {
		t.Fatalf("recorder of 8 evicted %d events, %d of them spans; want span evictions over 20 frames", dropped, bus.SpansDropped())
	}
	if got := reg.Snapshot().Counters["trace_dropped_total"]; got != dropped {
		t.Fatalf("trace_dropped_total = %d, want %d (Bus.Evicted)", got, dropped)
	}
}
