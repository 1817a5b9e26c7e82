package manetkit

import (
	"encoding/json"
	"expvar"
	"sync"
	"testing"
	"time"
)

// TestCountersAcrossUndeployRedeploy: the registry reads DYMO's counters
// from each instance's State while it is deployed. Undeploying keeps what
// the instance counted; a redeployed instance adds only its own counts.
func TestCountersAcrossUndeployRedeploy(t *testing.T) {
	clk := NewVirtualClock(epoch)
	net := NewNetwork(clk, 1)
	reg := NewMetricsRegistry()
	net.SetMetrics(reg)
	addrs := Addrs(3)
	stacks, err := NewStacks(net, addrs, StackOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range stacks {
			s.Close()
		}
	})
	if err := BuildLine(net, addrs, DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	// discover deploys DYMO everywhere, makes the ends discover each other
	// and returns the discoveries the deployed instances counted.
	discover := func() uint64 {
		t.Helper()
		for _, s := range stacks {
			if _, err := s.DeployDYMO(DYMOConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(3 * time.Second)
		if err := stacks[0].SendData(addrs[2], []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := stacks[2].SendData(addrs[0], []byte("b")); err != nil {
			t.Fatal(err)
		}
		clk.Advance(3 * time.Second)
		var n uint64
		for _, s := range stacks {
			n += s.DYMOUnit().State().Stats().Discoveries
		}
		if n == 0 {
			t.Fatal("no discoveries")
		}
		return n
	}
	counter := func() uint64 { return reg.Snapshot().Counters["dymo_discoveries"] }

	first := discover()
	if got := counter(); got != first {
		t.Fatalf("dymo_discoveries = %d, want %d", got, first)
	}
	for _, s := range stacks {
		if err := s.UndeployDYMO(); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(); got != first {
		t.Fatalf("dymo_discoveries after undeploy = %d, want %d", got, first)
	}
	second := discover()
	if got := counter(); got != first+second {
		t.Fatalf("dymo_discoveries after redeploy = %d, want %d+%d", got, first, second)
	}
}

// TestSnapshotWhileRealClockClusterRuns reads the registry the way the
// expvar endpoint does — from another goroutine, while a real-clock
// OLSR+DYMO cluster beacons and discovers — and checks no counter falls.
// Run it under -race.
func TestSnapshotWhileRealClockClusterRuns(t *testing.T) {
	net := NewNetwork(RealClock(), 1)
	reg := NewMetricsRegistry()
	net.SetMetrics(reg)
	addrs := Addrs(4)
	stacks, err := NewStacks(net, addrs, StackOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range stacks {
			s.Close()
		}
	}()
	if err := BuildLine(net, addrs, DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	const name = "manetkit-test-live"
	reg.PublishExpvar(name)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := map[string]uint64{}
		for {
			var snap MetricsSnapshot
			if err := json.Unmarshal([]byte(expvar.Get(name).String()), &snap); err != nil {
				t.Error(err)
				return
			}
			for k, v := range snap.Counters {
				if v < last[k] {
					t.Errorf("%s fell from %d to %d", k, last[k], v)
				}
				last[k] = v
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	for _, s := range stacks {
		if _, err := s.DeployOLSR(OLSRConfig{}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DeployDYMO(DYMOConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := stacks[0].SendData(addrs[3], []byte("x")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(40 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	snap := reg.Snapshot()
	if snap.Counters["mpr_hello_tx"] == 0 || snap.Counters["dymo_discoveries"] == 0 {
		t.Fatalf("the cluster did not run: %v", snap.Counters)
	}
}

// TestEveryHistogramTimesSomething: on the virtual clock every deployment
// runs on, a histogram that counts samples but sums to zero restates a
// counter. Each family runs on a short line and routes one data packet
// with a registry attached; every histogram the snapshot holds must have
// measured time, and the reactive families' discovery latency must be
// among them.
func TestEveryHistogramTimesSomething(t *testing.T) {
	for _, family := range []string{"olsr", "dymo", "aodv", "zrp"} {
		t.Run(family, func(t *testing.T) {
			clk := NewVirtualClock(epoch)
			net := NewNetwork(clk, 1)
			reg := NewMetricsRegistry()
			net.SetMetrics(reg)
			addrs := Addrs(4)
			stacks, err := NewStacks(net, addrs, StackOptions{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				for _, s := range stacks {
					s.Close()
				}
			})
			if err := BuildLine(net, addrs, DefaultQuality()); err != nil {
				t.Fatal(err)
			}
			for _, s := range stacks {
				if err := s.Compose(FamilySpec{Family: family}); err != nil {
					t.Fatal(err)
				}
			}
			clk.Advance(10 * time.Second)
			if err := stacks[0].SendData(addrs[3], []byte("x")); err != nil {
				t.Fatal(err)
			}
			clk.Advance(5 * time.Second)

			snap := reg.Snapshot()
			for name, h := range snap.Histograms {
				if h.Count > 0 && h.Sum == 0 {
					t.Errorf("%s: count=%d with sum 0 on the virtual clock", name, h.Count)
				}
			}
			if family == "dymo" || family == "aodv" {
				if name := family + "_discovery_latency"; snap.Histograms[name].Count == 0 {
					t.Errorf("%s recorded no discovery", name)
				}
			}
		})
	}
}
