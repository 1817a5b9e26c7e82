package manetkit

import (
	"testing"
	"time"
)

// convergedGrid stands up a 4×4 grid of stacks running OLSR and lets it
// converge — the state a node is in when it is asked to switch protocols.
func convergedGrid(tb testing.TB) []*Stack {
	tb.Helper()
	clk := NewVirtualClock(epoch)
	net := NewNetwork(clk, 1)
	stacks, err := NewStacks(net, Addrs(16), StackOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		for _, s := range stacks {
			s.Close()
		}
	})
	if err := BuildGrid(net, Addrs(16), 4, DefaultQuality()); err != nil {
		tb.Fatal(err)
	}
	for _, s := range stacks {
		if _, err := s.DeployOLSR(OLSRConfig{}); err != nil {
			tb.Fatal(err)
		}
	}
	clk.Advance(30 * time.Second)
	return stacks
}

// switchRoundTrip moves one stack OLSR → DYMO → OLSR through the calls the
// reconfig_switch workload makes.
func switchRoundTrip(tb testing.TB, s *Stack) {
	if err := s.UndeployOLSR(); err != nil {
		tb.Fatal(err)
	}
	if err := s.UndeployMPR(); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.DeployDYMO(DYMOConfig{}); err != nil {
		tb.Fatal(err)
	}
	if err := s.UndeployDYMO(); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.DeployOLSR(OLSRConfig{}); err != nil {
		tb.Fatal(err)
	}
}

// switchAllocBudget bounds the heap objects of one round trip: the measured
// 393 plus 10 %. It was 614 before the framework's registries and plans were
// sized to fit, and 1 728 before the rewire derived only what changed.
const switchAllocBudget = 432

func TestSwitchAllocBudget(t *testing.T) {
	s := convergedGrid(t)[5]
	got := testing.AllocsPerRun(20, func() { switchRoundTrip(t, s) })
	t.Logf("one OLSR→DYMO→OLSR round trip: %.0f heap objects (budget %d)", got, switchAllocBudget)
	if got > switchAllocBudget {
		t.Fatalf("round trip allocates %.0f objects, budget %d", got, switchAllocBudget)
	}
}

// BenchmarkSwitch times the round trip one node of reconfig_switch pays per
// cycle.
func BenchmarkSwitch(b *testing.B) {
	s := convergedGrid(b)[5]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switchRoundTrip(b, s)
	}
}
