package policy

import (
	"errors"
	"math"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newEngine(t *testing.T) (*Engine, *core.Manager, *core.Protocol, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	mgr, err := core.NewManager(core.Config{Node: mnet.MustParseAddr("10.0.0.1"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	e := New(mgr)
	src := core.NewProtocol("sensor")
	src.SetTuple(event.Tuple{Provided: []event.Type{
		event.PowerStatus, event.NhoodChange, event.LinkInfo, event.LinkBreak, event.NoRoute,
	}})
	if err := mgr.Deploy(src); err != nil {
		t.Fatal(err)
	}
	return e, mgr, src, clk
}

func TestAddRuleValidation(t *testing.T) {
	e, _, _, _ := newEngine(t)
	if err := e.AddRule(Rule{}); err == nil {
		t.Fatal("empty rule accepted")
	}
	if err := e.AddRule(Rule{Name: "x", When: event.Any}); err == nil {
		t.Fatal("rule without action accepted")
	}
	if err := e.AddRule(Rule{Name: "x", When: event.Any, Action: func() error { return nil }}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsTracking(t *testing.T) {
	e, _, src, _ := newEngine(t)
	nb := mnet.MustParseAddr("10.0.0.2")
	src.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.4}})
	src.Emit(&event.Event{Type: event.NhoodChange, Nhood: &event.NhoodPayload{Kind: event.NeighborAppeared, Neighbor: nb}})
	src.Emit(&event.Event{Type: event.LinkInfo, Link: &event.LinkPayload{Neighbor: nb, Quality: 0.8}})
	src.Emit(&event.Event{Type: event.LinkBreak, Route: &event.RoutePayload{NextHop: nb}})
	src.Emit(&event.Event{Type: event.NoRoute, Route: &event.RoutePayload{Dst: nb}})

	m := e.Metrics()
	if m.BatteryFraction != 0.4 || m.Neighbors != 1 || m.MeanLinkQuality != 0.8 ||
		m.LinkBreaks != 1 || m.RouteDiscoveries != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	src.Emit(&event.Event{Type: event.NhoodChange, Nhood: &event.NhoodPayload{Kind: event.NeighborLost, Neighbor: nb}})
	if m := e.Metrics(); m.Neighbors != 0 {
		t.Fatalf("neighbour count after loss = %d", m.Neighbors)
	}
}

// TestMeanLinkQualityIsOrderFree: the mean over six neighbours comes out to
// the same bits in every fresh engine, whatever order its map iterates in.
func TestMeanLinkQualityIsOrderFree(t *testing.T) {
	qualities := []float64{0.1, 0.7, 0.3, 1e-9, 0.9, 0.11}
	var want uint64
	for i := 0; i < 20; i++ {
		e, _, src, _ := newEngine(t)
		for j, q := range qualities {
			nb := mnet.AddrFrom(0x0a000002 + uint32(j))
			src.Emit(&event.Event{Type: event.LinkInfo, Link: &event.LinkPayload{Neighbor: nb, Quality: q}})
		}
		got := math.Float64bits(e.Metrics().MeanLinkQuality)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("engine %d: MeanLinkQuality bits %#x, engine 0 %#x", i, got, want)
		}
	}
}

func TestRuleFiresOnConditionAndLogs(t *testing.T) {
	e, _, src, _ := newEngine(t)
	fired := 0
	err := e.AddRule(Rule{
		Name:      "low-battery",
		When:      event.PowerStatus,
		Condition: func(ev *event.Event, m Metrics) bool { return m.BatteryFraction < 0.3 },
		Action:    func() error { fired++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	src.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.8}})
	if fired != 0 {
		t.Fatal("fired above threshold")
	}
	src.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.2}})
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	log := e.Firings()
	if len(log) != 1 || log[0].Rule != "low-battery" || log[0].Err != nil {
		t.Fatalf("firings = %+v", log)
	}
}

func TestRuleCooldownAndOnce(t *testing.T) {
	e, _, src, clk := newEngine(t)
	var cooled, once int
	e.AddRule(Rule{
		Name:     "cooldown",
		When:     event.PowerStatus,
		Action:   func() error { cooled++; return nil },
		Cooldown: 10 * time.Second,
	})
	e.AddRule(Rule{
		Name:   "one-shot",
		When:   event.PowerStatus,
		Action: func() error { once++; return nil },
		Once:   true,
	})
	emit := func() {
		src.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.5}})
	}
	emit()
	emit() // within cooldown; one-shot disabled
	if cooled != 1 || once != 1 {
		t.Fatalf("cooled=%d once=%d", cooled, once)
	}
	clk.Advance(11 * time.Second)
	emit()
	if cooled != 2 || once != 1 {
		t.Fatalf("after cooldown: cooled=%d once=%d", cooled, once)
	}
}

func TestAbstractTriggerMatchesSubtypes(t *testing.T) {
	e, _, src, _ := newEngine(t)
	n := 0
	e.AddRule(Rule{
		Name:   "any-context",
		When:   event.Context,
		Action: func() error { n++; return nil },
	})
	src.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 1}})
	src.Emit(&event.Event{Type: event.LinkInfo, Link: &event.LinkPayload{}})
	src.Emit(&event.Event{Type: event.NoRoute, Route: &event.RoutePayload{}}) // Routing, not Context
	if n != 2 {
		t.Fatalf("fired %d times", n)
	}
}

func TestActionErrorRecorded(t *testing.T) {
	e, _, src, _ := newEngine(t)
	sentinel := errors.New("reconfig failed")
	e.AddRule(Rule{
		Name:   "failing",
		When:   event.PowerStatus,
		Action: func() error { return sentinel },
		Once:   true,
	})
	src.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.5}})
	log := e.Firings()
	if len(log) != 1 || !errors.Is(log[0].Err, sentinel) {
		t.Fatalf("firings = %+v", log)
	}
}

func TestSuspendPausesRulesNotMetrics(t *testing.T) {
	e, _, src, _ := newEngine(t)
	n := 0
	e.AddRule(Rule{Name: "r", When: event.PowerStatus, Action: func() error { n++; return nil }})
	e.Suspend(true)
	src.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.1}})
	if n != 0 {
		t.Fatal("rule fired while suspended")
	}
	if e.Metrics().BatteryFraction != 0.1 {
		t.Fatal("metrics not updated while suspended")
	}
	e.Suspend(false)
	src.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.1}})
	if n != 1 {
		t.Fatal("rule did not resume")
	}
}

// TestClosedLoopReconfiguration drives the full loop the paper describes:
// context monitoring -> decision making -> reconfiguration enactment. A
// battery report below threshold triggers the power-aware OLSR variant.
func TestClosedLoopReconfiguration(t *testing.T) {
	e, mgr, src, _ := newEngine(t)
	applied := false
	e.AddRule(Rule{
		Name:      "enable-power-aware",
		When:      event.PowerStatus,
		Condition: func(ev *event.Event, m Metrics) bool { return m.BatteryFraction < 0.5 },
		Action: func() error {
			applied = true
			return nil
		},
		Once: true,
	})
	_ = mgr
	src.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.45}})
	if !applied {
		t.Fatal("closed loop did not enact reconfiguration")
	}
}
