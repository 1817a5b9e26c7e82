package inspect_test

import (
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/harness"
	"manetkit/internal/inspect"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/route"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

func findingChecks(r inspect.Report) map[string]int {
	out := map[string]int{}
	for _, f := range r.Findings {
		out[f.Check]++
	}
	return out
}

// TestMonitorHealthyCluster: a converged, undisturbed deployment reports
// no findings.
func TestMonitorHealthyCluster(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := testbed.New(3, testbed.Options{Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatalf("testbed.New: %v", err)
	}
	defer c.Close()
	if err := c.Line(); err != nil {
		t.Fatalf("Line: %v", err)
	}
	mon := inspect.NewMonitor(testbed.Epoch, reg, nil)
	for _, node := range c.Nodes {
		d, err := harness.DeployFamily(c, node, "aodv")
		if err != nil {
			t.Fatalf("DeployFamily: %v", err)
		}
		mon.Watch(inspect.Target{
			Mgr:    node.Mgr,
			Tables: d.RIBs,
		})
	}
	c.Run(13 * time.Second)
	r := mon.Check(c.Clock.Now())
	if !r.Healthy() {
		t.Errorf("converged cluster not healthy:\n%s", r)
	}
	if r.T != 13*time.Second {
		t.Errorf("report timestamp = %s, want 13s", r.T)
	}
	// Steady state stays healthy across a second window too.
	c.Run(5 * time.Second)
	if r := mon.Check(c.Clock.Now()); !r.Healthy() {
		t.Errorf("steady-state cluster not healthy:\n%s", r)
	}
}

// TestMonitorRouteStaleness: a valid RIB entry whose every path has
// expired is flagged.
func TestMonitorRouteStaleness(t *testing.T) {
	clk := vclock.NewVirtual(testbed.Epoch)
	tbl := route.NewTable(clk)
	tbl.AddPath(mnet.HostPrefix(mnet.MustParseAddr("10.0.0.9")), "aodv", 1, route.Path{
		NextHop: mnet.MustParseAddr("10.0.0.2"),
		Metric:  1,
		Expires: testbed.Epoch.Add(1 * time.Second),
	})
	mon := inspect.NewMonitor(testbed.Epoch, nil, nil)
	mon.Watch(inspect.Target{Node: "n1", Tables: map[string]*route.Table{"aodv": tbl}})

	if r := mon.Check(testbed.Epoch); !r.Healthy() {
		t.Errorf("unexpired route flagged:\n%s", r)
	}
	r := mon.Check(testbed.Epoch.Add(10 * time.Second))
	if got := findingChecks(r); got["route-staleness"] != 1 {
		t.Errorf("want one route-staleness finding, got:\n%s", r)
	}
	if len(r.Findings) > 0 {
		f := r.Findings[0]
		if f.Node != "n1" || f.Unit != "aodv" || f.Level != inspect.LevelWarn {
			t.Errorf("finding attribution wrong: %+v", f)
		}
	}
}

// TestMonitorDropRate: a manager whose emitted events find no requirer
// drops them all, which the window accounting flags.
func TestMonitorDropRate(t *testing.T) {
	clk := vclock.NewVirtual(testbed.Epoch)
	m, err := core.NewManager(core.Config{
		Node: mnet.MustParseAddr("10.0.0.1"), Clock: clk, Model: core.SingleThreaded,
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	src := core.NewProtocol("src")
	src.SetTuple(event.Tuple{Provided: []event.Type{event.HelloIn}})
	if err := m.Deploy(src); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	mon := inspect.NewMonitor(testbed.Epoch, nil, nil)
	mon.Watch(inspect.Target{Mgr: m})

	// First check establishes the baseline window.
	if r := mon.Check(clk.Now()); !r.Healthy() {
		t.Errorf("baseline check not healthy:\n%s", r)
	}
	for i := 0; i < 10; i++ {
		_ = src.Emit(&event.Event{Type: event.HelloIn})
	}
	r := mon.Check(clk.Now())
	if got := findingChecks(r); got["drop-rate"] != 1 {
		t.Errorf("want one drop-rate finding, got:\n%s", r)
	}
	// A quiet window afterwards is healthy again.
	if r := mon.Check(clk.Now()); !r.Healthy() {
		t.Errorf("quiet window not healthy:\n%s", r)
	}
}

// TestMonitorQueueMetrics: dedicated-queue watermark and overflow
// watchdogs read the core's metric names from the shared registry.
func TestMonitorQueueMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	depth, dropped := int64(600), uint64(0)
	reg.AttachGauge("core_dedicated_depth:aodv", func() int64 { return depth })
	reg.Attach(func(emit func(string, uint64)) { emit("core_dedicated_dropped:aodv", dropped) })
	dropped = 5
	mon := inspect.NewMonitor(testbed.Epoch, reg, nil)

	r := mon.Check(testbed.Epoch)
	got := findingChecks(r)
	if got["queue-watermark"] != 1 || got["queue-overflow"] != 1 {
		t.Errorf("want queue-watermark and queue-overflow findings, got:\n%s", r)
	}
	// Overflow is windowed: with no new drops only the watermark persists.
	r = mon.Check(testbed.Epoch.Add(time.Second))
	got = findingChecks(r)
	if got["queue-watermark"] != 1 || got["queue-overflow"] != 0 {
		t.Errorf("second window want only queue-watermark, got:\n%s", r)
	}
	depth = 3
	if r := mon.Check(testbed.Epoch.Add(2 * time.Second)); !r.Healthy() {
		t.Errorf("drained queue still flagged:\n%s", r)
	}
}

// TestMonitorNeighborChurn: a flurry of neighbourhood changes beyond the
// threshold in one window is flagged, and the counter resets per window.
func TestMonitorNeighborChurn(t *testing.T) {
	clk := vclock.NewVirtual(testbed.Epoch)
	m, err := core.NewManager(core.Config{
		Node: mnet.MustParseAddr("10.0.0.1"), Clock: clk, Model: core.SingleThreaded,
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	nd := core.NewProtocol("nd")
	nd.SetTuple(event.Tuple{Provided: []event.Type{event.NhoodChange}})
	if err := m.Deploy(nd); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	mon := inspect.NewMonitor(testbed.Epoch, nil, nil)
	mon.Watch(inspect.Target{Mgr: m})

	for i := 0; i < 17; i++ { // one past the threshold of 16
		_ = nd.Emit(&event.Event{Type: event.NhoodChange})
	}
	r := mon.Check(clk.Now())
	if got := findingChecks(r); got["neighbor-churn"] != 1 {
		t.Errorf("want one neighbor-churn finding, got:\n%s", r)
	}
	if r := mon.Check(clk.Now()); findingChecks(r)["neighbor-churn"] != 0 {
		t.Errorf("churn counter did not reset:\n%s", r)
	}
}
