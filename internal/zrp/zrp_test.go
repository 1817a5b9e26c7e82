package zrp

import (
	"sync"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/mpr"
	"manetkit/internal/testbed"
)

type zrpNode struct {
	node  *testbed.Node
	relay *mpr.MPR
	zrp   *ZRP
}

func deployZRP(t *testing.T, n int) (*testbed.Cluster, []*zrpNode) {
	t.Helper()
	c, err := testbed.New(n, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	nodes := make([]*zrpNode, n)
	for i, node := range c.Nodes {
		relay := mpr.New("")
		z := New("", relay)
		for _, u := range []*core.Protocol{relay.Protocol(), z.Protocol()} {
			if err := node.Mgr.Deploy(u); err != nil {
				t.Fatal(err)
			}
			if err := u.Start(); err != nil {
				t.Fatal(err)
			}
		}
		nodes[i] = &zrpNode{node: node, relay: relay, zrp: z}
	}
	return c, nodes
}

func TestIntrazoneRoutesAreProactive(t *testing.T) {
	// Line of 3: everything is within each node's radius-2 zone; no
	// discovery ever happens.
	c, nodes := deployZRP(t, 3)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(6 * time.Second)
	for i, zn := range nodes {
		if got := zn.zrp.Routes().ValidCount(); got != 2 {
			t.Fatalf("node %d has %d zone routes, want 2", i, got)
		}
	}
	// End-to-end data without discovery.
	var mu sync.Mutex
	delivered := 0
	nodes[2].node.Sys.Filter().OnDeliver(func(mnet.Addr, []byte) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[2], []byte("in-zone"))
	c.Run(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	if st := nodes[0].zrp.State().Stats(); st.Discoveries != 0 {
		t.Fatalf("in-zone traffic triggered discovery: %+v", st)
	}
}

func TestInterzoneDiscoveryAnsweredByZone(t *testing.T) {
	// Line of 6: node 1 -> node 6 is out of zone; some node whose zone
	// covers node 6 (node 4 or 5) answers before the RREQ reaches node 6.
	c, nodes := deployZRP(t, 6)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(6 * time.Second)

	var mu sync.Mutex
	delivered := 0
	nodes[5].node.Sys.Filter().OnDeliver(func(mnet.Addr, []byte) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[5], []byte("out-of-zone"))
	c.Run(2 * time.Second)

	mu.Lock()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	mu.Unlock()
	_, p, err := nodes[0].zrp.Routes().Lookup(c.Addrs()[5])
	if err != nil {
		t.Fatalf("no interzone route: %v", err)
	}
	if p.Metric != 5 || p.NextHop != c.Addrs()[1] {
		t.Fatalf("interzone route = %+v", p)
	}
	// A zone answer happened; the target never answered itself.
	var zoneAnswers, terminalAnswers uint64
	for _, zn := range nodes {
		st := zn.zrp.State().Stats()
		zoneAnswers += st.ZoneAnswers
		terminalAnswers += st.TerminalAnswers
	}
	if zoneAnswers == 0 {
		t.Fatal("no in-zone node answered for the target")
	}
	if terminalAnswers != 0 {
		t.Fatalf("target answered itself despite zone coverage: %d", terminalAnswers)
	}
}

func TestHybridFloodShallowerThanReactive(t *testing.T) {
	// On the 6-line, ZRP's RREQ stops at the first node whose zone covers
	// the target. Pure reactive flooding would forward at nodes 2,3,4,5;
	// ZRP must forward strictly fewer times.
	c, nodes := deployZRP(t, 6)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(6 * time.Second)
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[5], []byte("x"))
	c.Run(2 * time.Second)
	var forwards uint64
	for _, zn := range nodes {
		forwards += zn.zrp.State().Stats().RREQForwards
	}
	if forwards >= 4 {
		t.Fatalf("hybrid flood forwarded %d times; expected < 4 (pure reactive)", forwards)
	}
}

func TestZoneRepairAfterLinkBreak(t *testing.T) {
	c, nodes := deployZRP(t, 3)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(6 * time.Second)
	if _, _, err := nodes[0].zrp.Routes().Lookup(c.Addrs()[2]); err != nil {
		t.Fatal("setup: no zone route")
	}
	// Cut 2-3: node 3 leaves node 1's zone and the route ages out.
	c.Net.CutLink(c.Addrs()[1], c.Addrs()[2])
	c.Run(15 * time.Second)
	if _, _, err := nodes[0].zrp.Routes().Lookup(c.Addrs()[2]); err == nil {
		t.Fatal("zone route survived partition")
	}
	// Heal: the zone re-forms.
	if err := c.Net.SetLink(c.Addrs()[1], c.Addrs()[2], qualityOf(c)); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Second)
	if _, _, err := nodes[0].zrp.Routes().Lookup(c.Addrs()[2]); err != nil {
		t.Fatal("zone route did not re-form after heal")
	}
}

func qualityOf(c *testbed.Cluster) emunet.Quality {
	_ = c
	return emunet.DefaultQuality()
}

// TestZeroRadiusZone is the degenerate-zone case: an isolated node has no
// symmetric neighbours, so its zone is empty and nothing is reachable
// proactively. A send must go through the full IERP discovery and give up
// cleanly — never an intrazone hit, never a route.
func TestZeroRadiusZone(t *testing.T) {
	// Two nodes, deliberately never linked.
	c, nodes := deployZRP(t, 2)
	c.Run(6 * time.Second)

	if got := nodes[0].zrp.Routes().ValidCount(); got != 0 {
		t.Fatalf("isolated node has %d zone routes, want 0", got)
	}
	if err := nodes[0].node.Sys.Filter().SendData(c.Addrs()[1], []byte("void")); err != nil {
		t.Fatal(err)
	}
	// Past all three attempts (1 s, 2 s and 4 s waits).
	c.Run(8 * time.Second)

	st := nodes[0].zrp.State().Stats()
	if st.IntrazoneHits != 0 {
		t.Fatalf("empty zone produced an intrazone hit: %+v", st)
	}
	if st.Discoveries != 1 || st.GiveUps != 1 {
		t.Fatalf("discovery did not run to give-up: %+v", st)
	}
	if st.Retries != rreqTries-1 {
		t.Fatalf("retries = %d, want %d", st.Retries, rreqTries-1)
	}
	if got := nodes[0].zrp.Routes().ValidCount(); got != 0 {
		t.Fatalf("give-up left %d routes", got)
	}
}

// TestBorderlessZone is the opposite degenerate case: on a clique every
// node is inside every other node's zone, so the network has no zone
// border at all — routing is purely proactive and IERP never fires.
func TestBorderlessZone(t *testing.T) {
	c, nodes := deployZRP(t, 4)
	if err := c.Clique(); err != nil {
		t.Fatal(err)
	}
	c.Run(6 * time.Second)

	for i, zn := range nodes {
		if got := zn.zrp.Routes().ValidCount(); got != 3 {
			t.Fatalf("node %d has %d zone routes, want 3", i, got)
		}
	}
	var mu sync.Mutex
	delivered := 0
	for _, zn := range nodes[1:] {
		zn.node.Sys.Filter().OnDeliver(func(mnet.Addr, []byte) {
			mu.Lock()
			delivered++
			mu.Unlock()
		})
	}
	for _, dst := range c.Addrs()[1:] {
		if err := nodes[0].node.Sys.Filter().SendData(dst, []byte("borderless")); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Second)

	mu.Lock()
	got := delivered
	mu.Unlock()
	if got != 3 {
		t.Fatalf("delivered = %d, want 3", got)
	}
	for i, zn := range nodes {
		st := zn.zrp.State().Stats()
		if st.Discoveries != 0 || st.ZoneAnswers != 0 || st.TerminalAnswers != 0 {
			t.Fatalf("node %d ran IERP machinery on a borderless network: %+v", i, st)
		}
	}
}

func TestZoneRefreshIsChurnFree(t *testing.T) {
	// Once the zone has converged, periodic IARP refreshes must be pure
	// lifetime extensions: no FIB writes.
	c, nodes := deployZRP(t, 3)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(6 * time.Second)
	mid := nodes[1]
	if got := mid.zrp.Routes().ValidCount(); got != 2 {
		t.Fatalf("zone not converged: %d routes", got)
	}
	fibOps := mid.node.FIB().Ops()
	c.Run(10 * time.Second) // several ZoneHold periods of steady state
	if got := mid.node.FIB().Ops(); got != fibOps {
		t.Fatalf("steady-state zone refresh wrote the FIB: ops %d -> %d", fibOps, got)
	}
	if got := mid.zrp.Routes().ValidCount(); got != 2 {
		t.Fatalf("zone routes decayed during refresh-only window: %d", got)
	}
}

// TestSteadyZoneRefreshAllocs pins IARP's periodic zone refresh at no
// allocation once the zone has been seen: the symmetric neighbours and the
// 2-hop walk go into the CF's scratch, and a refresh that changes nothing
// touches neither the table's FIB mirror nor the heap.
func TestSteadyZoneRefreshAllocs(t *testing.T) {
	c, nodes := deployZRP(t, 5)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(6 * time.Second)
	z := nodes[2].zrp
	if got := z.Routes().ValidCount(); got != 4 {
		t.Fatalf("the middle node has %d zone routes, want 4", got)
	}
	refresh := z.refreshZone
	run := func() {
		if err := z.Protocol().RunLocked(refresh); err != nil {
			t.Fatal(err)
		}
	}
	run()
	ops := nodes[2].node.FIB().Ops()
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Fatalf("a steady zone refresh = %.1f allocs, want 0", got)
	}
	if got := nodes[2].node.FIB().Ops(); got != ops {
		t.Fatalf("101 steady zone refreshes made %d FIB ops, want 0", got-ops)
	}
	addrs := c.Addrs()
	for i, want := range []struct {
		via    mnet.Addr
		metric int
	}{{addrs[1], 2}, {addrs[1], 1}, {}, {addrs[3], 1}, {addrs[3], 2}} {
		if i == 2 {
			continue
		}
		if _, p, err := z.Routes().Lookup(addrs[i]); err != nil || p.NextHop != want.via || p.Metric != want.metric {
			t.Fatalf("zone route to %v = %+v (%v), want via %v metric %d", addrs[i], p, err, want.via, want.metric)
		}
	}
}
