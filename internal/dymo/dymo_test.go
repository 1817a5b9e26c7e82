package dymo

import (
	"sync"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/mpr"
	"manetkit/internal/neighbor"
	"manetkit/internal/packetbb"
	"manetkit/internal/reactive"
	"manetkit/internal/testbed"
)

func TestFreshEnough(t *testing.T) {
	tests := []struct {
		eSeq   uint16
		eMet   int
		seq    uint16
		metric int
		want   bool
	}{
		{5, 3, 6, 9, true},  // newer seq wins regardless of metric
		{5, 3, 5, 2, true},  // equal seq, better metric
		{5, 3, 5, 3, false}, // equal seq, equal metric
		{5, 3, 4, 1, false}, // older seq never
	}
	for _, tt := range tests {
		if got := freshEnough(tt.eSeq, tt.eMet, tt.seq, tt.metric); got != tt.want {
			t.Errorf("freshEnough(%d,%d,%d,%d) = %v", tt.eSeq, tt.eMet, tt.seq, tt.metric, got)
		}
	}
}

// dymoNode bundles the per-node composition of Fig 6.
type dymoNode struct {
	node *testbed.Node
	nd   *neighbor.Detector
	dymo *DYMO
}

func deployDYMO(t *testing.T, n int, cfg Config) (*testbed.Cluster, []*dymoNode) {
	t.Helper()
	c, err := testbed.New(n, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	nodes := make([]*dymoNode, n)
	for i, node := range c.Nodes {
		nodes[i] = deployDYMOOn(t, c, node, cfg)
	}
	return c, nodes
}

func deployDYMOOn(t *testing.T, c *testbed.Cluster, node *testbed.Node, cfg Config) *dymoNode {
	t.Helper()
	nd := neighbor.New("")
	d := New("", cfg)
	for _, u := range []*core.Protocol{nd.Protocol(), d.Protocol()} {
		if err := node.Mgr.Deploy(u); err != nil {
			t.Fatal(err)
		}
		if err := u.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return &dymoNode{node: node, nd: nd, dymo: d}
}

func TestRouteDiscoveryOnLine(t *testing.T) {
	c, nodes := deployDYMO(t, 5, Config{})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	// Let neighbour detection settle (not strictly required for discovery).
	c.Run(3 * time.Second)

	var mu sync.Mutex
	var delivered []string
	nodes[4].node.Sys.Filter().OnDeliver(func(src mnet.Addr, payload []byte) {
		mu.Lock()
		delivered = append(delivered, string(payload))
		mu.Unlock()
	})
	start := c.Clock.Now()
	if err := nodes[0].node.Sys.Filter().SendData(c.Addrs()[4], []byte("ping")); err != nil {
		t.Fatal(err)
	}
	c.Run(500 * time.Millisecond)

	mu.Lock()
	if len(delivered) != 1 || delivered[0] != "ping" {
		t.Fatalf("delivered = %v", delivered)
	}
	mu.Unlock()

	// Forward route at the originator: 4 hops via node 1.
	_, p, err := nodes[0].dymo.Routes().Lookup(c.Addrs()[4])
	if err != nil {
		t.Fatalf("no route after discovery: %v", err)
	}
	if p.NextHop != c.Addrs()[1] || p.Metric != 4 {
		t.Fatalf("route = %+v", p)
	}
	// Reverse route at the target.
	_, p, err = nodes[4].dymo.Routes().Lookup(c.Addrs()[0])
	if err != nil || p.NextHop != c.Addrs()[3] {
		t.Fatalf("reverse route = %+v, %v", p, err)
	}
	st := nodes[0].dymo.State().Stats()
	if st.Discoveries != 1 || st.GiveUps != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if elapsed := c.Clock.Now().Sub(start); elapsed > 500*time.Millisecond {
		t.Fatalf("discovery took %v", elapsed)
	}
}

func TestPathAccumulationLearnsIntermediates(t *testing.T) {
	c, nodes := deployDYMO(t, 5, Config{AccumulatePaths: true})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[4], []byte("x"))
	c.Run(time.Second)
	// The originator learned routes to the intermediates from the RREP's
	// accumulated path.
	for hop, dst := range []mnet.Addr{c.Addrs()[1], c.Addrs()[2], c.Addrs()[3]} {
		_, p, err := nodes[0].dymo.Routes().Lookup(dst)
		if err != nil {
			t.Fatalf("no accumulated route to hop %d (%v)", hop+1, dst)
		}
		if p.NextHop != c.Addrs()[1] {
			t.Fatalf("accumulated route to %v via %v", dst, p.NextHop)
		}
	}
	// And the target learned the reverse intermediates from the RREQ.
	for _, dst := range []mnet.Addr{c.Addrs()[1], c.Addrs()[2], c.Addrs()[3]} {
		if _, _, err := nodes[4].dymo.Routes().Lookup(dst); err != nil {
			t.Fatalf("target missing accumulated route to %v", dst)
		}
	}
}

func TestLinkBreakTriggersRERRAndInvalidation(t *testing.T) {
	c, nodes := deployDYMO(t, 4, Config{})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)
	// Establish 0 -> 3.
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[3], []byte("warm"))
	c.Run(time.Second)
	if _, _, err := nodes[0].dymo.Routes().Lookup(c.Addrs()[3]); err != nil {
		t.Fatalf("setup: no route: %v", err)
	}
	// Break 2-3 and send again: node 2 detects the break via MAC feedback,
	// invalidates and floods a RERR; upstream nodes drop the route.
	c.Net.CutLink(c.Addrs()[2], c.Addrs()[3])
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[3], []byte("probe"))
	c.Run(300 * time.Millisecond)

	if _, _, err := nodes[2].dymo.Routes().Lookup(c.Addrs()[3]); err == nil {
		t.Fatal("node 2 kept the broken route")
	}
	if st := nodes[2].dymo.State().Stats(); st.RERRSent == 0 {
		t.Fatalf("node 2 sent no RERR: %+v", st)
	}
	if _, _, err := nodes[1].dymo.Routes().Lookup(c.Addrs()[3]); err == nil {
		t.Fatal("node 1 kept the broken route after RERR")
	}
	if _, _, err := nodes[0].dymo.Routes().Lookup(c.Addrs()[3]); err == nil {
		t.Fatal("node 0 kept the broken route after RERR")
	}
}

// diamond builds the 4-node diamond: 0-1-3 and 0-2-3.
func diamond(t *testing.T, c *testbed.Cluster) {
	t.Helper()
	a := c.Addrs()
	q := emunet.DefaultQuality()
	for _, pair := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		if err := c.Net.SetLink(a[pair[0]], a[pair[1]], q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultipathFindsDisjointPaths(t *testing.T) {
	c, nodes := deployDYMO(t, 4, Config{})
	diamond(t, c)
	for _, n := range nodes {
		if err := n.dymo.EnableMultipath(2); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(3 * time.Second)
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[3], []byte("x"))
	c.Run(time.Second)

	e, ok := nodes[0].dymo.Routes().Get(c.Addrs()[3])
	if !ok || !e.Valid {
		t.Fatalf("no route: %+v", e)
	}
	if len(e.Paths) != 2 {
		t.Fatalf("paths = %+v, want 2 link-disjoint", e.Paths)
	}
	hops := map[mnet.Addr]bool{e.Paths[0].NextHop: true, e.Paths[1].NextHop: true}
	if !hops[c.Addrs()[1]] || !hops[c.Addrs()[2]] {
		t.Fatalf("paths not disjoint: %+v", e.Paths)
	}
}

func TestMultipathSurvivesSingleLinkBreakWithoutRediscovery(t *testing.T) {
	c, nodes := deployDYMO(t, 4, Config{})
	diamond(t, c)
	for _, n := range nodes {
		if err := n.dymo.EnableMultipath(2); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(3 * time.Second)
	var delivered int
	var mu sync.Mutex
	nodes[3].node.Sys.Filter().OnDeliver(func(mnet.Addr, []byte) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[3], []byte("a"))
	c.Run(time.Second)

	// Break the active best path 0-1; the alternative via 2 takes over
	// with no new discovery.
	c.Net.CutLink(c.Addrs()[0], c.Addrs()[1])
	before := nodes[0].dymo.State().Stats().Discoveries
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[3], []byte("b"))
	c.Run(time.Second)
	// First packet after the break may be lost to MAC feedback; the route
	// should have failed over for a subsequent send.
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[3], []byte("c"))
	c.Run(time.Second)

	mu.Lock()
	got := delivered
	mu.Unlock()
	if got < 2 {
		t.Fatalf("delivered = %d, want >= 2", got)
	}
	if after := nodes[0].dymo.State().Stats().Discoveries; after != before {
		t.Fatalf("multipath should avoid re-discovery: %d -> %d", before, after)
	}
	_, p, err := nodes[0].dymo.Routes().Lookup(c.Addrs()[3])
	if err != nil || p.NextHop != c.Addrs()[2] {
		t.Fatalf("failover path = %+v, %v", p, err)
	}
}

func TestMultipathDisable(t *testing.T) {
	c, nodes := deployDYMO(t, 1, Config{})
	_ = c
	d := nodes[0].dymo
	if err := d.EnableMultipath(3); err != nil {
		t.Fatal(err)
	}
	if !d.State().Multipath() {
		t.Fatal("multipath not enabled")
	}
	if _, ok := d.Protocol().CF().Plug("re-handler-multipath"); !ok {
		t.Fatal("multipath RE handler not plugged")
	}
	if err := d.DisableMultipath(); err != nil {
		t.Fatal(err)
	}
	if d.State().Multipath() {
		t.Fatal("multipath still enabled")
	}
	if _, ok := d.Protocol().CF().Plug("re-handler"); !ok {
		t.Fatal("base RE handler not restored")
	}
}

func TestOptimizedFloodingReducesRREQForwards(t *testing.T) {
	run := func(useMPR bool) uint64 {
		c, err := testbed.New(8, testbed.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		nodes := make([]*dymoNode, 8)
		relays := make([]*mpr.MPR, 8)
		for i, node := range c.Nodes {
			nodes[i] = deployDYMOOn(t, c, node, Config{})
			if useMPR {
				relays[i] = mpr.New("")
				if err := node.Mgr.Deploy(relays[i].Protocol()); err != nil {
					t.Fatal(err)
				}
				if err := relays[i].Protocol().Start(); err != nil {
					t.Fatal(err)
				}
				nodes[i].dymo.SetFlooder(relays[i].Flooder())
			}
		}
		if err := c.Clique(); err != nil {
			t.Fatal(err)
		}
		c.Run(8 * time.Second) // let MPR selection converge
		nodes[0].node.Sys.Filter().SendData(c.Addrs()[7], []byte("x"))
		c.Run(time.Second)
		var forwards uint64
		for _, n := range nodes {
			forwards += n.dymo.State().Stats().RREQForwards
		}
		// Sanity: discovery succeeded either way.
		if _, _, err := nodes[0].dymo.Routes().Lookup(c.Addrs()[7]); err != nil {
			t.Fatalf("discovery failed (mpr=%v): %v", useMPR, err)
		}
		return forwards
	}
	blind := run(false)
	optimised := run(true)
	if optimised >= blind {
		t.Fatalf("optimised flooding (%d forwards) not cheaper than blind (%d)", optimised, blind)
	}
}

func TestRouteUpdateExtendsLifetime(t *testing.T) {
	c, nodes := deployDYMO(t, 2, Config{})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[1], []byte("a"))
	c.Run(300 * time.Millisecond)
	if _, _, err := nodes[0].dymo.Routes().Lookup(c.Addrs()[1]); err != nil {
		t.Fatal("setup: no route")
	}
	// Keep using the route for twice its lifetime: it extends past the
	// base expiry.
	for range 2 * RouteLifetime / time.Second {
		nodes[0].node.Sys.Filter().SendData(c.Addrs()[1], []byte("keepalive"))
		c.Run(time.Second)
	}
	if _, _, err := nodes[0].dymo.Routes().Lookup(c.Addrs()[1]); err != nil {
		t.Fatal("actively used route expired")
	}
	// Stop using it: it ages out.
	c.Run(RouteLifetime + time.Second)
	if _, _, err := nodes[0].dymo.Routes().Lookup(c.Addrs()[1]); err == nil {
		t.Fatal("idle route never expired")
	}
}

func TestCompositionMatchesFig6(t *testing.T) {
	c, nodes := deployDYMO(t, 1, Config{})
	on := nodes[0]
	for _, name := range []string{
		"control", "state", "re-handler", "rerr-handler", "uerr-handler",
		"noroute-handler", "routeupdate-handler", "senderr-handler",
		"linkbreak-handler", "nhood-handler", "route-sweep",
	} {
		if _, ok := on.dymo.Protocol().CF().Plug(name); !ok {
			t.Errorf("DYMO CF missing %q", name)
		}
	}
	// NO_ROUTE is consumed exclusively by DYMO.
	_, terms := on.node.Mgr.Chain(event.NoRoute)
	if len(terms) != 1 || terms[0] != "dymo" {
		t.Fatalf("NO_ROUTE terminals = %v", terms)
	}
	_ = c
}

// TestSeqNewer: DYMO's route-freshness rule is packetbb.SeqNewer, which
// compares across the 16-bit wrap.
func TestSeqNewer(t *testing.T) {
	tests := []struct {
		a, b uint16
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{5, 5, false},
		{0, 65535, true},  // wraparound
		{65535, 0, false}, // wraparound
	}
	for _, tt := range tests {
		if got := packetbb.SeqNewer(tt.a, tt.b); got != tt.want {
			t.Errorf("seqNewer(%d,%d) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// sweepPeriod is the route-sweep period, which also sweeps the duplicate
// set.
const sweepPeriod = RouteLifetime / 2

// injectRREQ hands d an RREQ for target from orig, as received from prev.
func injectRREQ(t *testing.T, d *DYMO, orig, target, prev mnet.Addr, seq uint16, hopLimit uint8) {
	t.Helper()
	msg := &packetbb.Message{
		Type: packetbb.MsgRREQ, Originator: orig, SeqNum: seq, HopLimit: hopLimit,
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{target}}},
	}
	if err := d.Protocol().RunLocked(func(ctx *core.Context) {
		_ = d.onRE(ctx, &event.Event{Type: event.REIn, Msg: msg, Src: prev})
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMultipathReplyStateSweptWithDupes: the multipath target's per-discovery
// reply state lives exactly as long as the discovery's duplicate-set entry.
func TestMultipathReplyStateSweptWithDupes(t *testing.T) {
	c, nodes := deployDYMO(t, 1, Config{})
	d := nodes[0].dymo
	if err := d.EnableMultipath(2); err != nil {
		t.Fatal(err)
	}
	orig := mnet.MustParseAddr("10.9.0.1")
	for _, prev := range []mnet.Addr{mnet.MustParseAddr("10.9.0.2"), mnet.MustParseAddr("10.9.0.3")} {
		injectRREQ(t, d, orig, c.Addrs()[0], prev, 5, 10)
	}
	k := reactive.Key{Orig: orig, Seq: 5}
	held := func() (dup, replied, seq bool) {
		st := d.State()
		st.Lock()
		defer st.Unlock()
		_, seq = st.replySeq[k]
		return st.Dupes.Has(k), len(st.repliedVia[k]) == 2, seq
	}
	if dup, replied, seq := held(); !dup || !replied || !seq {
		t.Fatalf("after two copies: dup %v, replied to both %v, reply seq %v", dup, replied, seq)
	}
	c.Run(reactive.DupHold)
	if dup, replied, seq := held(); !dup || !replied || !seq {
		t.Fatalf("at the hold time: dup %v, replied to both %v, reply seq %v", dup, replied, seq)
	}
	c.Run(sweepPeriod + time.Millisecond)
	st := d.State()
	st.Lock()
	defer st.Unlock()
	if st.Dupes.Len() != 0 || len(st.repliedVia) != 0 || len(st.replySeq) != 0 {
		t.Fatalf("after the sweep: %d dupes, %d repliedVia, %d replySeq",
			st.Dupes.Len(), len(st.repliedVia), len(st.replySeq))
	}
}

// TestForgedRREQStormDupSetPlateaus floods one node with RREQs from a new
// forged originator every tick for five hold times. The duplicate set holds
// each entry for DupHold and is swept every sweep period, so it plateaus at
// rate × (DupHold + sweep period) entries — the bound reactive.DupHold
// documents — instead of growing with the storm.
func TestForgedRREQStormDupSetPlateaus(t *testing.T) {
	c, nodes := deployDYMO(t, 1, Config{})
	d := nodes[0].dymo
	const tick = 50 * time.Millisecond
	period := sweepPeriod
	bound := int((reactive.DupHold + period) / tick)
	// Stay off the sweep grid so no entry sits exactly on a boundary.
	c.Run(tick / 2)
	target := mnet.MustParseAddr("10.8.0.1")
	peak, last := 0, 0
	for i := 0; time.Duration(i)*tick < 5*reactive.DupHold; i++ {
		orig := mnet.AddrFrom(0x0a100000 + uint32(i))
		injectRREQ(t, d, orig, target, orig, 1, 1)
		c.Run(tick)
		st := d.State()
		st.Lock()
		last = st.Dupes.Len()
		st.Unlock()
		peak = max(peak, last)
	}
	t.Logf("duplicate set: peak %d, final %d, bound %d", peak, last, bound)
	if peak > bound {
		t.Fatalf("duplicate set peaked at %d entries, bound %d", peak, bound)
	}
	if floor := int(reactive.DupHold / tick); last < floor {
		t.Fatalf("duplicate set holds %d entries at the end, want at least %d (one hold time)", last, floor)
	}
}
