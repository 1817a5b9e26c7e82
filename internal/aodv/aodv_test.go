package aodv

import (
	"slices"
	"sync"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
	"manetkit/internal/packetbb"
	"manetkit/internal/route"
	"manetkit/internal/system"
	"manetkit/internal/testbed"
)

// aodvNode bundles the per-node composition.
type aodvNode struct {
	node *testbed.Node
	nd   *neighbor.Detector
	aodv *AODV
}

func deployAODV(t *testing.T, n int, cfg Config) (*testbed.Cluster, []*aodvNode) {
	t.Helper()
	c, err := testbed.New(n, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	nodes := make([]*aodvNode, n)
	for i, node := range c.Nodes {
		nd := neighbor.New("")
		a := New("", nd, cfg)
		for _, u := range []*core.Protocol{nd.Protocol(), a.Protocol()} {
			if err := node.Mgr.Deploy(u); err != nil {
				t.Fatal(err)
			}
			if err := u.Start(); err != nil {
				t.Fatal(err)
			}
		}
		nodes[i] = &aodvNode{node: node, nd: nd, aodv: a}
	}
	return c, nodes
}

func TestDiscoveryOnLine(t *testing.T) {
	c, nodes := deployAODV(t, 5, Config{})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)

	var mu sync.Mutex
	delivered := 0
	nodes[4].node.Sys.Filter().OnDeliver(func(mnet.Addr, []byte) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	if err := nodes[0].node.Sys.Filter().SendData(c.Addrs()[4], []byte("ping")); err != nil {
		t.Fatal(err)
	}
	// 4 hops > TTLStart(2): the expanding ring must widen at least once.
	c.Run(5 * time.Second)

	mu.Lock()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	mu.Unlock()
	_, p, err := nodes[0].aodv.Routes().Lookup(c.Addrs()[4])
	if err != nil || p.Metric != 4 || p.NextHop != c.Addrs()[1] {
		t.Fatalf("route = %+v, %v", p, err)
	}
	st := nodes[0].aodv.State().Stats()
	if st.Discoveries != 1 || st.RingExpansions == 0 {
		t.Fatalf("stats = %+v (expected an expanding-ring widening)", st)
	}
}

func TestExpandingRingStopsEarlyForNearTargets(t *testing.T) {
	c, nodes := deployAODV(t, 3, Config{})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)
	// Target 2 hops away: within TTLStart, no expansion needed.
	if err := nodes[0].node.Sys.Filter().SendData(c.Addrs()[2], []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Second)
	st := nodes[0].aodv.State().Stats()
	if st.RingExpansions != 0 || st.Retries != 0 {
		t.Fatalf("near target should need no expansion: %+v", st)
	}
	if _, _, err := nodes[0].aodv.Routes().Lookup(c.Addrs()[2]); err != nil {
		t.Fatal("no route after discovery")
	}
}

func TestGratuitousRREPFromIntermediate(t *testing.T) {
	c, nodes := deployAODV(t, 4, Config{})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)
	// Node 1 discovers node 3; node 2 (mid) now holds a fresh route to 3.
	nodes[1].node.Sys.Filter().SendData(c.Addrs()[3], []byte("warm"))
	c.Run(2 * time.Second)
	if _, _, err := nodes[2].aodv.Routes().Lookup(c.Addrs()[3]); err != nil {
		t.Fatal("setup: intermediate lacks route")
	}
	// Node 0 now discovers node 3: node 1 or 2 can answer gratuitously.
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[3], []byte("x"))
	c.Run(2 * time.Second)
	if _, _, err := nodes[0].aodv.Routes().Lookup(c.Addrs()[3]); err != nil {
		t.Fatal("discovery failed")
	}
	grat := nodes[1].aodv.State().Stats().GratuitousRREPs + nodes[2].aodv.State().Stats().GratuitousRREPs
	if grat == 0 {
		t.Fatal("no gratuitous RREP was sent")
	}
}

func TestDestinationOnlyDisablesGratuitousRREP(t *testing.T) {
	c, nodes := deployAODV(t, 4, Config{DestinationOnly: true})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)
	nodes[1].node.Sys.Filter().SendData(c.Addrs()[3], []byte("warm"))
	c.Run(2 * time.Second)
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[3], []byte("x"))
	c.Run(2 * time.Second)
	if _, _, err := nodes[0].aodv.Routes().Lookup(c.Addrs()[3]); err != nil {
		t.Fatal("discovery failed")
	}
	for i := 1; i <= 2; i++ {
		if g := nodes[i].aodv.State().Stats().GratuitousRREPs; g != 0 {
			t.Fatalf("node %d sent %d gratuitous RREPs despite destination-only", i, g)
		}
	}
}

func TestPiggybackTeachesNeighbors(t *testing.T) {
	c, nodes := deployAODV(t, 4, Config{PiggybackRoutes: true})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)
	// Node 1 discovers a route to node 3.
	nodes[1].node.Sys.Filter().SendData(c.Addrs()[3], []byte("warm"))
	c.Run(2 * time.Second)
	// Within a couple of beacon intervals node 0 learns 3 via 1's HELLO
	// piggyback — without ever discovering.
	c.Run(4 * time.Second)
	if _, p, err := nodes[0].aodv.Routes().Lookup(c.Addrs()[3]); err != nil || p.NextHop != c.Addrs()[1] {
		t.Fatalf("piggybacked route = %+v, %v", p, err)
	}
	if nodes[0].aodv.State().Stats().Discoveries != 0 {
		t.Fatal("node 0 should not have needed a discovery")
	}
	if nodes[0].aodv.State().Stats().PiggybackLearned == 0 {
		t.Fatal("piggyback counter not incremented")
	}
}

func TestPrecursorRERRPropagates(t *testing.T) {
	c, nodes := deployAODV(t, 4, Config{})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[3], []byte("warm"))
	c.Run(2 * time.Second)
	if _, _, err := nodes[0].aodv.Routes().Lookup(c.Addrs()[3]); err != nil {
		t.Fatal("setup: no route")
	}
	// Break 2-3; transit traffic triggers MAC feedback at node 2, which
	// unicasts a RERR to its precursor (node 1), which forwards to node 0.
	c.Net.CutLink(c.Addrs()[2], c.Addrs()[3])
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[3], []byte("probe"))
	c.Run(time.Second)
	for i := 0; i <= 2; i++ {
		if _, _, err := nodes[i].aodv.Routes().Lookup(c.Addrs()[3]); err == nil {
			t.Fatalf("node %d kept the broken route", i)
		}
	}
	if nodes[2].aodv.State().Stats().RERRSent == 0 {
		t.Fatal("node 2 sent no RERR")
	}
}

func TestSingleReactiveIntegrityRule(t *testing.T) {
	c, err := testbed.New(1, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	node := c.Nodes[0]
	if err := node.Mgr.AddRule(RuleSingleReactive("aodv", "dymo")); err != nil {
		t.Fatal(err)
	}
	a := New("aodv", nil, Config{})
	if err := node.Mgr.Deploy(a.Protocol()); err != nil {
		t.Fatal(err)
	}
	// A second reactive protocol is rejected by the integrity rule.
	b := New("dymo", nil, Config{})
	if err := node.Mgr.Deploy(b.Protocol()); err == nil {
		t.Fatal("second reactive protocol accepted")
	}
	// The violating deployment rolled back cleanly.
	units := node.Mgr.Units()
	for _, u := range units {
		if u == "dymo" {
			t.Fatalf("rollback failed: %v", units)
		}
	}
	// After removing AODV, DYMO deploys fine.
	if err := node.Mgr.Undeploy("aodv"); err != nil {
		t.Fatal(err)
	}
	if err := node.Mgr.Deploy(b.Protocol()); err != nil {
		t.Fatalf("replacement reactive protocol rejected: %v", err)
	}
}

// TestRERRRelayRespectsHopLimit: node 1 reaches an off-cluster destination
// through an off-cluster next hop and has node 0 as that route's precursor.
// A RERR from the next hop always invalidates the route; node 1 relays it to
// node 0 one hop lower only while the hop limit allows another hop.
// TestSeqNewerWraparound: AODV's destination-sequence freshness rule is
// packetbb.SeqNewer, which compares across the 16-bit wrap.
func TestSeqNewerWraparound(t *testing.T) {
	if !packetbb.SeqNewer(2, 1) || packetbb.SeqNewer(1, 2) || packetbb.SeqNewer(3, 3) || !packetbb.SeqNewer(1, 65000) {
		t.Fatal("seqNewer broken")
	}
}

func TestRERRRelayRespectsHopLimit(t *testing.T) {
	for _, tc := range []struct {
		in    uint8
		relay []uint8 // hop limits of the RERRs node 1 transmits
	}{
		{in: 1, relay: nil},
		{in: 2, relay: []uint8{1}},
	} {
		c, nodes := deployAODV(t, 2, Config{})
		up, b := c.Addrs()[0], nodes[1].aodv
		next, dst := mnet.MustParseAddr("10.9.0.1"), mnet.MustParseAddr("10.9.0.2")
		b.Routes().Upsert(route.Entry{
			Dst:    mnet.HostPrefix(dst),
			Paths:  []route.Path{{NextHop: next, Metric: 2, Expires: c.Clock.Now().Add(time.Minute)}},
			SeqNum: 1,
			Valid:  true,
			Proto:  b.Protocol().Name(),
		})
		b.State().addPrecursor(dst, up)

		var relayed []uint8
		c.Net.SetTxTap(func(f emunet.Frame) {
			if f.Src != c.Addrs()[1] || !system.IsControlFrame(f.Payload) {
				return
			}
			pkt, err := system.DecodeControl(f)
			if err != nil {
				t.Error(err)
				return
			}
			for _, m := range pkt.Messages {
				if m.Type == packetbb.MsgRERR {
					relayed = append(relayed, m.HopLimit)
				}
			}
		})
		rerr := &packetbb.Message{
			Type: packetbb.MsgRERR, Originator: next, SeqNum: 7, HopLimit: tc.in,
			AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{dst}}},
		}
		if err := b.Protocol().RunLocked(func(ctx *core.Context) {
			_ = b.onRERR(ctx, &event.Event{Type: event.RerrIn, Msg: rerr, Src: next})
		}); err != nil {
			t.Fatal(err)
		}
		c.Run(100 * time.Millisecond)

		if _, _, err := b.Routes().Lookup(dst); err == nil {
			t.Errorf("hop limit %d: route survived the RERR", tc.in)
		}
		if !slices.Equal(relayed, tc.relay) {
			t.Errorf("hop limit %d: relayed RERR hop limits = %v, want %v", tc.in, relayed, tc.relay)
		}
	}
}

func TestRoutesExpireWithoutUse(t *testing.T) {
	c, nodes := deployAODV(t, 2, Config{})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	nodes[0].node.Sys.Filter().SendData(c.Addrs()[1], []byte("x"))
	c.Run(500 * time.Millisecond)
	if _, _, err := nodes[0].aodv.Routes().Lookup(c.Addrs()[1]); err != nil {
		t.Fatal("no route after discovery")
	}
	c.Run(routeLifetime + time.Second)
	if _, _, err := nodes[0].aodv.Routes().Lookup(c.Addrs()[1]); err == nil {
		t.Fatal("idle route never expired")
	}
}

func TestCompositionHasExpectedPlugins(t *testing.T) {
	c, nodes := deployAODV(t, 1, Config{})
	_ = c
	for _, name := range []string{
		"control", "state", "re-handler", "rerr-handler", "noroute-handler",
		"routeupdate-handler", "senderr-handler", "linkbreak-handler",
		"nhood-handler", "route-sweep",
	} {
		if _, ok := nodes[0].aodv.Protocol().CF().Plug(name); !ok {
			t.Errorf("AODV CF missing %q", name)
		}
	}
	_, terms := nodes[0].node.Mgr.Chain(event.NoRoute)
	if len(terms) != 1 || terms[0] != "aodv" {
		t.Fatalf("NO_ROUTE terminals = %v", terms)
	}
}

func TestAODVWorksUnderLoss(t *testing.T) {
	// Failure injection: 15% frame loss; retries still find the route.
	c, err := testbed.New(3, testbed.Options{
		Seed:        7,
		LinkQuality: emunet.Quality{Delay: 1500 * time.Microsecond, Loss: 0.15, SignalDBm: -70},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	nodes := make([]*aodvNode, 3)
	for i, node := range c.Nodes {
		nd := neighbor.New("")
		a := New("", nd, Config{})
		for _, u := range []*core.Protocol{nd.Protocol(), a.Protocol()} {
			if err := node.Mgr.Deploy(u); err != nil {
				t.Fatal(err)
			}
			if err := u.Start(); err != nil {
				t.Fatal(err)
			}
		}
		nodes[i] = &aodvNode{node: node, nd: nd, aodv: a}
	}
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)
	var mu sync.Mutex
	delivered := 0
	nodes[2].node.Sys.Filter().OnDeliver(func(mnet.Addr, []byte) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	// Several attempts; loss may eat some data frames but discovery should
	// succeed and most packets arrive.
	for i := 0; i < 5; i++ {
		nodes[0].node.Sys.Filter().SendData(c.Addrs()[2], []byte("x"))
		c.Run(2 * time.Second)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered < 2 {
		t.Fatalf("delivered %d/5 under 15%% loss", delivered)
	}
}
