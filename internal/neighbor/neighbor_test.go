package neighbor

import (
	"sync"
	"testing"
	"time"

	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/route"
	"manetkit/internal/testbed"
)

func addr(s string) mnet.Addr { return mnet.MustParseAddr(s) }

func TestTableObserveTransitions(t *testing.T) {
	tb := NewTable()
	nb := addr("10.0.0.2")
	now := testbed.Epoch

	if st, ok := tb.StatusOf(nb); ok {
		t.Fatalf("StatusOf an unknown neighbour = %v, true", st)
	}
	if prev := tb.Observe(nb, false, 3, nil, now); prev != 0 {
		t.Fatalf("first Observe prev = %v", prev)
	}
	if links := tb.AppendNeighbors(nil, false); len(links) != 1 || links[0].Status != StatusHeard {
		t.Fatalf("after asym hello: %+v", links)
	}
	if st, ok := tb.StatusOf(nb); !ok || st != StatusHeard {
		t.Fatalf("StatusOf after asym hello = %v, %v", st, ok)
	}
	if prev := tb.Observe(nb, true, 5, []mnet.Addr{addr("10.0.0.3")}, now); prev != StatusHeard {
		t.Fatalf("second Observe prev = %v", prev)
	}
	links := tb.AppendNeighbors(nil, true)
	if len(links) != 1 || links[0].Willingness != 5 || len(tb.AppendTwoHop(nil, addr("10.0.0.1"))) != 1 {
		t.Fatalf("after sym hello: %+v", links)
	}
	if st, _ := tb.StatusOf(nb); st != StatusSymmetric {
		t.Fatalf("StatusOf after sym hello = %v", st)
	}
	// A hello no longer listing us demotes to heard.
	tb.Observe(nb, false, 5, nil, now)
	if st, _ := tb.StatusOf(nb); st != StatusHeard {
		t.Fatalf("after demotion: %v", st)
	}
}

func TestTableExpiryAndDrop(t *testing.T) {
	tb := NewTable()
	now := testbed.Epoch
	tb.Observe(addr("10.0.0.2"), true, 3, nil, now)
	tb.Observe(addr("10.0.0.3"), true, 3, nil, now.Add(5*time.Second))

	lost := tb.Expire(now.Add(2 * time.Second))
	if len(lost) != 1 || lost[0] != addr("10.0.0.2") {
		t.Fatalf("lost = %v", lost)
	}
	if syms := tb.AppendSymmetricAddrs(nil); len(syms) != 1 {
		t.Fatalf("symmetric neighbours = %v", syms)
	}
	if got := tb.Expire(now.Add(2 * time.Second)); len(got) != 0 {
		t.Fatal("expire reported same neighbour twice")
	}
	if n := tb.Drop(now.Add(10 * time.Second)); n != 1 {
		t.Fatalf("Drop = %d", n)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestTableTwoHopSet(t *testing.T) {
	tb := NewTable()
	self := addr("10.0.0.1")
	now := testbed.Epoch
	// n2 (sym) reaches n4, n5 and self; n3 (heard only) reaches n6.
	tb.Observe(addr("10.0.0.2"), true, 3, []mnet.Addr{addr("10.0.0.4"), addr("10.0.0.5"), self}, now)
	tb.Observe(addr("10.0.0.3"), false, 3, []mnet.Addr{addr("10.0.0.6")}, now)
	// n5 is also a direct neighbour -> excluded from 2-hop.
	tb.Observe(addr("10.0.0.5"), true, 3, nil, now)

	th := tb.TwoHopSet(self)
	if len(th) != 1 {
		t.Fatalf("TwoHopSet = %v", th)
	}
	vias, ok := th[addr("10.0.0.4")]
	if !ok || len(vias) != 1 || vias[0] != addr("10.0.0.2") {
		t.Fatalf("vias for n4 = %v", vias)
	}
}

func TestHelloRoundTripThroughCodec(t *testing.T) {
	d := New("")
	d.Table().Observe(addr("10.0.0.2"), true, 3, nil, testbed.Epoch)
	d.Table().Observe(addr("10.0.0.3"), false, 3, nil, testbed.Epoch)
	self := addr("10.0.0.1")
	msg := d.BuildHello(self)
	wire, err := packetbb.EncodeMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := packetbb.DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	// From 10.0.0.2's perspective: it is listed -> link is at least heard.
	listsUs, relaysUs, will, syms := ParseHello(back, addr("10.0.0.2"), nil)
	if !listsUs || relaysUs || will != 3 {
		t.Fatalf("listsUs=%v relaysUs=%v will=%d", listsUs, relaysUs, will)
	}
	if len(syms) != 0 { // only 10.0.0.2 itself is symmetric in the hello
		t.Fatalf("syms = %v", syms)
	}
	// A third party sees 10.0.0.2 as the sender's symmetric neighbour.
	_, _, _, syms = ParseHello(back, addr("10.0.0.9"), nil)
	if len(syms) != 1 || syms[0] != addr("10.0.0.2") {
		t.Fatalf("third-party syms = %v", syms)
	}
}

// deployDetectors builds a cluster with a detector on each node.
func deployDetectors(t *testing.T, n int) (*testbed.Cluster, []*Detector) {
	t.Helper()
	c, err := testbed.New(n, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ds := make([]*Detector, n)
	for i, node := range c.Nodes {
		ds[i] = New("")
		if err := node.Mgr.Deploy(ds[i].Protocol()); err != nil {
			t.Fatal(err)
		}
		if err := ds[i].Protocol().Start(); err != nil {
			t.Fatal(err)
		}
	}
	return c, ds
}

func TestDetectorsConvergeToSymmetric(t *testing.T) {
	c, ds := deployDetectors(t, 3)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Second)

	// Middle node sees both ends as symmetric.
	syms := ds[1].Table().SymmetricAddrs()
	if len(syms) != 2 {
		t.Fatalf("middle node symmetric set = %v", syms)
	}
	// End node sees only the middle, and learns the far end as 2-hop.
	if syms := ds[0].Table().SymmetricAddrs(); len(syms) != 1 || syms[0] != c.Nodes[1].Addr {
		t.Fatalf("end node symmetric set = %v", syms)
	}
	th := ds[0].Table().TwoHopSet(c.Nodes[0].Addr)
	if vias, ok := th[c.Nodes[2].Addr]; !ok || len(vias) != 1 || vias[0] != c.Nodes[1].Addr {
		t.Fatalf("end node 2-hop set = %v", th)
	}
}

func TestDetectorEmitsNhoodChanges(t *testing.T) {
	c, _ := deployDetectors(t, 2)
	var mu sync.Mutex
	changes := map[event.ChangeKind]int{}
	c.Nodes[0].Mgr.SubscribeContext(event.NhoodChange, func(ev *event.Event) {
		mu.Lock()
		changes[ev.Nhood.Kind]++
		mu.Unlock()
	})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(8 * time.Second)
	mu.Lock()
	appeared, sym := changes[event.NeighborAppeared], changes[event.NeighborSymmetric]
	mu.Unlock()
	if appeared != 1 || sym != 1 {
		t.Fatalf("changes = %v", changes)
	}
	// Cut the link; HoldTime later the neighbour is reported lost.
	c.Net.CutLink(c.Nodes[0].Addr, c.Nodes[1].Addr)
	c.Run(HoldTime + HelloInterval)
	mu.Lock()
	lost := changes[event.NeighborLost]
	mu.Unlock()
	if lost != 1 {
		t.Fatalf("lost changes = %d (all: %v)", lost, changes)
	}
}

// TestLinkLayerFeedbackMarksLostImmediately: the linkfb-handler turns a
// LINK_BREAK into an immediate loss; with it removed at run time the
// detector senses by HELLOs alone and the loss waits for HoldTime.
func TestLinkLayerFeedbackMarksLostImmediately(t *testing.T) {
	for _, feedback := range []bool{true, false} {
		c, ds := deployDetectors(t, 2)
		if !feedback {
			if err := ds[0].Protocol().RemoveHandler("linkfb-handler"); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Line(); err != nil {
			t.Fatal(err)
		}
		c.Run(6 * time.Second)
		if len(ds[0].Table().SymmetricAddrs()) != 1 {
			t.Fatal("setup: not symmetric")
		}
		var mu sync.Mutex
		lost := 0
		c.Nodes[0].Mgr.SubscribeContext(event.NhoodChange, func(ev *event.Event) {
			if ev.Nhood.Kind == event.NeighborLost {
				mu.Lock()
				lost++
				mu.Unlock()
			}
		})
		// Cut the link and send a data packet: MAC feedback raises
		// LINK_BREAK, which the plug-in converts to an immediate loss (no
		// hold-time wait).
		c.Net.CutLink(c.Nodes[0].Addr, c.Nodes[1].Addr)
		c.Nodes[0].FIB().Set(fibRouteTo(c.Nodes[1].Addr))
		c.Nodes[0].Sys.Filter().SendData(c.Nodes[1].Addr, []byte("x"))
		c.Run(10 * time.Millisecond)
		mu.Lock()
		want := 0
		if feedback {
			want = 1
		}
		if lost != want {
			t.Fatalf("feedback %v: lost = %d, want %d", feedback, lost, want)
		}
		mu.Unlock()
		if st, ok := ds[0].Table().StatusOf(c.Nodes[1].Addr); !ok || (st == StatusLost) != feedback {
			t.Fatalf("feedback %v: neighbour state = %v", feedback, st)
		}
	}
}

func TestPiggybacking(t *testing.T) {
	c, ds := deployDetectors(t, 2)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	const tlvType = 200
	ds[0].Piggyback(tlvType, func() []byte { return []byte("route-hints") })
	var mu sync.Mutex
	var got []string
	ds[1].OnPiggyback(tlvType, func(src mnet.Addr, v []byte) {
		mu.Lock()
		got = append(got, src.String()+"="+string(v))
		mu.Unlock()
	})
	c.Run(HelloInterval + HelloInterval/2)
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("piggybacked TLV never arrived")
	}
	want := c.Nodes[0].Addr.String() + "=route-hints"
	if got[0] != want {
		t.Fatalf("got %q want %q", got[0], want)
	}
}

func TestStatusString(t *testing.T) {
	if StatusHeard.String() != "heard" || StatusSymmetric.String() != "symmetric" ||
		StatusLost.String() != "lost" || Status(9).String() != "unknown" {
		t.Fatal("Status names wrong")
	}
}

func fibRouteTo(a mnet.Addr) route.FIBRoute {
	return route.FIBRoute{Dst: mnet.HostPrefix(a), NextHop: a}
}

// TestTwoHopWalkAllocs pins the link set's hot queries at no allocation
// once the caller's storage has room: the 2-hop walk, the links a HELLO
// lists and the symmetric addresses.
func TestTwoHopWalkAllocs(t *testing.T) {
	tb := NewTable()
	self := addr("10.0.0.1")
	for i := uint32(0); i < 8; i++ {
		var two []mnet.Addr
		for j := uint32(0); j < 6; j++ {
			two = append(two, mnet.AddrFrom(0x0a010000+(i*3+j)%20), self)
		}
		tb.Observe(mnet.AddrFrom(0x0a000002+i), i%4 != 0, 3, two, testbed.Epoch)
	}
	walk := tb.AppendTwoHop(nil, self)
	links := tb.AppendNeighbors(nil, false)
	syms := tb.AppendSymmetricAddrs(nil)
	if len(walk) != 36 || len(links) != 8 || len(syms) != 6 {
		t.Fatalf("walk %d steps, %d links, %d symmetric; want 36, 8, 6", len(walk), len(links), len(syms))
	}
	for _, q := range []struct {
		name  string
		query func()
	}{
		{"AppendTwoHop", func() { walk = tb.AppendTwoHop(walk[:0], self) }},
		{"AppendNeighbors", func() { links = tb.AppendNeighbors(links[:0], false) }},
		{"AppendSymmetricAddrs", func() { syms = tb.AppendSymmetricAddrs(syms[:0]) }},
	} {
		if got := testing.AllocsPerRun(100, q.query); got != 0 {
			t.Errorf("%s into warm storage = %.1f allocs, want 0", q.name, got)
		}
	}
}
