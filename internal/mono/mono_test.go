package mono

import (
	"testing"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/vclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func lineNet(t *testing.T, n int) (*vclock.Virtual, *emunet.Network, []*emunet.NIC) {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	net := emunet.New(clk, 1)
	addrs := emunet.Addrs(n)
	if err := emunet.BuildLine(net, addrs, emunet.DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	nics := make([]*emunet.NIC, n)
	for i, a := range addrs {
		nic, ok := net.NIC(a)
		if !ok {
			t.Fatal("missing NIC")
		}
		nics[i] = nic
	}
	return clk, net, nics
}

func TestMonoOLSRConvergesOnLine(t *testing.T) {
	clk, _, nics := lineNet(t, 5)
	nodes := make([]*OLSR, 5)
	for i, nic := range nics {
		nodes[i] = NewOLSR(nic, clk, OLSRConfig{})
		nodes[i].Start()
		defer nodes[i].Stop()
	}
	clk.Advance(30 * time.Second)
	addrs := emunet.Addrs(5)
	for i, n := range nodes {
		if got := n.RouteCount(); got != 4 {
			t.Fatalf("node %d has %d routes", i, got)
		}
		for j, dst := range addrs {
			if i == j {
				continue
			}
			h, ok := n.Lookup(dst)
			if !ok {
				t.Fatalf("node %d: no route to %v", i, dst)
			}
			want := j - i
			if want < 0 {
				want = -want
			}
			if h.Metric != want {
				t.Fatalf("node %d -> %v metric %d, want %d", i, dst, h.Metric, want)
			}
		}
	}
}

func TestMonoOLSRExpiresNeighbors(t *testing.T) {
	clk, net, nics := lineNet(t, 2)
	a := NewOLSR(nics[0], clk, OLSRConfig{})
	b := NewOLSR(nics[1], clk, OLSRConfig{})
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()
	clk.Advance(10 * time.Second)
	if a.RouteCount() != 1 {
		t.Fatal("setup: no route")
	}
	net.CutLink(emunet.Addrs(2)[0], emunet.Addrs(2)[1])
	clk.Advance(10 * time.Second)
	if a.RouteCount() != 0 {
		t.Fatal("route survived link cut")
	}
}

func TestMonoDYMODiscovery(t *testing.T) {
	clk, _, nics := lineNet(t, 5)
	nodes := make([]*DYMO, 5)
	for i, nic := range nics {
		nodes[i] = NewDYMO(nic, clk, DYMOConfig{})
		nodes[i].Start()
		defer nodes[i].Stop()
	}
	addrs := emunet.Addrs(5)
	var outcome []bool
	nodes[0].Discover(addrs[4], func(ok bool) { outcome = append(outcome, ok) })
	clk.Advance(time.Second)
	if len(outcome) != 1 || !outcome[0] {
		t.Fatalf("outcome = %v", outcome)
	}
	h, ok := nodes[0].Lookup(addrs[4])
	if !ok || h.Metric != 4 || h.NextHop != addrs[1] {
		t.Fatalf("route = %+v, %v", h, ok)
	}
	// Reverse route at the target.
	if h, ok := nodes[4].Lookup(addrs[0]); !ok || h.NextHop != addrs[3] {
		t.Fatalf("reverse = %+v, %v", h, ok)
	}
	// Second discovery is served from the table, immediately.
	served := false
	nodes[0].Discover(addrs[4], func(ok bool) { served = ok })
	if !served {
		t.Fatal("cached route not used")
	}
}

func TestMonoDYMOGivesUpUnreachable(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	net := emunet.New(clk, 1)
	addrs := emunet.Addrs(2)
	nicA, _ := net.Attach(addrs[0])
	if _, err := net.Attach(addrs[1]); err != nil {
		t.Fatal(err)
	}
	// No link between them.
	d := NewDYMO(nicA, clk, DYMOConfig{})
	d.Start()
	defer d.Stop()
	var outcome []bool
	d.Discover(addrs[1], func(ok bool) { outcome = append(outcome, ok) })
	// Three RREQs wait 1, 2 and 4 s: the discovery fails at 7 s, not before.
	clk.Advance(7*time.Second - time.Millisecond)
	if len(outcome) != 0 {
		t.Fatalf("outcome before the schedule ran out = %v", outcome)
	}
	clk.Advance(2 * time.Millisecond)
	if len(outcome) != 1 || outcome[0] {
		t.Fatalf("outcome = %v", outcome)
	}
}

func TestMonoDYMORoutesExpire(t *testing.T) {
	clk, _, nics := lineNet(t, 2)
	a := NewDYMO(nics[0], clk, DYMOConfig{RouteLifetime: time.Second})
	b := NewDYMO(nics[1], clk, DYMOConfig{RouteLifetime: time.Second})
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()
	addrs := emunet.Addrs(2)
	a.Discover(addrs[1], nil)
	clk.Advance(200 * time.Millisecond)
	if _, ok := a.Lookup(addrs[1]); !ok {
		t.Fatal("no route after discovery")
	}
	clk.Advance(3 * time.Second)
	if _, ok := a.Lookup(addrs[1]); ok {
		t.Fatal("route never expired")
	}
}

func TestSerialOlder(t *testing.T) {
	if !serialOlder(1, 2) || serialOlder(2, 1) || serialOlder(3, 3) || !serialOlder(65000, 10) {
		t.Fatal("serialOlder broken")
	}
}

// TestMonoOLSRForgetsANSNWithItsTuples mirrors the kit's
// TestANSNMemoryExpiresWithRecord: the ANSN remembered for an originator
// dies with the validity of the last TC accepted from it, so a restarted
// originator (ANSN back at 0) is heard again after one hold time.
func TestMonoOLSRForgetsANSNWithItsTuples(t *testing.T) {
	clk, _, nics := lineNet(t, 2)
	a := NewOLSR(nics[0], clk, OLSRConfig{})
	b := NewOLSR(nics[1], clk, OLSRConfig{})
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()
	clk.Advance(10 * time.Second) // b becomes a symmetric neighbour of a
	from := nics[1].Addr()
	orig, d1, d2 := mnet.AddrFrom(0x0a000063), mnet.AddrFrom(0x0a000064), mnet.AddrFrom(0x0a000065)
	tc := func(ansn uint16, seq uint16, dst mnet.Addr) *packetbb.Message {
		return &packetbb.Message{
			Type: packetbb.MsgTC, Originator: orig, HopLimit: 1, SeqNum: seq,
			TLVs:       []packetbb.TLV{{Type: packetbb.TLVANSN, Value: packetbb.U16(ansn)}},
			AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{dst}}},
		}
	}
	has := func(dst mnet.Addr) bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		_, ok := a.topo[[2]mnet.Addr{orig, dst}]
		return ok
	}
	a.HandleTC(tc(17, 1, d1), from)
	if !has(d1) {
		t.Fatal("first TC not recorded")
	}
	hold := 3 * a.cfg.TCInterval
	clk.Advance(hold - time.Second)
	a.HandleTC(tc(0, 2, d2), from)
	if has(d2) {
		t.Fatal("ANSN 0 accepted while the ANSN-17 tuples are still valid")
	}
	clk.Advance(2 * time.Second) // the sweep runs every second
	a.HandleTC(tc(0, 3, d2), from)
	if !has(d2) {
		t.Fatal("ANSN 0 rejected after the ANSN-17 tuples timed out")
	}
}
