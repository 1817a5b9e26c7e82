package olsr

import (
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
)

func TestHNAAdvertiseWithdraw(t *testing.T) {
	c, nodes := deployOLSR(t, 1)
	_ = c
	o := nodes[0].olsr
	p1 := mnet.Prefix{Addr: addr("192.168.0.0"), Bits: 16}
	p2 := mnet.Prefix{Addr: addr("172.16.4.0"), Bits: 24}
	o.AdvertiseNetwork(p1)
	o.AdvertiseNetwork(p2)
	got := o.AttachedNetworks()
	if len(got) != 2 || got[0] != p2 || got[1] != p1 {
		t.Fatalf("AttachedNetworks = %v", got)
	}
	o.WithdrawNetwork(p2)
	if got := o.AttachedNetworks(); len(got) != 1 || got[0] != p1 {
		t.Fatalf("after withdraw = %v", got)
	}
}

func TestBuildHNARoundTrip(t *testing.T) {
	c, nodes := deployOLSR(t, 1)
	_ = c
	o := nodes[0].olsr
	if o.BuildHNA(addr("10.0.0.1")) != nil {
		t.Fatal("HNA built with no attached networks")
	}
	o.AdvertiseNetwork(mnet.Prefix{Addr: addr("192.168.0.0"), Bits: 16})
	msg := o.BuildHNA(addr("10.0.0.1"))
	if msg == nil || msg.Type != packetbb.MsgHNA {
		t.Fatalf("msg = %+v", msg)
	}
	wire, err := packetbb.EncodeMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := packetbb.DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	blk := back.AddrBlocks[0]
	if blk.Addrs[0] != addr("192.168.0.0") || blk.PrefixLens[0] != 16 {
		t.Fatalf("block = %+v", blk)
	}
	if _, ok := blk.AddrTLVFor(packetbb.ATLVGateway, 0); !ok {
		t.Fatal("gateway TLV missing")
	}
}

func TestHNAGatewayRoutingEndToEnd(t *testing.T) {
	c, nodes := deployOLSR(t, 4)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	for _, on := range nodes {
		if err := on.olsr.EnableHNA(0); err != nil {
			t.Fatal(err)
		}
	}
	// The far-end node is a gateway to an attached /16.
	ext := mnet.Prefix{Addr: addr("192.168.0.0"), Bits: 16}
	nodes[3].olsr.AdvertiseNetwork(ext)
	c.Run(40 * time.Second)

	// Every other node routes the external prefix towards the gateway.
	for i := 0; i < 3; i++ {
		extHost := addr("192.168.77.5")
		e, p, err := nodes[i].olsr.Routes().Lookup(extHost)
		if err != nil {
			t.Fatalf("node %d: no route to external host: %v", i, err)
		}
		if e.Dst != ext {
			t.Fatalf("node %d matched %v, want %v", i, e.Dst, ext)
		}
		// Next hop is the same as towards the gateway; metric one beyond.
		_, gwPath, err := nodes[i].olsr.Routes().Lookup(c.Addrs()[3])
		if err != nil {
			t.Fatal(err)
		}
		if p.NextHop != gwPath.NextHop || p.Metric != gwPath.Metric+1 {
			t.Fatalf("node %d: prefix path %+v vs gateway path %+v", i, p, gwPath)
		}
		// The kernel FIB resolves it too.
		if _, ok := nodes[i].node.FIB().Lookup(extHost); !ok {
			t.Fatalf("node %d: FIB does not resolve external host", i)
		}
	}
}

func TestHNARoutesAgeOutAfterWithdraw(t *testing.T) {
	c, nodes := deployOLSR(t, 2)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	for _, on := range nodes {
		if err := on.olsr.EnableHNA(0); err != nil {
			t.Fatal(err)
		}
	}
	ext := mnet.Prefix{Addr: addr("192.168.0.0"), Bits: 16}
	nodes[1].olsr.AdvertiseNetwork(ext)
	c.Run(3 * TCInterval)
	if _, _, err := nodes[0].olsr.Routes().Lookup(addr("192.168.1.1")); err != nil {
		t.Fatal("setup: no external route")
	}
	nodes[1].olsr.WithdrawNetwork(ext)
	// The hold time is 3 × TC interval from the last HNA, which may have
	// left just before the withdrawal.
	c.Run(4 * TCInterval)
	if _, _, err := nodes[0].olsr.Routes().Lookup(addr("192.168.1.1")); err == nil {
		t.Fatal("withdrawn prefix still routed")
	}
}

func TestDisableHNA(t *testing.T) {
	c, nodes := deployOLSR(t, 1)
	_ = c
	o := nodes[0].olsr
	if err := o.EnableHNA(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Protocol().CF().Plug("hna-handler"); !ok {
		t.Fatal("hna-handler not plugged")
	}
	if err := o.DisableHNA(); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Protocol().CF().Plug("hna-handler"); ok {
		t.Fatal("hna-handler still plugged")
	}
	tp := o.Protocol().Tuple()
	if tp.Provides("HNA_OUT") {
		t.Fatal("tuple still provides HNA_OUT")
	}
}
