package system_test

import (
	"testing"
	"time"

	"manetkit/internal/aodv"
	"manetkit/internal/core"
	"manetkit/internal/dymo"
	"manetkit/internal/mnet"
	"manetkit/internal/mpr"
	"manetkit/internal/neighbor"
	"manetkit/internal/olsr"
	"manetkit/internal/route"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
	"manetkit/internal/zrp"
)

// TestRoutingCFsBindToTheirDeployment: a routing CF built with its zero
// config and deployed by hand beside its helper CF takes its route table's
// clock from the deployment and its FIB and device from the System CF
// beside it. On a virtual-clock line every packet from node 1 reaches
// node 5, over the routes the CF installed in node 1's System-CF FIB. A
// table on any other clock would see every virtual-time lifetime as
// expired.
func TestRoutingCFsBindToTheirDeployment(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() []*core.Protocol // the helper CF, then the routing CF
	}{
		{olsr.UnitName, func() []*core.Protocol {
			relay := mpr.New("")
			return []*core.Protocol{relay.Protocol(), olsr.New("", relay).Protocol()}
		}},
		{dymo.UnitName, func() []*core.Protocol {
			return []*core.Protocol{neighbor.New("").Protocol(), dymo.New("", dymo.Config{}).Protocol()}
		}},
		{aodv.UnitName, func() []*core.Protocol {
			nd := neighbor.New("")
			return []*core.Protocol{nd.Protocol(), aodv.New("", nd, aodv.Config{}).Protocol()}
		}},
		{zrp.UnitName, func() []*core.Protocol {
			relay := mpr.New("")
			return []*core.Protocol{relay.Protocol(), zrp.New("", relay).Protocol()}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := testbed.New(5, testbed.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			for _, node := range c.Nodes {
				for _, u := range tc.build() {
					if err := node.Mgr.Deploy(u); err != nil {
						t.Fatal(err)
					}
					if err := u.Start(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := c.Line(); err != nil {
				t.Fatal(err)
			}
			c.Run(30 * time.Second)

			src, dst := c.Nodes[0], c.Addrs()[4]
			delivered := 0
			c.Nodes[4].Sys.Filter().OnDeliver(func(mnet.Addr, []byte) { delivered++ })
			for i := 0; i < 5; i++ {
				if err := src.Sys.Filter().SendData(dst, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				c.Run(time.Second)
			}
			if delivered != 5 {
				t.Fatalf("delivered %d of 5 packets", delivered)
			}
			r, ok := src.FIB().Lookup(dst)
			if !ok || r.Proto != tc.name || r.Device != src.Sys.NIC().Device() || r.NextHop != c.Addrs()[1] {
				t.Fatalf("node 1's FIB route to node 5 = %+v, %v", r, ok)
			}
		})
	}
}

// TestRoutingCFWithoutSystemCF: on a bare Manager with no System CF the
// route table runs on the Manager's clock and mirrors nowhere.
func TestRoutingCFWithoutSystemCF(t *testing.T) {
	clk := vclock.NewVirtual(testbed.Epoch)
	mgr, err := core.NewManager(core.Config{Node: mnet.AddrFrom(0x0a000001), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	d := dymo.New("", dymo.Config{})
	if err := mgr.Deploy(d.Protocol()); err != nil {
		t.Fatal(err)
	}
	if err := d.Protocol().Start(); err != nil {
		t.Fatal(err)
	}
	dst := mnet.AddrFrom(0x0a000005)
	d.Routes().Upsert(route.Entry{
		Dst: mnet.HostPrefix(dst), Valid: true, Proto: dymo.UnitName,
		Paths: []route.Path{{NextHop: dst, Metric: 1, Expires: clk.Now().Add(time.Second)}},
	})
	if _, _, err := d.Routes().Lookup(dst); err != nil {
		t.Fatalf("a route valid for 1 s on the Manager's clock: %v", err)
	}
	clk.Advance(2 * time.Second)
	if _, _, err := d.Routes().Lookup(dst); err == nil {
		t.Fatal("the route outlived its lifetime on the Manager's clock")
	}
	d.Protocol().Stop()
}
