package harness

import (
	"bytes"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/dymo"
	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
	"manetkit/internal/olsr"
	"manetkit/internal/packetbb"
	"manetkit/internal/system"
	"manetkit/internal/testbed"
)

// TestSharedPacketsAreNeverMutated is the canary for the read-only rule on
// event.Event.Msg. Every node that hears a broadcast is handed the same
// decoded packet, so one handler or interposer writing through ev.Msg — a
// HopLimit-- without a Clone — would corrupt what every other receiver
// sees. Each protocol family (and the two OLSR interposer variants) runs on
// a small grid with multi-hop traffic and a mid-run link cut; a tap asks for
// the shared packet of every control delivery before the receivers see it,
// and once the run is over every such packet must still re-encode to
// exactly the bytes that were sent.
//
// Data frames are under the same rule: the forwarder decodes a view of the
// received frame and OnDeliver is handed a view of it, so the tap keeps
// every data frame, the sinks keep every payload, and all of them must
// still read as they did when first seen — a TTL rewritten in place, or a
// sink's append running into the frame, would show here. The sinks' views
// are kept past OnDeliver, which the lending rule allows only because the
// tap is installed for the whole run: the medium then reuses no buffer, so
// this test checks mutation, not lending (emunet's and system's TestLent*
// tests do).
func TestSharedPacketsAreNeverMutated(t *testing.T) {
	const cols, rows = 4, 3
	variants := []struct {
		name, family string
		extra        func(t *testing.T, c *testbed.Cluster, node *testbed.Node)
		wantForward  packetbb.MsgType // a type that must be seen with HopCount > 0
		// wantDrained: some TC must carry a residual-power TLV below 100 %,
		// read from the node's battery.
		wantDrained bool
	}{
		{name: "olsr", family: "olsr", wantForward: packetbb.MsgTC},
		{name: "dymo", family: "dymo", wantForward: packetbb.MsgRREQ},
		{name: "aodv", family: "aodv", wantForward: packetbb.MsgRREQ},
		{name: "zrp", family: "zrp", wantForward: packetbb.MsgRREQ},
		{name: "olsr+fisheye", family: "olsr+fisheye", wantForward: packetbb.MsgTC},
		{name: "olsr+poweraware", wantForward: packetbb.MsgTC, wantDrained: true,
			extra: func(t *testing.T, c *testbed.Cluster, node *testbed.Node) {
				d, err := DeployFamily(c, node, "olsr")
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Set.OLSR().EnablePowerAware(); err != nil {
					t.Fatal(err)
				}
			}},
		// Path accumulation rewrites what it forwards: the one DYMO forward
		// that clones rather than relays.
		{name: "dymo+accumulate", wantForward: packetbb.MsgRREQ,
			extra: func(t *testing.T, c *testbed.Cluster, node *testbed.Node) {
				nd := neighbor.New("")
				d := dymo.New("", dymo.Config{AccumulatePaths: true})
				for _, u := range []*core.Protocol{nd.Protocol(), d.Protocol()} {
					if err := node.Mgr.Deploy(u); err != nil {
						t.Fatal(err)
					}
					if err := u.Start(); err != nil {
						t.Fatal(err)
					}
				}
			}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			c, err := testbed.New(cols*rows, testbed.Options{
				Seed:            3,
				BatteryTemplate: system.NewBattery(1, 0.001, 0.0001, testbed.Epoch),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, node := range c.Nodes {
				if v.extra != nil {
					v.extra(t, c, node)
				} else if _, err := DeployFamily(c, node, v.family); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Grid(cols); err != nil {
				t.Fatal(err)
			}

			// The tap runs before the receiver upcall, so the packet it is
			// handed is the one the System CFs raise their events from.
			sent := map[*packetbb.Packet][]byte{}
			deliveries, forwarded, drained := 0, 0, 0
			type view struct{ live, seen []byte }
			var dataFrames, payloads []view
			c.Net.SetTap(func(f emunet.Frame, _ mnet.Addr) {
				pkt, err := system.DecodeControl(f)
				if err != nil {
					if system.IsDataFrame(f.Payload) {
						dataFrames = append(dataFrames, view{f.Payload, bytes.Clone(f.Payload)})
					}
					return
				}
				deliveries++
				if _, ok := sent[pkt]; ok {
					return
				}
				sent[pkt] = append([]byte(nil), f.Payload[1:]...)
				for i := range pkt.Messages {
					m := &pkt.Messages[i]
					if m.Type == v.wantForward && m.HopCount > 0 {
						forwarded++
					}
					if tlv, ok := m.FindTLV(olsr.TLVResidualPower); ok && m.Type == packetbb.MsgTC {
						if pct, err := packetbb.ParseU8(tlv.Value); err == nil && pct < 100 {
							drained++
						}
					}
				}
			})

			addrs := c.Addrs()
			far := len(addrs) - 1
			for _, sink := range []int{0, far, far - cols + 1} {
				c.Nodes[sink].Sys.Filter().OnDeliver(func(_ mnet.Addr, p []byte) {
					if cap(p) != len(p) {
						t.Errorf("OnDeliver payload has %d bytes of the frame behind it", cap(p)-len(p))
					}
					payloads = append(payloads, view{p, bytes.Clone(p)})
				})
			}
			for step := 0; step < 40; step++ {
				if step == 20 { // break a link under the flows: RERR paths
					c.Net.CutLink(addrs[1], addrs[2])
					c.Net.CutLink(addrs[5], addrs[6])
				}
				_ = c.Nodes[0].Sys.Filter().SendData(addrs[far], []byte("canary"))
				_ = c.Nodes[far].Sys.Filter().SendData(addrs[0], []byte("canary"))
				_ = c.Nodes[cols-1].Sys.Filter().SendData(addrs[far-cols+1], []byte("canary"))
				c.Run(time.Second)
			}
			c.Net.SetTap(nil)

			if len(sent) == 0 || deliveries <= len(sent) {
				t.Fatalf("%d deliveries of %d packets: nothing was shared", deliveries, len(sent))
			}
			if forwarded == 0 {
				t.Fatalf("no forwarded %v seen: the run never exercised a forwarding handler", v.wantForward)
			}
			if v.wantDrained && drained == 0 {
				t.Fatal("no TC carried a drained residual-power TLV: the nodes run without their batteries")
			}
			for pkt, wire := range sent {
				got, err := packetbb.EncodePacket(pkt)
				if err != nil {
					t.Fatalf("shared packet no longer encodes: %v", err)
				}
				if !bytes.Equal(got, wire) {
					t.Fatalf("a handler wrote through a shared packet (%v from %v):\nsent: % x\nnow:  % x",
						pkt.Messages[0].Type, pkt.Messages[0].Originator, wire, got)
				}
			}
			relayed := uint64(0)
			for _, node := range c.Nodes {
				relayed += node.Sys.Stats().DataForwarded
			}
			if relayed == 0 || len(payloads) == 0 || len(dataFrames) <= len(payloads) {
				t.Fatalf("%d data frames, %d relayed, %d delivered: the data path was not exercised", len(dataFrames), relayed, len(payloads))
			}
			for _, v := range append(dataFrames, payloads...) {
				if !bytes.Equal(v.live, v.seen) {
					t.Fatalf("a data frame was written to after delivery:\nseen: % x\nnow:  % x", v.seen, v.live)
				}
			}
			t.Logf("%d deliveries shared %d decoded packets (%d forwarded %v); %d data frames, %d relayed, %d delivered",
				deliveries, len(sent), forwarded, v.wantForward, len(dataFrames), relayed, len(payloads))
		})
	}
}
