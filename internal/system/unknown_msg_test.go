package system_test

import (
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/dymo"
	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/mpr"
	"manetkit/internal/neighbor"
	"manetkit/internal/olsr"
	"manetkit/internal/packetbb"
	"manetkit/internal/system"
	"manetkit/internal/testbed"
)

// TestHNAMessageIsUnknownToEveryNode: no protocol here sends or handles
// OLSR's host-and-network association. A type-3 message announcing a /16
// under the gateway flag (address-block TLV 6 in RFC 3626's HNA), sent
// through the medium to an OLSR node and a DYMO node, is an unknown
// message to both: neither installs a route or relays it, and DYMO's
// unsupported-element handler counts it once.
func TestHNAMessageIsUnknownToEveryNode(t *testing.T) {
	c, err := testbed.New(2, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	relay := mpr.New("")
	o := olsr.New("", relay)
	d := dymo.New("", dymo.Config{})
	for i, units := range [][]*core.Protocol{
		{relay.Protocol(), o.Protocol()},
		{neighbor.New("").Protocol(), d.Protocol()},
	} {
		for _, u := range units {
			if err := c.Nodes[i].Mgr.Deploy(u); err != nil {
				t.Fatal(err)
			}
			if err := u.Start(); err != nil {
				t.Fatal(err)
			}
		}
	}

	gw := mnet.MustParseAddr("10.0.9.9")
	nic, err := c.Net.Attach(gw)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range c.Addrs() {
		if err := c.Net.SetLink(gw, a, emunet.DefaultQuality()); err != nil {
			t.Fatal(err)
		}
	}
	wire, err := packetbb.EncodePacket(&packetbb.Packet{Messages: []packetbb.Message{{
		Type: packetbb.MsgHNA, Originator: gw, HopLimit: 255, SeqNum: 1,
		AddrBlocks: []packetbb.AddrBlock{{
			Addrs:      []mnet.Addr{mnet.MustParseAddr("192.168.0.0")},
			PrefixLens: []uint8{16},
			TLVs:       []packetbb.AddrTLV{{Type: 6}},
		}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte{0x01}, wire...)
	if !system.IsControlFrame(frame) {
		t.Fatal("the frame does not carry the control discriminator")
	}
	relayed := 0
	c.Net.SetTxTap(func(f emunet.Frame) {
		if pkt, err := system.DecodeControl(f); err == nil && f.Src != gw {
			for _, m := range pkt.Messages {
				if m.Type == packetbb.MsgHNA {
					relayed++
				}
			}
		}
	})
	before := make([]uint64, len(c.Nodes))
	for i, n := range c.Nodes {
		before[i] = n.Sys.Stats().CtrlReceived
	}
	if err := nic.Send(mnet.Broadcast, frame); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Second)

	for i, n := range c.Nodes {
		if st := n.Sys.Stats(); st.CtrlReceived <= before[i] || st.DecodeErrors != 0 {
			t.Fatalf("node %v: %d control frames received, %d decode errors; the message did not arrive whole", n.Addr, st.CtrlReceived-before[i], st.DecodeErrors)
		}
		if n.FIB().Len() != 0 {
			t.Errorf("node %v installed FIB routes %v", n.Addr, n.FIB().List())
		}
	}
	if es := append(o.Routes().Entries(), d.Routes().Entries()...); len(es) != 0 {
		t.Errorf("RIB entries installed: %v", es)
	}
	if relayed != 0 {
		t.Errorf("the nodes relayed the message %d times", relayed)
	}
	if got := d.State().Stats().Unsupported; got != 1 {
		t.Errorf("DYMO counted %d unsupported messages, want 1", got)
	}
}
