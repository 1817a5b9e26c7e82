package neighbor

import (
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/testbed"
)

// TestHelloBytesPinned pins the encoded Neighbour Detection HELLO: message
// TLVs (willingness, validity time, one piggyback) and one link-status
// address TLV per sensed neighbour.
func TestHelloBytesPinned(t *testing.T) {
	d := New("")
	d.Table().Observe(addr("10.0.0.2"), true, 3, nil, testbed.Epoch)
	d.Table().Observe(addr("10.0.0.3"), false, 3, nil, testbed.Epoch)
	d.Table().Observe(addr("10.0.0.4"), true, 3, nil, testbed.Epoch)
	d.Piggyback(200, func() []byte { return []byte("hint") })
	wire, err := packetbb.EncodeMessage(d.BuildHello(addr("10.0.0.1")))
	if err != nil {
		t.Fatal(err)
	}
	const want = "010b003c0a00000101000100120301010301010400001b58c8010468696e74" +
		"0301030a00000203040012010300000102010301010101010302020102"
	if got := hex.EncodeToString(wire); got != want {
		t.Fatalf("HELLO bytes\n got %s\nwant %s", got, want)
	}
}

// helloFrom builds a HELLO from src listing each given address with the
// given link status.
func helloFrom(src mnet.Addr, listed map[mnet.Addr]uint8) *packetbb.Message {
	msg := &packetbb.Message{Type: packetbb.MsgHello, Originator: src, HopLimit: 1, SeqNum: 1}
	if len(listed) == 0 {
		return msg
	}
	var blk packetbb.AddrBlock
	for _, a := range sortedKeys(listed) {
		i := uint8(len(blk.Addrs))
		blk.Addrs = append(blk.Addrs, a)
		blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{Type: packetbb.ATLVLinkStatus, IndexStart: i, IndexStop: i, Value: packetbb.U8(listed[a])})
	}
	msg.AddrBlocks = []packetbb.AddrBlock{blk}
	return msg
}

func sortedKeys(m map[mnet.Addr]uint8) []mnet.Addr {
	var out []mnet.Addr
	for a := range m {
		out = append(out, a)
	}
	slices.SortFunc(out, mnet.Addr.Compare)
	return out
}

// TestNhoodChangeSequencePinned pins the NHOOD_CHANGE events the detector
// emits for one HELLO sequence, step by step: a new neighbour, a new one
// already symmetric, heard→symmetric, a steady HELLO, a 2-hop change, a
// demotion, and expiry.
func TestNhoodChangeSequencePinned(t *testing.T) {
	c, err := testbed.New(1, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	node := c.Nodes[0]
	d := New("")
	if err := node.Mgr.Deploy(d.Protocol()); err != nil {
		t.Fatal(err)
	}
	if err := d.Protocol().Start(); err != nil {
		t.Fatal(err)
	}
	rx := core.NewProtocol("fake-rx")
	rx.SetTuple(event.Tuple{Provided: []event.Type{event.HelloIn}})
	if err := node.Mgr.Deploy(rx); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	node.Mgr.SubscribeContext(event.NhoodChange, func(ev *event.Event) {
		mu.Lock()
		got = append(got, fmt.Sprintf("%v %v %v", ev.Nhood.Kind, ev.Nhood.Neighbor, ev.Nhood.TwoHopVia))
		mu.Unlock()
	})
	self, a, b, two := node.Addr, addr("10.0.1.1"), addr("10.0.1.2"), addr("10.0.1.3")
	sym, heard := packetbb.LinkStatusSymmetric, packetbb.LinkStatusHeard
	steps := []struct {
		name  string
		from  mnet.Addr
		lists map[mnet.Addr]uint8
		want  []string
	}{
		{"new neighbour", a, nil, []string{"appeared 10.0.1.1 []"}},
		{"new and already symmetric", b, map[mnet.Addr]uint8{self: sym, two: sym},
			[]string{"appeared 10.0.1.2 [10.0.1.3]", "symmetric 10.0.1.2 [10.0.1.3]"}},
		{"heard to symmetric", a, map[mnet.Addr]uint8{self: heard}, []string{"symmetric 10.0.1.1 []"}},
		{"steady", a, map[mnet.Addr]uint8{self: heard}, []string{"2hop-changed 10.0.1.1 []"}},
		{"2-hop change", a, map[mnet.Addr]uint8{self: sym, two: sym}, []string{"2hop-changed 10.0.1.1 [10.0.1.3]"}},
		{"demotion", b, map[mnet.Addr]uint8{two: sym}, []string{"2hop-changed 10.0.1.2 [10.0.1.3]"}},
	}
	take := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := got
		got = nil
		return out
	}
	for _, st := range steps {
		if err := rx.Emit(&event.Event{Type: event.HelloIn, Msg: helloFrom(st.from, st.lists), Src: st.from}); err != nil {
			t.Fatal(err)
		}
		if g := take(); fmt.Sprint(g) != fmt.Sprint(st.want) {
			t.Fatalf("%s: NHOOD_CHANGE = %q, want %q", st.name, g, st.want)
		}
	}
	c.Run(HoldTime + HelloInterval)
	if g, want := take(), []string{"lost 10.0.1.1 []", "lost 10.0.1.2 []"}; fmt.Sprint(g) != fmt.Sprint(want) {
		t.Fatalf("expiry: NHOOD_CHANGE = %q, want %q", g, want)
	}
}
