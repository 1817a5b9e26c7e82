package mpr

import (
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
	"manetkit/internal/packetbb"
	"manetkit/internal/testbed"
)

// TestHelloBytesPinned pins the encoded MPR HELLO: the willingness TLV, one
// link-status address TLV per sensed neighbour, and the ATLVMPR flag on
// each selected relay.
func TestHelloBytesPinned(t *testing.T) {
	m := New("")
	st := m.State()
	st.Links.Observe(addr("10.0.0.2"), true, 3, nil, testbed.Epoch)
	st.Links.Observe(addr("10.0.0.3"), false, 3, nil, testbed.Epoch)
	st.Links.Observe(addr("10.0.0.4"), true, 3, nil, testbed.Epoch)
	st.mu.Lock()
	st.selected = []mnet.Addr{addr("10.0.0.4")}
	st.willingness = 6
	st.mu.Unlock()
	wire, err := packetbb.EncodeMessage(m.BuildHello(addr("10.0.0.1")))
	if err != nil {
		t.Fatal(err)
	}
	const want = "010b00320a0000010100010004030101060301030a000002030400" +
		"1601030000010201030101010101030202010202020202"
	if got := hex.EncodeToString(wire); got != want {
		t.Fatalf("HELLO bytes\n got %s\nwant %s", got, want)
	}
}

// listing is one address a test HELLO lists: its link status and whether
// the sender flags it as relay.
type listing struct {
	addr   mnet.Addr
	status uint8
	relay  bool
}

// helloFrom builds a HELLO from src listing the given addresses in order.
func helloFrom(src mnet.Addr, listed ...listing) *packetbb.Message {
	msg := &packetbb.Message{Type: packetbb.MsgHello, Originator: src, HopLimit: 1, SeqNum: 1}
	if len(listed) == 0 {
		return msg
	}
	var blk packetbb.AddrBlock
	for i, l := range listed {
		blk.Addrs = append(blk.Addrs, l.addr)
		blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{Type: packetbb.ATLVLinkStatus, IndexStart: uint8(i), IndexStop: uint8(i), Value: packetbb.U8(l.status)})
		if l.relay {
			blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{Type: packetbb.ATLVMPR, IndexStart: uint8(i), IndexStop: uint8(i)})
		}
	}
	msg.AddrBlocks = []packetbb.AddrBlock{blk}
	return msg
}

// deployWithReceiver deploys a started MPR CF on a one-node cluster beside
// a unit that injects HELLO_IN events into it.
func deployWithReceiver(t *testing.T) (*testbed.Cluster, *MPR, *core.Protocol) {
	t.Helper()
	c, ms := deployMPRs(t, 1)
	rx := core.NewProtocol("fake-rx")
	rx.SetTuple(event.Tuple{Provided: []event.Type{event.HelloIn}})
	if err := c.Nodes[0].Mgr.Deploy(rx); err != nil {
		t.Fatal(err)
	}
	return c, ms[0], rx
}

// TestNhoodChangeSequencePinned pins the NHOOD_CHANGE events the MPR CF
// emits for one HELLO sequence, step by step: a new neighbour, a new one
// already symmetric, heard→symmetric, a steady HELLO, a 2-hop change, a
// demotion, and expiry.
func TestNhoodChangeSequencePinned(t *testing.T) {
	c, _, rx := deployWithReceiver(t)
	node := c.Nodes[0]
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
		name   string
		from   mnet.Addr
		listed []listing
		want   []string
	}{
		{"new neighbour", a, nil, []string{"appeared 10.0.1.1 []"}},
		{"new and already symmetric", b, []listing{{self, sym, false}, {two, sym, false}}, []string{"appeared 10.0.1.2 [10.0.1.3]"}},
		{"heard to symmetric", a, []listing{{self, heard, false}}, []string{"symmetric 10.0.1.1 []"}},
		{"steady", a, []listing{{self, heard, false}}, nil},
		{"2-hop change", a, []listing{{self, sym, false}, {two, sym, false}}, nil},
		{"demotion", b, []listing{{two, sym, false}}, nil},
	}
	take := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := got
		got = nil
		return out
	}
	for _, st := range steps {
		if err := rx.Emit(&event.Event{Type: event.HelloIn, Msg: helloFrom(st.from, st.listed...), Src: st.from}); err != nil {
			t.Fatal(err)
		}
		if g := take(); fmt.Sprint(g) != fmt.Sprint(st.want) {
			t.Fatalf("%s: NHOOD_CHANGE = %q, want %q", st.name, g, st.want)
		}
	}
	c.Run(neighbor.HoldTime + neighbor.HelloInterval)
	if g, want := take(), []string{"lost 10.0.1.1 []", "lost 10.0.1.2 []"}; fmt.Sprint(g) != fmt.Sprint(want) {
		t.Fatalf("expiry: NHOOD_CHANGE = %q, want %q", g, want)
	}
}

// TestRelayFlagMakesSelector: a HELLO flagging us with ATLVMPR makes its
// sender a selector, a later HELLO without the flag removes it, and losing
// the sender removes it too.
func TestRelayFlagMakesSelector(t *testing.T) {
	c, m, rx := deployWithReceiver(t)
	self, a, other := c.Nodes[0].Addr, addr("10.0.1.1"), addr("10.0.1.9")
	sym := packetbb.LinkStatusSymmetric
	steps := []struct {
		name   string
		listed []listing
		want   bool
	}{
		{"flagged", []listing{{self, sym, true}}, true},
		{"unflagged", []listing{{self, sym, false}}, false},
		{"another address flagged", []listing{{self, sym, false}, {other, sym, true}}, false},
		{"flagged again", []listing{{other, sym, false}, {self, sym, true}}, true},
	}
	for _, st := range steps {
		if err := rx.Emit(&event.Event{Type: event.HelloIn, Msg: helloFrom(a, st.listed...), Src: a}); err != nil {
			t.Fatal(err)
		}
		if got := m.State().IsSelector(a); got != st.want {
			t.Fatalf("%s: IsSelector = %v, want %v", st.name, got, st.want)
		}
	}
	c.Run(neighbor.HoldTime + neighbor.HelloInterval)
	if m.State().IsSelector(a) {
		t.Fatal("an expired neighbour is still a selector")
	}
}
