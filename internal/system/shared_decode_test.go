package system

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/vclock"
)

// star links nodes[0] to every other node.
func star(t *testing.T, net *emunet.Network, nodes []*node) {
	t.Helper()
	for _, n := range nodes[1:] {
		if err := net.SetLink(nodes[0].addr, n.addr, emunet.DefaultQuality()); err != nil {
			t.Fatal(err)
		}
	}
}

// helloConsumer deploys a HELLO_IN handler on n that hands every received
// event to got.
func helloConsumer(t *testing.T, n *node, got func(*event.Event)) *core.Protocol {
	t.Helper()
	p := core.NewProtocol("consumer")
	p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	err := p.AddHandler(core.NewHandler("h", event.HelloIn, func(_ *core.Context, ev *event.Event) error {
		got(ev)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.mgr.Deploy(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func helloWire(t *testing.T, from mnet.Addr, seq uint16) []byte {
	t.Helper()
	wire, err := packetbb.EncodePacket(&packetbb.Packet{SeqNum: seq, HasSeqNum: true, Messages: []packetbb.Message{{
		Type: packetbb.MsgHello, Originator: from, SeqNum: seq,
		TLVs: []packetbb.TLV{{Type: packetbb.TLVValidityTime, Value: packetbb.U32(6000)}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{wireControl}, wire...)
}

// TestBroadcastDecodedOncePerTransmission: while a transmission is live,
// every receiver of it is handed the same *packetbb.Message, and each still
// counts its own CtrlReceived. A second transmission of the same bytes is
// decoded again, into the first one's released packet: its receivers read
// the message that was sent, not the poison.
func TestBroadcastDecodedOncePerTransmission(t *testing.T) {
	net, clk, nodes := newTestNet(t, 6)
	star(t, net, nodes)
	var got []*packetbb.Message // single-threaded model on a virtual clock: no lock needed
	for _, n := range nodes[1:] {
		helloConsumer(t, n, func(ev *event.Event) {
			if ev.Msg.Poisoned() || ev.Msg.SeqNum != 7 || ev.Msg.Originator != nodes[0].addr {
				t.Errorf("%v was handed %+v, want the HELLO that was sent", n.addr, ev.Msg)
			}
			got = append(got, ev.Msg)
		})
	}
	frame := helloWire(t, nodes[0].addr, 7)
	for i := 0; i < 2; i++ {
		if err := nodes[0].sys.NIC().Send(mnet.Broadcast, frame); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Millisecond)
	}
	rx := len(nodes) - 1
	if len(got) != 2*rx {
		t.Fatalf("%d events delivered, want %d", len(got), 2*rx)
	}
	for i, m := range got {
		if first := got[i/rx*rx]; m != first {
			t.Fatalf("receiver %d of transmission %d got its own decode (%p, first receiver %p)", i%rx, i/rx, m, first)
		}
	}
	if got[0] != got[rx] {
		t.Fatal("the second transmission did not reuse the first one's released decode")
	}
	if !got[0].Poisoned() {
		t.Fatalf("a released decode reads %+v, want the poison", got[0])
	}
	for _, n := range nodes[1:] {
		if st := n.sys.Stats(); st.CtrlReceived != 2 || st.DecodeErrors != 0 {
			t.Fatalf("%v: stats %+v, want 2 received", n.addr, st)
		}
	}
}

// TestSharedDecodeErrorCountedPerReceiver: a transmission that does not
// decode is rejected once, and every receiver counts the error.
func TestSharedDecodeErrorCountedPerReceiver(t *testing.T) {
	net, clk, nodes := newTestNet(t, 4)
	star(t, net, nodes)
	frame := helloWire(t, nodes[0].addr, 1)
	if err := nodes[0].sys.NIC().Send(mnet.Broadcast, frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	for _, n := range nodes[1:] {
		if st := n.sys.Stats(); st.DecodeErrors != 1 || st.CtrlReceived != 0 {
			t.Fatalf("%v: stats %+v, want 1 decode error", n.addr, st)
		}
	}
}

// TestFaultInjectionDetachesSharedDecode floods a star with broadcasts while
// the medium corrupts and duplicates deliveries, and compares every receiver
// with a reference that decodes each delivery privately from a copy of its
// own bytes: same DecodeErrors, same CtrlReceived, and the same messages in
// the same order. A mangled copy that reused its siblings' decode would
// deliver the clean message (and miss its decode error); one that poisoned
// the slot would deliver garbage to the clean siblings.
func TestFaultInjectionDetachesSharedDecode(t *testing.T) {
	net, clk, nodes := newTestNet(t, 7)
	star(t, net, nodes)
	emunet.NewFaultPlan(11).
		CorruptFrames(0, time.Hour, 0.3).
		DuplicateFrames(0, time.Hour, 0.3).
		Apply(net)

	type outcome struct {
		errs, ok uint64
		msgs     [][]byte // re-encoded messages, in delivery order
	}
	encode := func(m *packetbb.Message) []byte {
		b, err := packetbb.EncodeMessage(m)
		if err != nil {
			t.Fatalf("re-encoding a delivered message: %v", err)
		}
		return b
	}
	want := map[mnet.Addr]*outcome{}
	got := map[mnet.Addr]*outcome{}
	for _, n := range nodes[1:] {
		want[n.addr], got[n.addr] = &outcome{}, &outcome{}
		o := got[n.addr]
		helloConsumer(t, n, func(ev *event.Event) { o.msgs = append(o.msgs, encode(ev.Msg)) })
	}
	var corrupted, shared int
	seen := map[*packetbb.Packet]bool{}
	net.SetTap(func(f emunet.Frame, rcv mnet.Addr) {
		if f.Corrupted {
			corrupted++
		}
		o := want[rcv]
		if len(f.Payload) == 0 || (f.Payload[0] != wireControl && f.Payload[0] != wireData) {
			o.errs++
			return
		}
		if f.Payload[0] == wireData { // a discriminator flipped into the data path
			if _, err := decodeData(f.Payload); err != nil {
				o.errs++
			}
			return
		}
		pkt, err := packetbb.DecodePacket(append([]byte(nil), f.Payload[1:]...))
		if err != nil {
			o.errs++
			return
		}
		o.ok++
		for i := range pkt.Messages {
			if inEventType(pkt.Messages[i].Type) == event.HelloIn {
				o.msgs = append(o.msgs, encode(&pkt.Messages[i]))
			}
		}
		if p, err := DecodeControl(f); err == nil {
			if seen[p] {
				shared++
				if f.Corrupted {
					t.Errorf("corrupted delivery to %v shares its siblings' decode", rcv)
				}
			}
			seen[p] = true
		}
	})

	for seq := uint16(1); seq <= 300; seq++ {
		if err := nodes[0].sys.NIC().Send(mnet.Broadcast, helloWire(t, nodes[0].addr, seq)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Millisecond)
	}
	if st := net.Stats(); st.Corrupted == 0 || st.Duplicated == 0 || corrupted == 0 || shared == 0 {
		t.Fatalf("fixture too tame: medium %+v, %d corrupted and %d shared deliveries seen", st, corrupted, shared)
	}
	var errs uint64
	for _, n := range nodes[1:] {
		w, g := want[n.addr], got[n.addr]
		st := n.sys.Stats()
		if st.DecodeErrors != w.errs || st.CtrlReceived != w.ok {
			t.Errorf("%v: DecodeErrors/CtrlReceived = %d/%d, decode-per-receiver reference %d/%d",
				n.addr, st.DecodeErrors, st.CtrlReceived, w.errs, w.ok)
		}
		if len(g.msgs) != len(w.msgs) {
			t.Errorf("%v: %d messages delivered, reference %d", n.addr, len(g.msgs), len(w.msgs))
			continue
		}
		for i := range g.msgs {
			if !bytes.Equal(g.msgs[i], w.msgs[i]) {
				t.Errorf("%v: message %d is % x, its own bytes say % x", n.addr, i, g.msgs[i], w.msgs[i])
				break
			}
		}
		errs += st.DecodeErrors
	}
	if errs == 0 {
		t.Fatal("no corrupted delivery failed to decode: the comparison proved nothing")
	}
}

// TestSharedDecodeConcurrentReceivers runs the arrangement in which the
// handlers of one broadcast's receivers really are concurrent: the medium
// on a real clock delivers the broadcast to each receiver in turn, and each
// node's consumer runs on its own dedicated-queue goroutine, so under -race
// the read-only rule is exercised: every handler reads all of the shared
// message while its siblings do the same. (emunet's
// TestDecodedOnceAcrossGoroutines races the decode itself.)
func TestSharedDecodeConcurrentReceivers(t *testing.T) {
	const receivers, broadcasts = 24, 40
	net := emunet.New(vclock.Real(), 1)
	nodes := attachNodes(t, net, vclock.Real(), receivers+1)
	addrs := emunet.Addrs(receivers + 1)
	q := emunet.DefaultQuality()
	q.Delay = 100 * time.Microsecond
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		byseq = map[uint16]map[*packetbb.Message]int{}
	)
	wg.Add(receivers * broadcasts)
	for _, n := range nodes[1:] {
		if err := net.SetLink(addrs[0], n.addr, q); err != nil {
			t.Fatal(err)
		}
		p := helloConsumer(t, n, func(ev *event.Event) {
			defer wg.Done()
			if _, err := packetbb.EncodeMessage(ev.Msg); err != nil { // reads every field
				t.Errorf("shared message does not re-encode: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if byseq[ev.Msg.SeqNum] == nil {
				byseq[ev.Msg.SeqNum] = map[*packetbb.Message]int{}
			}
			byseq[ev.Msg.SeqNum][ev.Msg]++
		})
		if err := n.mgr.EnableDedicatedThread(p.Name()); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint16(1); seq <= broadcasts; seq++ {
		if err := nodes[0].sys.NIC().Send(mnet.Broadcast, helloWire(t, addrs[0], seq)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deliveries still outstanding after 30s")
	}
	mu.Lock()
	defer mu.Unlock()
	for seq, ptrs := range byseq {
		if len(ptrs) != 1 {
			t.Errorf("broadcast %d was decoded %d times: %v", seq, len(ptrs), fmt.Sprint(ptrs))
		}
	}
	for _, n := range nodes[1:] {
		if st := n.sys.Stats(); st.CtrlReceived != broadcasts || st.DecodeErrors != 0 {
			t.Errorf("%v: stats %+v, want %d received", n.addr, st, broadcasts)
		}
	}
}

// TestLentDecodedControlSurvivesReuse: a HELLO consumer keeps every message
// it is handed past its handler, once as a clone and once as the pointer it
// was handed. The message points into the packet decoded from the medium's
// lent buffer, which is lent with it: once the records of those
// transmissions have been reused by many later sends, every clone still
// re-encodes to what was sent, and every message kept uncloned reads the
// poison.
func TestLentDecodedControlSurvivesReuse(t *testing.T) {
	net, clk, nodes := newTestNet(t, 4)
	star(t, net, nodes)
	var clones, uncloned []*packetbb.Message
	for _, n := range nodes[1:] {
		helloConsumer(t, n, func(ev *event.Event) {
			clones = append(clones, ev.Msg.Clone())
			uncloned = append(uncloned, ev.Msg)
		})
	}
	const sends = 100
	for seq := uint16(1); seq <= sends; seq++ {
		if err := nodes[0].sys.NIC().Send(mnet.Broadcast, helloWire(t, nodes[0].addr, seq)); err != nil {
			t.Fatal(err)
		}
		// Data frames between the broadcasts take the recycled records.
		if err := nodes[1].sys.NIC().Send(nodes[0].addr, bytes.Repeat([]byte{wireData}, 40)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Millisecond)
	}
	if len(clones) != sends*(len(nodes)-1) {
		t.Fatalf("%d messages kept, want %d", len(clones), sends*(len(nodes)-1))
	}
	for i, m := range clones {
		got, err := packetbb.EncodeMessage(m)
		if err != nil {
			t.Fatalf("cloned message %d no longer encodes: %v", i, err)
		}
		if w := helloBytes(t, nodes[0].addr, uint16(1+i/(len(nodes)-1))); !bytes.Equal(got, w) {
			t.Fatalf("cloned message %d re-encodes as % x, want % x", i, got, w)
		}
	}
	for i, m := range uncloned {
		if !m.Poisoned() {
			t.Fatalf("message %d kept uncloned reads %+v, want the poison", i, m)
		}
	}
}
