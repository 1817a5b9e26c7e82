package system

import (
	"bytes"
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

// A received control frame's decode is lent only when every delivery its
// events caused has returned before System.receive does. These tests run
// HELLO handlers off the upcall's stack, where they read their message
// after receive has returned and after the transmission's record has been
// released: the frame must then be kept, or the handler reads the poison
// (or, under -race, races the poisoning write).

// helloBytes is the re-encoded HELLO that helloWire(from, seq) carries.
func helloBytes(t *testing.T, from mnet.Addr, seq uint16) []byte {
	t.Helper()
	pkt, err := packetbb.DecodePacket(helloWire(t, from, seq)[1:])
	if err != nil {
		t.Fatal(err)
	}
	b, err := packetbb.EncodeMessage(&pkt.Messages[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// asyncHello deploys on n a HELLO consumer that runs off the upcall's stack
// (the whole node under PerN, or the consumer on a dedicated thread). Each
// handler calls wait, then re-encodes the message it was handed and passes
// the bytes to got, with the message's sequence number.
func asyncHello(t *testing.T, n *node, dedicated bool, wait func(), got func(seq uint16, wire []byte, err error)) {
	t.Helper()
	if !dedicated {
		if err := n.mgr.SetModel(core.PerN); err != nil {
			t.Fatal(err)
		}
	}
	p := helloConsumer(t, n, func(ev *event.Event) {
		wait()
		b, err := packetbb.EncodeMessage(ev.Msg)
		got(ev.Msg.SeqNum, b, err)
	})
	if dedicated {
		if err := n.mgr.EnableDedicatedThread(p.Name()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLentDecodeKeptForAsyncHandlers: one receiver of each broadcast reads
// its message on a pool worker, only once many later broadcasts have been
// delivered, their records released and reused; its siblings read theirs
// inline. Every message the late handler reads re-encodes to what was sent.
func TestLentDecodeKeptForAsyncHandlers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dedicated bool
	}{{"PerN", false}, {"dedicated", true}} {
		t.Run(tc.name, func(t *testing.T) {
			net, clk, nodes := newTestNet(t, 4)
			star(t, net, nodes)
			gate := make(chan struct{})
			var mu sync.Mutex
			late := map[uint16][]byte{}
			asyncHello(t, nodes[1], tc.dedicated, func() { <-gate }, func(seq uint16, wire []byte, err error) {
				if err != nil {
					t.Errorf("a late-read message does not re-encode: %v", err)
				}
				mu.Lock()
				late[seq] = wire
				mu.Unlock()
			})
			inline := 0
			for _, n := range nodes[2:] {
				helloConsumer(t, n, func(*event.Event) { inline++ })
			}
			const sends = 12
			for seq := uint16(1); seq <= sends; seq++ {
				if err := nodes[0].sys.NIC().Send(mnet.Broadcast, helloWire(t, nodes[0].addr, seq)); err != nil {
					t.Fatal(err)
				}
				// A data frame between the broadcasts takes a recycled record.
				if err := nodes[2].sys.NIC().Send(nodes[0].addr, bytes.Repeat([]byte{wireData}, 40)); err != nil {
					t.Fatal(err)
				}
				clk.Advance(10 * time.Millisecond)
			}
			if inline != sends*2 {
				t.Fatalf("%d inline deliveries, want %d", inline, sends*2)
			}
			close(gate)
			nodes[1].mgr.WaitIdle()
			mu.Lock()
			defer mu.Unlock()
			if len(late) != sends {
				t.Fatalf("the late handler read %d distinct messages, want %d: %v", len(late), sends, late)
			}
			for seq := uint16(1); seq <= sends; seq++ {
				if want := helloBytes(t, nodes[0].addr, seq); !bytes.Equal(late[seq], want) {
					t.Fatalf("HELLO %d read late re-encodes as % x, want % x", seq, late[seq], want)
				}
			}
		})
	}
}

// TestLentDecodeKeptForAsyncHandlersRealClock is the same on the real
// clock, where the epochs run on timer goroutines: two receivers under PerN,
// two with the consumer on a dedicated thread and two single-threaded, each
// asynchronous handler reading its message a little after the upcall that
// raised it. Under -race a lent decode read this late races its poisoning.
func TestLentDecodeKeptForAsyncHandlersRealClock(t *testing.T) {
	const broadcasts = 40
	net := emunet.New(vclock.Real(), 1)
	nodes := attachNodes(t, net, vclock.Real(), 7)
	q := emunet.DefaultQuality()
	q.Delay = 100 * time.Microsecond
	for _, n := range nodes[1:] {
		if err := net.SetLink(nodes[0].addr, n.addr, q); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]byte, broadcasts+1)
	for seq := uint16(1); seq <= broadcasts; seq++ {
		want[seq] = helloBytes(t, nodes[0].addr, seq)
	}
	var wg sync.WaitGroup
	wg.Add(len(nodes[1:]) * broadcasts)
	check := func(seq uint16, wire []byte, err error) {
		defer wg.Done()
		if err != nil || int(seq) >= len(want) || !bytes.Equal(wire, want[seq]) {
			t.Errorf("HELLO %d re-encodes as % x (%v)", seq, wire, err)
		}
	}
	late := func() { time.Sleep(200 * time.Microsecond) } // past the upcall
	for i, n := range nodes[1:5] {
		asyncHello(t, n, i%2 == 1, late, check)
	}
	for _, n := range nodes[5:] {
		helloConsumer(t, n, func(ev *event.Event) {
			b, err := packetbb.EncodeMessage(ev.Msg)
			check(ev.Msg.SeqNum, b, err)
		})
	}
	for seq := uint16(1); seq <= broadcasts; seq++ {
		if err := nodes[0].sys.NIC().Send(mnet.Broadcast, helloWire(t, nodes[0].addr, seq)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deliveries still outstanding after 30s")
	}
}

// TestReceivedControlAllocs pins a received control frame at no allocation
// once the medium's free lists are warm: its bytes come from a recycled
// record, its decode is built in a released one's room, and each receiver's
// HELLO_IN is borrowed.
func TestReceivedControlAllocs(t *testing.T) {
	net, clk, nodes := newTestNet(t, 3)
	star(t, net, nodes)
	rx := 0
	for _, n := range nodes[1:] {
		helloConsumer(t, n, func(ev *event.Event) {
			if !ev.Msg.Poisoned() {
				rx++
			}
		})
	}
	wire := helloWire(t, nodes[0].addr, 1)
	send := func() {
		if err := nodes[0].sys.NIC().Send(mnet.Broadcast, wire); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Millisecond)
	}
	send()
	if got := testing.AllocsPerRun(50, send); got != 0 {
		t.Fatalf("a received HELLO = %.1f allocs, want 0", got)
	}
	if rx != 2*52 {
		t.Fatalf("%d HELLOs handled, want %d", rx, 2*52)
	}
}
