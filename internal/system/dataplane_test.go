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
	"manetkit/internal/route"
)

// staticLine wires nodes into a line with static host routes towards the
// last node, so data crosses filter, medium and engine with no routing
// protocol deployed.
func staticLine(net *emunet.Network, nodes []*node) {
	last := nodes[len(nodes)-1].addr
	for i := 0; i+1 < len(nodes); i++ {
		net.SetLink(nodes[i].addr, nodes[i+1].addr, emunet.DefaultQuality())
		nodes[i].sys.FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(last), NextHop: nodes[i+1].addr})
	}
}

// TestForwardedHopAllocs pins one forwarded hop — decode, FIB look-up,
// re-encode, unicast with MAC feedback, ROUTE_UPDATE, engine epoch and
// anchor re-arm — at no allocation: the medium lends the frame's bytes from
// a recycled transmission record, the ROUTE_UPDATE event is borrowed and
// recycled when its last delivery returns, and the MAC verdict reaches the
// filter's one callback by value.
// The hop is isolated as (0→2 over the relay) − (1→2 direct): both
// originate once and deliver once, only the first forwards. The counts are
// pinned exactly, so one escaping object anywhere on the path fails.
func TestForwardedHopAllocs(t *testing.T) {
	net, clk, nodes := newTestNet(t, 3)
	staticLine(net, nodes)
	delivered := 0
	nodes[2].sys.Filter().OnDeliver(func(mnet.Addr, []byte) { delivered++ })
	payload := make([]byte, 64)
	send := func(from int) func() {
		return func() {
			if err := nodes[from].sys.Filter().SendData(nodes[2].addr, payload); err != nil {
				t.Fatal(err)
			}
			clk.Advance(10 * time.Millisecond)
		}
	}
	send(0)() // warm the engine's scratch and the timer heap
	viaRelay := testing.AllocsPerRun(200, send(0))
	direct := testing.AllocsPerRun(200, send(1))
	if delivered != 1+201+201 {
		t.Fatalf("delivered %d packets, want %d", delivered, 1+201+201)
	}
	if fwd := nodes[1].sys.Stats().DataForwarded; fwd != 1+201 {
		t.Fatalf("relay forwarded %d packets, want %d", fwd, 1+201)
	}
	hop := viaRelay - direct
	t.Logf("allocs: via relay %.1f, direct %.1f, one forwarded hop %.1f", viaRelay, direct, hop)
	if viaRelay != 0 || direct != 0 {
		t.Fatalf("allocs: via relay %.1f, direct %.1f (one forwarded hop %.1f); want 0, 0 and 0", viaRelay, direct, hop)
	}
}

// BenchmarkForwardedHop times one data packet across a 3-node static line
// per op: originated at the first node, forwarded one hop by the relay,
// delivered at the last. Every node runs a routing stand-in that, like a
// reactive protocol, is the one receiver of ROUTE_UPDATE and extends the
// route's lifetime in its RIB, so each transmission pays for the filter,
// the event's dispatch and handler, the RIB's expiry keys, the medium's
// send, epoch and anchor re-arm, and the MAC verdict.
func BenchmarkForwardedHop(b *testing.B) {
	net, clk, nodes := newTestNet(b, 3)
	staticLine(net, nodes)
	delivered, extended := 0, 0
	for _, n := range nodes {
		rib := route.NewTable(clk)
		rib.Upsert(route.Entry{Dst: mnet.HostPrefix(nodes[2].addr), Valid: true, Proto: "stand-in",
			Paths: []route.Path{{NextHop: nodes[2].addr, Metric: 1, Expires: clk.Now().Add(time.Second)}}})
		p := core.NewProtocol("stand-in")
		p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.RouteUpdate}}})
		p.AddHandler(core.NewHandler("route-update", event.RouteUpdate, func(_ *core.Context, ev *event.Event) error {
			if rib.ExtendLifetime(ev.Route.Dst, mnet.Addr{}, time.Second) {
				extended++
			}
			return nil
		}))
		if err := n.mgr.Deploy(p); err != nil {
			b.Fatal(err)
		}
	}
	nodes[2].sys.Filter().OnDeliver(func(mnet.Addr, []byte) { delivered++ })
	payload := make([]byte, 64)
	send := func() {
		if err := nodes[0].sys.Filter().SendData(nodes[2].addr, payload); err != nil {
			b.Fatal(err)
		}
		clk.Advance(10 * time.Millisecond)
	}
	send() // warm the engine's scratch, the timer heap and the carriers
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		send()
	}
	b.StopTimer()
	if delivered != 1+b.N || extended != 2*(1+b.N) {
		b.Fatalf("delivered %d packets and extended %d lifetimes, want %d and %d", delivered, extended, 1+b.N, 2*(1+b.N))
	}
}

// TestBufferedMapDoesNotLeak: probing many unreachable destinations must
// not leave one empty queue per destination behind once the held packets
// have timed out.
func TestBufferedMapDoesNotLeak(t *testing.T) {
	_, clk, nodes := newTestNet(t, 1)
	nl := nodes[0].sys.filter
	for i := 0; i < 100; i++ {
		dst := mnet.AddrFrom(0x0a640000 + uint32(i))
		for j := 0; j < 3; j++ {
			if err := nodes[0].sys.Filter().SendData(dst, []byte("probe")); err != nil {
				t.Fatal(err)
			}
		}
	}
	nl.mu.Lock()
	held := len(nl.buffered)
	nl.mu.Unlock()
	if held != 100 {
		t.Fatalf("holding queues for %d destinations, want 100", held)
	}
	clk.Advance(6 * time.Second)
	nl.mu.Lock()
	held = len(nl.buffered)
	nl.mu.Unlock()
	if held != 0 {
		t.Fatalf("%d destination queues left after the buffer timeout, want 0", held)
	}
	if st := nodes[0].sys.Stats(); st.DataDropped != 300 || st.DataBuffered != 300 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHeldPacketOwnsItsPayload: SendData may alias the caller's buffer only
// until it returns, so a packet that is held must have copied it.
func TestHeldPacketOwnsItsPayload(t *testing.T) {
	net, clk, nodes := newTestNet(t, 2)
	net.SetLink(nodes[0].addr, nodes[1].addr, emunet.DefaultQuality())
	var got string
	nodes[1].sys.Filter().OnDeliver(func(_ mnet.Addr, p []byte) { got = string(p) })
	buf := []byte("held")
	if err := nodes[0].sys.Filter().SendData(nodes[1].addr, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX") // the application reuses its buffer
	nodes[0].sys.FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(nodes[1].addr), NextHop: nodes[1].addr})
	nodes[0].sys.filter.reinject(nodes[1].addr)
	clk.Advance(10 * time.Millisecond)
	if got != "held" {
		t.Fatalf("delivered %q, want %q", got, "held")
	}
}

// TestSendDataConcurrentWithForwarding: application goroutines originate on
// every node of a line while the clock goroutine forwards; run under -race.
func TestSendDataConcurrentWithForwarding(t *testing.T) {
	net, clk, nodes := newTestNet(t, 4)
	staticLine(net, nodes)
	var mu sync.Mutex
	delivered := 0
	nodes[3].sys.Filter().OnDeliver(func(mnet.Addr, []byte) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	const perSender = 200
	var wg sync.WaitGroup
	for from := 0; from < 3; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			buf := make([]byte, 32)
			for i := 0; i < perSender; i++ {
				buf[0] = byte(i) // the buffer is the caller's again after SendData
				if err := nodes[from].sys.Filter().SendData(nodes[3].addr, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(from)
	}
	stop := make(chan struct{})
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-driven
	clk.Advance(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if delivered != 3*perSender {
		t.Fatalf("delivered %d of %d", delivered, 3*perSender)
	}
}

// TestLentDeliveryReadsPoisonAfterItsCall: OnDeliver is handed a view of
// the received frame, valid until it returns. A sink that keeps it anyway
// reads the medium's poison once the frame's epoch is over, and what it
// copied inside the call stays intact.
func TestLentDeliveryReadsPoisonAfterItsCall(t *testing.T) {
	net, clk, nodes := newTestNet(t, 3)
	staticLine(net, nodes)
	var views, copies [][]byte
	nodes[2].sys.Filter().OnDeliver(func(_ mnet.Addr, p []byte) {
		views = append(views, p)
		copies = append(copies, bytes.Clone(p))
	})
	for i := 0; i < 3; i++ {
		if err := nodes[0].sys.Filter().SendData(nodes[2].addr, []byte(fmt.Sprintf("payload %d", i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Millisecond)
	}
	if len(views) != 3 {
		t.Fatalf("%d packets delivered, want 3", len(views))
	}
	for i, v := range views {
		if len(bytes.Trim(v, "\xde")) != 0 {
			t.Fatalf("payload %d kept past OnDeliver reads %q, want the poison", i, v)
		}
		if want := fmt.Sprintf("payload %d", i); string(copies[i]) != want {
			t.Fatalf("copy %d reads %q, want %q", i, copies[i], want)
		}
	}
}
