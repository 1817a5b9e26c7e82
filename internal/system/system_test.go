package system

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/kernel"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/route"
	"manetkit/internal/vclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// node bundles one deployed System CF for tests.
type node struct {
	addr mnet.Addr
	mgr  *core.Manager
	sys  *System
}

func newTestNet(t testing.TB, n int) (*emunet.Network, *vclock.Virtual, []*node) {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	net := emunet.New(clk, 1)
	return net, clk, attachNodes(t, net, clk, n)
}

// attachNodes attaches n nodes to net, each with a started System CF.
func attachNodes(t testing.TB, net *emunet.Network, clk vclock.Clock, n int) []*node {
	t.Helper()
	addrs := emunet.Addrs(n)
	nodes := make([]*node, n)
	for i, a := range addrs {
		nic, err := net.Attach(a)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := core.NewManager(core.Config{Node: a, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mgr.Close)
		sys, err := New(Config{NIC: nic})
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Deploy(sys.Protocol()); err != nil {
			t.Fatal(err)
		}
		if err := sys.Protocol().Start(); err != nil {
			t.Fatal(err)
		}
		nodes[i] = &node{addr: a, mgr: mgr, sys: sys}
	}
	return nodes
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil NIC accepted")
	}
}

func TestControlMessageEndToEnd(t *testing.T) {
	net, clk, nodes := newTestNet(t, 2)
	net.SetLink(nodes[0].addr, nodes[1].addr, emunet.DefaultQuality())

	// A HELLO consumer on node 1. The event ends with its delivery, and the
	// received message it points to with the frame, so the consumer keeps a
	// copy of the one and a clone of the other.
	var mu sync.Mutex
	var got []event.Event
	consumer := core.NewProtocol("nbr")
	consumer.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	consumer.AddHandler(core.NewHandler("h", event.HelloIn, func(ctx *core.Context, ev *event.Event) error {
		mu.Lock()
		kept := *ev
		kept.Msg = ev.Msg.Clone()
		got = append(got, kept)
		mu.Unlock()
		return nil
	}))
	if err := nodes[1].mgr.Deploy(consumer); err != nil {
		t.Fatal(err)
	}

	// A HELLO emitter on node 0.
	emitter := core.NewProtocol("beacon")
	emitter.SetTuple(event.Tuple{Provided: []event.Type{event.HelloOut}})
	if err := nodes[0].mgr.Deploy(emitter); err != nil {
		t.Fatal(err)
	}
	msg := &packetbb.Message{Type: packetbb.MsgHello, Originator: nodes[0].addr, SeqNum: 3}
	if err := emitter.Emit(&event.Event{Type: event.HelloOut, Msg: msg, Dst: mnet.Broadcast}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("consumer got %d events", len(got))
	}
	ev := got[0]
	if ev.Msg.Originator != nodes[0].addr || ev.Msg.SeqNum != 3 || ev.Src != nodes[0].addr {
		t.Fatalf("event = %+v msg = %+v", ev, ev.Msg)
	}
	if nodes[0].sys.Stats().CtrlSent != 1 || nodes[1].sys.Stats().CtrlReceived != 1 {
		t.Fatalf("stats = %+v / %+v", nodes[0].sys.Stats(), nodes[1].sys.Stats())
	}
}

// TestFailedEncodeIsNotCounted: a MSG_OUT whose message does not encode (an
// address block of 256 addresses) fails back to the dispatcher, reaches no
// NIC, and is not counted as sent.
func TestFailedEncodeIsNotCounted(t *testing.T) {
	net, _, nodes := newTestNet(t, 1)
	msg := &packetbb.Message{Type: packetbb.MsgTC, AddrBlocks: []packetbb.AddrBlock{{Addrs: make([]mnet.Addr, 256)}}}
	err := nodes[0].sys.Protocol().Accept(&event.Event{Type: event.MsgOut, Msg: msg, Dst: mnet.Broadcast})
	if !errors.Is(err, packetbb.ErrTooLarge) {
		t.Fatalf("MSG_OUT with 256 addresses: err = %v, want ErrTooLarge", err)
	}
	if st := nodes[0].sys.Stats(); st.CtrlSent != 0 {
		t.Fatalf("CtrlSent = %d after a failed encode, want 0", st.CtrlSent)
	}
	if tx := net.Stats().TxFrames; tx != 0 {
		t.Fatalf("medium carried %d frames after a failed encode, want 0", tx)
	}
}

// TestSendControlAllocs pins a control transmission: the TC is encoded on
// the stack behind its discriminator and the medium copies it into a
// recycled transmission record, so sending it to two receivers that do not
// decode it allocates nothing. (TestReceivedControlAllocs pins the
// receiving side.)
func TestSendControlAllocs(t *testing.T) {
	net, clk, nodes := newTestNet(t, 1)
	for _, a := range []string{"10.0.9.1", "10.0.9.2"} {
		nic, err := net.Attach(mnet.MustParseAddr(a))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetLink(nodes[0].addr, nic.Addr(), emunet.DefaultQuality()); err != nil {
			t.Fatal(err)
		}
	}
	tc := &packetbb.Message{
		Type: packetbb.MsgTC, Originator: nodes[0].addr, HopLimit: 255, SeqNum: 1,
		TLVs:       []packetbb.TLV{{Type: packetbb.TLVANSN, Value: packetbb.U16(1)}},
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{mnet.MustParseAddr("10.0.9.1"), mnet.MustParseAddr("10.0.9.2")}}},
	}
	send := func() {
		if err := nodes[0].sys.sendControl(&event.Event{Type: event.TCOut, Msg: tc, Dst: mnet.Broadcast}); err != nil {
			t.Fatal(err)
		}
		clk.Advance(emunet.DefaultQuality().Delay)
	}
	send() // warm the engine
	if got := testing.AllocsPerRun(200, send); got != 0 {
		t.Fatalf("sendControl(TC) to two receivers = %.1f allocs, want 0", got)
	}
	if st := nodes[0].sys.Stats(); st.CtrlSent != 1+201 {
		t.Fatalf("CtrlSent = %d, want %d", st.CtrlSent, 1+201)
	}
}

func TestInEventTypeMapping(t *testing.T) {
	tests := []struct {
		mt   packetbb.MsgType
		want event.Type
	}{
		{packetbb.MsgHello, event.HelloIn},
		{packetbb.MsgTC, event.TCIn},
		{packetbb.MsgHNA, event.MsgIn},
		{packetbb.MsgRREQ, event.REIn},
		{packetbb.MsgRREP, event.REIn},
		{packetbb.MsgRERR, event.RerrIn},
		{packetbb.MsgType(99), event.MsgIn},
	}
	for _, tt := range tests {
		if got := inEventType(tt.mt); got != tt.want {
			t.Errorf("inEventType(%v) = %v, want %v", tt.mt, got, tt.want)
		}
	}
}

func TestDataPlaneForwardingAndDelivery(t *testing.T) {
	net, clk, nodes := newTestNet(t, 3)
	// Line: 0 - 1 - 2.
	net.SetLink(nodes[0].addr, nodes[1].addr, emunet.DefaultQuality())
	net.SetLink(nodes[1].addr, nodes[2].addr, emunet.DefaultQuality())

	// Static routes: 0 -> 2 via 1; 1 -> 2 direct.
	nodes[0].sys.FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(nodes[2].addr), NextHop: nodes[1].addr})
	nodes[1].sys.FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(nodes[2].addr), NextHop: nodes[2].addr})

	var mu sync.Mutex
	var delivered []string
	nodes[2].sys.Filter().OnDeliver(func(src mnet.Addr, payload []byte) {
		mu.Lock()
		delivered = append(delivered, src.String()+":"+string(payload))
		mu.Unlock()
	})
	if err := nodes[0].sys.Filter().SendData(nodes[2].addr, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 1 || delivered[0] != nodes[0].addr.String()+":ping" {
		t.Fatalf("delivered = %v", delivered)
	}
	if st := nodes[1].sys.Stats(); st.DataForwarded != 1 {
		t.Fatalf("relay stats = %+v", st)
	}
	if st := nodes[2].sys.Stats(); st.DataDelivered != 1 {
		t.Fatalf("dst stats = %+v", st)
	}
}

func TestNoRouteBuffersAndRaisesEvent(t *testing.T) {
	_, clk, nodes := newTestNet(t, 2)
	n := nodes[0]

	// The trigger and its payload end with the emission: keep copies.
	var mu sync.Mutex
	var events []event.Event
	var routes []event.RoutePayload
	n.mgr.SubscribeContext(event.Routing, func(ev *event.Event) {
		mu.Lock()
		events = append(events, *ev)
		routes = append(routes, *ev.Route)
		mu.Unlock()
	})
	if err := n.sys.Filter().SendData(nodes[1].addr, []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle(0) // no timers needed; emission is synchronous
	mu.Lock()
	if len(events) != 1 || events[0].Type != event.NoRoute || routes[0].Dst != nodes[1].addr {
		t.Fatalf("events = %+v, routes = %+v", events, routes)
	}
	mu.Unlock()
	if n.sys.Filter().BufferedCount(nodes[1].addr) != 1 {
		t.Fatal("packet not buffered")
	}
	// Buffer expires when no route ever appears.
	clk.Advance(6 * time.Second)
	if n.sys.Filter().BufferedCount(nodes[1].addr) != 0 {
		t.Fatal("buffered packet not expired")
	}
	if st := n.sys.Stats(); st.DataDropped != 1 || st.DataBuffered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRouteFoundReinjects(t *testing.T) {
	net, clk, nodes := newTestNet(t, 2)
	net.SetLink(nodes[0].addr, nodes[1].addr, emunet.DefaultQuality())
	n := nodes[0]

	var mu sync.Mutex
	var delivered int
	nodes[1].sys.Filter().OnDeliver(func(mnet.Addr, []byte) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	// Two packets held.
	n.sys.Filter().SendData(nodes[1].addr, []byte("a"))
	n.sys.Filter().SendData(nodes[1].addr, []byte("b"))
	if n.sys.Filter().BufferedCount(nodes[1].addr) != 2 {
		t.Fatal("packets not buffered")
	}
	// Discovery completes: install route and raise ROUTE_FOUND, as DYMO
	// would (§5.2).
	n.sys.FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(nodes[1].addr), NextHop: nodes[1].addr})
	reactive := core.NewProtocol("reactive")
	reactive.SetTuple(event.Tuple{Provided: []event.Type{event.RouteFound}})
	if err := n.mgr.Deploy(reactive); err != nil {
		t.Fatal(err)
	}
	reactive.Emit(&event.Event{Type: event.RouteFound, Route: &event.RoutePayload{Dst: nodes[1].addr}})
	clk.Advance(50 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if delivered != 2 {
		t.Fatalf("delivered = %d", delivered)
	}
	if n.sys.Filter().BufferedCount(nodes[1].addr) != 0 {
		t.Fatal("buffer not drained")
	}
}

func TestLinkBreakFeedback(t *testing.T) {
	net, clk, nodes := newTestNet(t, 2)
	net.SetLink(nodes[0].addr, nodes[1].addr, emunet.DefaultQuality())
	n := nodes[0]
	n.sys.FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(nodes[1].addr), NextHop: nodes[1].addr})

	var mu sync.Mutex
	var breaks []event.RoutePayload
	n.mgr.SubscribeContext(event.LinkBreak, func(ev *event.Event) {
		mu.Lock()
		breaks = append(breaks, *ev.Route)
		mu.Unlock()
	})
	// Cut the link, then send: MAC feedback reports failure -> LINK_BREAK.
	net.CutLink(nodes[0].addr, nodes[1].addr)
	n.sys.Filter().SendData(nodes[1].addr, []byte("x"))
	clk.Advance(50 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	want := event.RoutePayload{Dst: nodes[1].addr, Src: n.addr, NextHop: nodes[1].addr}
	if len(breaks) != 1 || breaks[0] != want {
		t.Fatalf("breaks = %+v", breaks)
	}
}

func TestTTLExhaustionDrops(t *testing.T) {
	// Routing loop: 0 and 1 route 2's address at each other.
	net, clk, nodes := newTestNet(t, 3)
	net.SetLink(nodes[0].addr, nodes[1].addr, emunet.DefaultQuality())
	nodes[0].sys.FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(nodes[2].addr), NextHop: nodes[1].addr})
	nodes[1].sys.FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(nodes[2].addr), NextHop: nodes[0].addr})
	nodes[0].sys.Filter().SendData(nodes[2].addr, []byte("loop"))
	clk.Advance(2 * time.Second)
	d0 := nodes[0].sys.Stats().DataDropped + nodes[1].sys.Stats().DataDropped
	if d0 != 1 {
		t.Fatalf("dropped = %d, want 1 (TTL exhaustion)", d0)
	}
}

func TestSysStateFacade(t *testing.T) {
	_, _, nodes := newTestNet(t, 1)
	st, ok := kernelQuerySysState(nodes[0])
	if !ok {
		t.Fatal("ISysState not provided")
	}
	devs := st.Devices()
	if len(devs) != 1 || devs[0].Addr != nodes[0].addr || !devs[0].Up {
		t.Fatalf("Devices = %+v", devs)
	}
	st.RouteAdd(route.FIBRoute{Dst: mnet.HostPrefix(nodes[0].addr), NextHop: nodes[0].addr})
	if len(st.Routes()) != 1 {
		t.Fatal("RouteAdd did not install")
	}
	if !st.RouteDel(nodes[0].addr) {
		t.Fatal("RouteDel failed")
	}
}

func kernelQuerySysState(n *node) (*SysState, bool) {
	return kernel.Query[*SysState](n.sys.Protocol())
}

func TestSysControlInitRoutingEnv(t *testing.T) {
	_, _, nodes := newTestNet(t, 1)
	sc, ok := kernel.Query[*SysControl](nodes[0].sys.Protocol())
	if !ok {
		t.Fatal("ISysControl not provided")
	}
	if sc.Env().IPForwarding {
		t.Fatal("IP forwarding on before init")
	}
	sc.InitRoutingEnv()
	env := sc.Env()
	if !env.IPForwarding || env.ICMPRedirects {
		t.Fatalf("Env = %+v", env)
	}
}

func TestPowerSensorEmitsBatteryLevel(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	net := emunet.New(clk, 1)
	addr := emunet.Addrs(1)[0]
	nic, _ := net.Attach(addr)
	mgr, _ := core.NewManager(core.Config{Node: addr, Clock: clk})
	defer mgr.Close()
	bat := NewBattery(1.0, 0.01, 0, epoch) // 1%/s idle drain
	sys, err := New(Config{NIC: nic, Battery: bat})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Deploy(sys.Protocol())
	var mu sync.Mutex
	var levels []float64
	mgr.SubscribeContext(event.PowerStatus, func(ev *event.Event) {
		mu.Lock()
		levels = append(levels, ev.Power.Fraction)
		mu.Unlock()
	})
	sys.Protocol().Start()
	clk.Advance(3 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(levels) != 3 {
		t.Fatalf("got %d power reports", len(levels))
	}
	if !(levels[0] > levels[1] && levels[1] > levels[2]) {
		t.Fatalf("battery not draining: %v", levels)
	}
}

func TestBatteryModel(t *testing.T) {
	b := NewBattery(0.5, 0.1, 0.05, epoch)
	if got := b.Level(epoch.Add(2 * time.Second)); got < 0.29 || got > 0.31 {
		t.Fatalf("Level after 2s = %f", got)
	}
	b.SpendFrame()
	if got := b.Level(epoch.Add(2 * time.Second)); got < 0.24 || got > 0.26 {
		t.Fatalf("Level after frame = %f", got)
	}
	b.Set(0.01, epoch.Add(2*time.Second))
	if got := b.Level(epoch.Add(100 * time.Second)); got != 0 {
		t.Fatalf("Level floor = %f", got)
	}
	if NewBattery(7, 0, 0, epoch).Level(epoch) != 1 {
		t.Fatal("initial level not clamped")
	}
}

func TestLinkSensorReportsRSSI(t *testing.T) {
	net, clk, nodes := newTestNet(t, 2)
	net.SetLink(nodes[0].addr, nodes[1].addr, emunet.Quality{Delay: time.Millisecond, SignalDBm: -65})
	var mu sync.Mutex
	var infos []event.LinkPayload // copies: a LINK_INFO is borrowed
	nodes[1].mgr.SubscribeContext(event.LinkInfo, func(ev *event.Event) {
		mu.Lock()
		infos = append(infos, *ev.Link)
		mu.Unlock()
	})
	// Node 0 sends a control frame so node 1 learns its RSSI.
	emitter := core.NewProtocol("beacon")
	emitter.SetTuple(event.Tuple{Provided: []event.Type{event.HelloOut}})
	nodes[0].mgr.Deploy(emitter)
	emitter.Emit(&event.Event{
		Type: event.HelloOut,
		Msg:  &packetbb.Message{Type: packetbb.MsgHello, Originator: nodes[0].addr},
		Dst:  mnet.Broadcast,
	})
	clk.Advance(1100 * time.Millisecond) // sensor interval is 1s
	mu.Lock()
	defer mu.Unlock()
	if len(infos) == 0 {
		t.Fatal("no LINK_INFO emitted")
	}
	li := infos[0]
	if li.Neighbor != nodes[0].addr || li.SignalDBm != -65 {
		t.Fatalf("LinkPayload = %+v", li)
	}
	if li.Quality <= 0 || li.Quality >= 1 {
		t.Fatalf("quality %f not in (0,1)", li.Quality)
	}
}

// TestLinkSensorReportsInAddressOrder: a node that hears five neighbours
// reports them in address order on every sensor tick, so a context consumer
// (one that sums link qualities as they arrive) sees the same sequence on
// every run.
func TestLinkSensorReportsInAddressOrder(t *testing.T) {
	const neighbours, ticks = 5, 10
	net, clk, nodes := newTestNet(t, 1+neighbours)
	hub := nodes[0]
	var mu sync.Mutex
	heard := make(map[time.Time][]mnet.Addr) // sensor tick -> neighbours in report order
	hub.mgr.SubscribeContext(event.LinkInfo, func(ev *event.Event) {
		mu.Lock()
		heard[clk.Now()] = append(heard[clk.Now()], ev.Link.Neighbor)
		mu.Unlock()
	})
	for i, nb := range nodes[1:] {
		net.SetLink(hub.addr, nb.addr, emunet.Quality{Delay: time.Millisecond, SignalDBm: -60 - float64(i)})
		beacon := core.NewProtocol("beacon")
		beacon.SetTuple(event.Tuple{Provided: []event.Type{event.HelloOut}})
		if err := nb.mgr.Deploy(beacon); err != nil {
			t.Fatal(err)
		}
		beacon.Emit(&event.Event{
			Type: event.HelloOut,
			Msg:  &packetbb.Message{Type: packetbb.MsgHello, Originator: nb.addr},
			Dst:  mnet.Broadcast,
		})
	}
	clk.Advance(ticks*time.Second + 100*time.Millisecond) // sensor interval is 1s
	mu.Lock()
	defer mu.Unlock()
	if len(heard) != ticks {
		t.Fatalf("LINK_INFO on %d ticks, want %d", len(heard), ticks)
	}
	for at, order := range heard {
		if len(order) != neighbours || !slices.IsSortedFunc(order, mnet.Addr.Compare) {
			t.Fatalf("tick %v reported %v, want all %d neighbours in address order", at.Sub(epoch), order, neighbours)
		}
	}
}

func TestQualityFromRSSIBounds(t *testing.T) {
	if qualityFromRSSI(-100) != 0 || qualityFromRSSI(-20) != 1 {
		t.Fatal("quality clamping broken")
	}
	mid := qualityFromRSSI(-65)
	if mid <= 0 || mid >= 1 {
		t.Fatalf("mid quality = %f", mid)
	}
}

func TestDataCodecRoundTrip(t *testing.T) {
	p := dataPacket{
		Src:     mnet.MustParseAddr("10.0.0.1"),
		Dst:     mnet.MustParseAddr("10.0.0.2"),
		TTL:     7,
		ID:      0xdeadbeefcafe,
		Payload: []byte("payload"),
	}
	wire := appendData(nil, p)
	got, err := decodeData(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != p.Src || got.Dst != p.Dst || got.TTL != p.TTL || got.ID != p.ID || string(got.Payload) != "payload" {
		t.Fatalf("round trip = %+v", got)
	}
	// The payload is a view of the wire bytes, clipped so that an append
	// cannot run into whatever follows them.
	if &got.Payload[0] != &wire[dataHeaderLen] || cap(got.Payload) != len(got.Payload) {
		t.Fatalf("payload is not a capacity-clipped view of the frame (len %d cap %d)", len(got.Payload), cap(got.Payload))
	}
	if _, err := decodeData([]byte{wireData, 1, 2}); err == nil {
		t.Fatal("short data packet accepted")
	}
	if _, err := decodeData(wire[1:]); err == nil {
		t.Fatal("missing discriminator accepted")
	}
}

func TestDecodeErrorsCounted(t *testing.T) {
	net, clk, nodes := newTestNet(t, 2)
	net.SetLink(nodes[0].addr, nodes[1].addr, emunet.DefaultQuality())
	nodes[0].sys.NIC().Send(nodes[1].addr, []byte{wireControl, 0xff, 0xff})
	nodes[0].sys.NIC().Send(nodes[1].addr, []byte{0x77})
	nodes[0].sys.NIC().Send(nodes[1].addr, nil)
	clk.Advance(50 * time.Millisecond)
	if st := nodes[1].sys.Stats(); st.DecodeErrors != 3 {
		t.Fatalf("DecodeErrors = %d", st.DecodeErrors)
	}
}

// retain keeps ev past the delivery it was lent for — the retention the
// ownership rule forbids, reached through a helper ctxleak does not police
// so that the test can watch the poison.
func retain(dst **event.Event, ev *event.Event) { *dst = ev }

// retainMsg keeps a received message past its delivery without cloning it,
// the way retain keeps an event.
func retainMsg(dst **packetbb.Message, m *packetbb.Message) { *dst = m }

// TestBorrowedEventRetentionSeesPoison: the System CF's received events and
// routing triggers are borrowed, so a pointer kept past its delivery reads
// the poison, Route included, and so does the received message it pointed
// to, which is lent with its frame; a clone of it stays what was sent.
func TestBorrowedEventRetentionSeesPoison(t *testing.T) {
	net, clk, nodes := newTestNet(t, 2)
	net.SetLink(nodes[0].addr, nodes[1].addr, emunet.DefaultQuality())

	var hello *event.Event
	var helloMsg, helloClone *packetbb.Message
	consumer := core.NewProtocol("nbr")
	consumer.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	if err := consumer.AddHandler(core.NewHandler("h", event.HelloIn, func(ctx *core.Context, ev *event.Event) error {
		retain(&hello, ev)
		retainMsg(&helloMsg, ev.Msg)
		helloClone = ev.Msg.Clone()
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].mgr.Deploy(consumer); err != nil {
		t.Fatal(err)
	}
	var update *event.Event
	nodes[0].mgr.SubscribeContext(event.RouteUpdate, func(ev *event.Event) { retain(&update, ev) })

	beacon := core.NewProtocol("beacon")
	beacon.SetTuple(event.Tuple{Provided: []event.Type{event.HelloOut}})
	if err := nodes[0].mgr.Deploy(beacon); err != nil {
		t.Fatal(err)
	}
	msg := &packetbb.Message{Type: packetbb.MsgHello, Originator: nodes[0].addr, SeqNum: 3}
	if err := beacon.Emit(&event.Event{Type: event.HelloOut, Msg: msg, Dst: mnet.Broadcast}); err != nil {
		t.Fatal(err)
	}
	nodes[0].sys.FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(nodes[1].addr), NextHop: nodes[1].addr})
	if err := nodes[0].sys.Filter().SendData(nodes[1].addr, []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Millisecond)

	if hello == nil || !hello.Poisoned() || hello.Src == nodes[0].addr {
		t.Fatalf("kept HELLO_IN = %+v, want the poison", hello)
	}
	if helloMsg == nil || !helloMsg.Poisoned() {
		t.Fatalf("kept received message = %+v, want the poison", helloMsg)
	}
	if helloClone.Originator != nodes[0].addr || helloClone.SeqNum != 3 {
		t.Fatalf("cloned received message = %+v, want the HELLO that was sent", helloClone)
	}
	if update == nil || !update.Poisoned() || update.Route.Dst == nodes[1].addr {
		t.Fatalf("kept ROUTE_UPDATE = %+v, want the poison", update)
	}
}

// TestLinkSensorTickAllocs pins a link-sensor tick at no allocation once
// the neighbours have been heard: the readings are copied into the
// sensor's storage and each LINK_INFO is borrowed.
func TestLinkSensorTickAllocs(t *testing.T) {
	const neighbours = 4
	net, clk, nodes := newTestNet(t, 1+neighbours)
	hub := nodes[0]
	reports := 0
	hub.mgr.SubscribeContext(event.LinkInfo, func(*event.Event) { reports++ })
	for _, nb := range nodes[1:] {
		net.SetLink(hub.addr, nb.addr, emunet.Quality{Delay: time.Millisecond, SignalDBm: -60})
		beacon := core.NewProtocol("beacon")
		beacon.SetTuple(event.Tuple{Provided: []event.Type{event.HelloOut}})
		if err := nb.mgr.Deploy(beacon); err != nil {
			t.Fatal(err)
		}
		if err := beacon.Emit(&event.Event{
			Type: event.HelloOut,
			Msg:  &packetbb.Message{Type: packetbb.MsgHello, Originator: nb.addr},
			Dst:  mnet.Broadcast,
		}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(2 * time.Second) // sensor interval is 1s
	reports = 0
	if got := testing.AllocsPerRun(20, func() { clk.Advance(time.Second) }); got != 0 {
		t.Fatalf("a link-sensor tick = %.1f allocs, want 0", got)
	}
	if reports != 21*neighbours {
		t.Fatalf("%d LINK_INFOs over 21 ticks, want %d", reports, 21*neighbours)
	}
}
