package olsr

import (
	"fmt"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/mpr"
	"manetkit/internal/packetbb"
	"manetkit/internal/route"
	"manetkit/internal/system"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

func addr(s string) mnet.Addr { return mnet.MustParseAddr(s) }

func newState() (*State, *vclock.Virtual) {
	clk := vclock.NewVirtual(testbed.Epoch)
	return NewState(route.NewTable(clk)), clk
}

// TestSeqOlder: an ANSN a is older than b exactly when packetbb.SeqNewer(b, a),
// across the 16-bit wrap.
func TestSeqOlder(t *testing.T) {
	tests := []struct {
		a, b uint16
		want bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{65535, 0, true},  // wraparound
		{0, 65535, false}, // wraparound
	}
	for _, tt := range tests {
		if got := packetbb.SeqNewer(tt.b, tt.a); got != tt.want {
			t.Errorf("seqOlder(%d,%d) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestRecordTCANSN(t *testing.T) {
	s, clk := newState()
	orig := addr("10.0.0.2")
	exp := clk.Now().Add(15 * time.Second)
	if !s.RecordTC(orig, 5, []mnet.Addr{addr("10.0.0.3")}, exp) {
		t.Fatal("fresh TC reported unchanged")
	}
	// Stale ANSN rejected.
	if s.RecordTC(orig, 4, []mnet.Addr{addr("10.0.0.9")}, exp) {
		t.Fatal("stale ANSN accepted")
	}
	// Newer ANSN flushes old tuples.
	if !s.RecordTC(orig, 6, []mnet.Addr{addr("10.0.0.4")}, exp) {
		t.Fatal("fresher TC reported unchanged")
	}
	edges := s.Edges(clk.Now())
	if len(edges) != 1 || edges[0][1] != addr("10.0.0.4") {
		t.Fatalf("edges = %v", edges)
	}
	// Self-loop advertisements are ignored.
	s.RecordTC(orig, 7, []mnet.Addr{orig}, exp)
	if len(s.Edges(clk.Now())) != 0 {
		t.Fatal("self-edge recorded")
	}
}

func TestPurgeTopo(t *testing.T) {
	s, clk := newState()
	s.RecordTC(addr("10.0.0.2"), 1, []mnet.Addr{addr("10.0.0.3")}, clk.Now().Add(time.Second))
	if s.PurgeTopo(clk.Now()) {
		t.Fatal("unexpired tuple purged")
	}
	clk.Advance(2 * time.Second)
	if !s.PurgeTopo(clk.Now()) {
		t.Fatal("expired tuple not purged")
	}
}

func TestComputeRoutesChain(t *testing.T) {
	s, clk := newState()
	self := addr("10.0.0.1")
	n2, n3, n4, n5 := addr("10.0.0.2"), addr("10.0.0.3"), addr("10.0.0.4"), addr("10.0.0.5")
	exp := clk.Now().Add(time.Minute)
	// Topology: 2-3 (from 2's TC), 3-4, 4-5.
	s.RecordTC(n2, 1, []mnet.Addr{n3}, exp)
	s.RecordTC(n3, 1, []mnet.Addr{n2, n4}, exp)
	s.RecordTC(n4, 1, []mnet.Addr{n3, n5}, exp)

	n := s.ComputeRoutes(self, []mnet.Addr{n2}, map[mnet.Addr][]mnet.Addr{n3: {n2}}, clk.Now(), time.Minute, "olsr")
	if n != 4 {
		t.Fatalf("reachable = %d", n)
	}
	for i, dst := range []mnet.Addr{n2, n3, n4, n5} {
		e, p, err := s.Routes.Lookup(dst)
		if err != nil {
			t.Fatalf("no route to %v", dst)
		}
		if p.NextHop != n2 || p.Metric != i+1 {
			t.Fatalf("route to %v = %+v via %+v", dst, e, p)
		}
	}
	// Unreachable destination stays unreachable.
	if _, _, err := s.Routes.Lookup(addr("10.0.0.99")); err == nil {
		t.Fatal("phantom route")
	}
}

func TestComputeRoutesRemovesStale(t *testing.T) {
	s, clk := newState()
	self := addr("10.0.0.1")
	n2, n3 := addr("10.0.0.2"), addr("10.0.0.3")
	exp := clk.Now().Add(time.Minute)
	s.RecordTC(n2, 1, []mnet.Addr{n3}, exp)
	s.ComputeRoutes(self, []mnet.Addr{n2}, nil, clk.Now(), time.Minute, "olsr")
	if s.Routes.ValidCount() != 2 {
		t.Fatalf("ValidCount = %d", s.Routes.ValidCount())
	}
	// Link to n2 gone: recompute with no neighbours removes everything.
	s.ComputeRoutes(self, nil, nil, clk.Now(), time.Minute, "olsr")
	if s.Routes.ValidCount() != 0 {
		t.Fatalf("stale routes remain: %v", s.Routes.Entries())
	}
}

// olsrNode bundles the per-node protocol instances.
type olsrNode struct {
	node *testbed.Node
	mpr  *mpr.MPR
	olsr *OLSR
}

// deployOLSR sets up a cluster with MPR+OLSR on every node (the Fig 5
// composition).
func deployOLSR(t *testing.T, n int) (*testbed.Cluster, []*olsrNode) {
	t.Helper()
	c, err := testbed.New(n, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	nodes := make([]*olsrNode, n)
	for i, node := range c.Nodes {
		nodes[i] = deployOLSROn(t, c, node)
	}
	return c, nodes
}

func deployOLSROn(t *testing.T, c *testbed.Cluster, node *testbed.Node) *olsrNode {
	t.Helper()
	relay := mpr.New("")
	o := New("", relay)
	for _, u := range []*core.Protocol{relay.Protocol(), o.Protocol()} {
		if err := node.Mgr.Deploy(u); err != nil {
			t.Fatal(err)
		}
		if err := u.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return &olsrNode{node: node, mpr: relay, olsr: o}
}

func TestOLSRConvergesOnLine(t *testing.T) {
	c, nodes := deployOLSR(t, 5)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(30 * time.Second)

	addrs := c.Addrs()
	for i, on := range nodes {
		if got := on.olsr.Routes().ValidCount(); got != 4 {
			t.Fatalf("node %d has %d routes, want 4: %+v", i, got, on.olsr.Routes().Entries())
		}
		// Next hops follow the chain.
		for j, dst := range addrs {
			if i == j {
				continue
			}
			_, p, err := on.olsr.Routes().Lookup(dst)
			if err != nil {
				t.Fatalf("node %d: no route to %v", i, dst)
			}
			var wantNext mnet.Addr
			if j > i {
				wantNext = addrs[i+1]
			} else {
				wantNext = addrs[i-1]
			}
			if p.NextHop != wantNext {
				t.Fatalf("node %d -> %v via %v, want %v", i, dst, p.NextHop, wantNext)
			}
			wantMetric := j - i
			if wantMetric < 0 {
				wantMetric = -wantMetric
			}
			if p.Metric != wantMetric {
				t.Fatalf("node %d -> %v metric %d, want %d", i, dst, p.Metric, wantMetric)
			}
		}
		// Kernel FIB mirrors the table.
		if on.node.FIB().Len() != 4 {
			t.Fatalf("node %d FIB has %d entries", i, on.node.FIB().Len())
		}
	}
}

func TestOLSRRepairsAfterLinkBreak(t *testing.T) {
	c, nodes := deployOLSR(t, 4)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(30 * time.Second)
	if nodes[0].olsr.Routes().ValidCount() != 3 {
		t.Fatal("setup: not converged")
	}
	// Sever 2-3: the network partitions into {0,1} and {2,3} (line).
	c.Net.CutLink(c.Addrs()[1], c.Addrs()[2])
	c.Run(20 * time.Second)
	if got := nodes[0].olsr.Routes().ValidCount(); got != 1 {
		t.Fatalf("node 0 routes after partition = %d, want 1: %v", got, nodes[0].olsr.Routes().Entries())
	}
	// Heal: routes come back.
	if err := c.Net.SetLink(c.Addrs()[1], c.Addrs()[2], emunet.DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	c.Run(30 * time.Second)
	if got := nodes[0].olsr.Routes().ValidCount(); got != 3 {
		t.Fatalf("node 0 routes after heal = %d, want 3", got)
	}
}

func TestOLSRCompositionMatchesFig5(t *testing.T) {
	c, nodes := deployOLSR(t, 1)
	_ = c
	on := nodes[0]
	// OLSR CF plug-ins.
	for _, name := range []string{"control", "state", "tc-handler", "nhood-handler", "mpr-handler", "tc-generator", "topo-sweep"} {
		if _, ok := on.olsr.Protocol().CF().Plug(name); !ok {
			t.Errorf("OLSR CF missing %q", name)
		}
	}
	// MPR CF plug-ins.
	for _, name := range []string{"control", "state", "forward", "hello-handler", "power-handler", "hello-gen", "mpr-calculator"} {
		if _, ok := on.mpr.Protocol().CF().Plug(name); !ok {
			t.Errorf("MPR CF missing %q", name)
		}
	}
	// Manager bindings: MPR provides NHOOD_CHANGE/MPR_CHANGE required by OLSR.
	arch := on.node.Mgr.Arch()
	var mprToOLSR bool
	for _, b := range arch.Bindings {
		if b.From == "mpr" && b.To == "olsr" {
			mprToOLSR = true
		}
	}
	if !mprToOLSR {
		t.Fatalf("no mpr->olsr binding derived: %+v", arch.Bindings)
	}
}

func TestFisheyeInterposesAndCapsTTL(t *testing.T) {
	c, _ := deployOLSR(t, 5)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	// Deploy fisheye on node 2 (an MPR in the middle of the chain).
	fish := NewFisheye("", []uint8{1, 255})
	if err := c.Nodes[2].Mgr.Deploy(fish); err != nil {
		t.Fatal(err)
	}
	if err := fish.Start(); err != nil {
		t.Fatal(err)
	}
	inter, _ := c.Nodes[2].Mgr.Chain(event.TCOut)
	if len(inter) != 1 || inter[0] != "fisheye" {
		t.Fatalf("TC_OUT interposers = %v", inter)
	}
	// Capture TTLs of TCs transmitted by node 2.
	var ttls []uint8
	c.Net.SetTap(func(f emunet.Frame, rcv mnet.Addr) {
		if f.Src != c.Addrs()[2] || len(f.Payload) == 0 || f.Payload[0] != 0x01 {
			return
		}
		pkt, err := packetbb.DecodePacket(f.Payload[1:])
		if err != nil {
			return
		}
		for _, m := range pkt.Messages {
			if m.Type == packetbb.MsgTC && m.Originator == c.Addrs()[2] {
				ttls = append(ttls, m.HopLimit)
			}
		}
	})
	c.Run(40 * time.Second)
	if len(ttls) < 4 {
		t.Fatalf("too few TCs observed: %v", ttls)
	}
	sawShort, sawLong := false, false
	for _, ttl := range ttls {
		if ttl == 1 {
			sawShort = true
		}
		if ttl > 100 {
			sawLong = true
		}
	}
	if !sawShort || !sawLong {
		t.Fatalf("fisheye TTL pattern not applied: %v", ttls)
	}
}

func TestPowerAwareEnableDisable(t *testing.T) {
	c, nodes := deployOLSR(t, 1)
	_ = c
	on := nodes[0]
	if err := on.olsr.EnablePowerAware(); err != nil {
		t.Fatal(err)
	}
	if !on.olsr.PowerAware() {
		t.Fatal("PowerAware = false after enable")
	}
	if on.mpr.CalculatorName() != "mpr-calculator-power" {
		t.Fatalf("calculator = %q", on.mpr.CalculatorName())
	}
	// The tuple now requires POWER_STATUS.
	if !on.olsr.Protocol().Tuple().Requires(on.node.Mgr.Ontology(), event.PowerStatus) {
		t.Fatal("tuple does not require POWER_STATUS")
	}
	// TC carries the residual-power TLV.
	on.olsr.State().SetOwnPower(0.42)
	msg := on.olsr.BuildTC(on.node.Addr)
	tlv, ok := msg.FindTLV(TLVResidualPower)
	if !ok {
		t.Fatal("TC missing residual power TLV")
	}
	if v, _ := packetbb.ParseU8(tlv.Value); v != 42 {
		t.Fatalf("power TLV = %d", v)
	}
	if err := on.olsr.DisablePowerAware(); err != nil {
		t.Fatal(err)
	}
	if on.olsr.PowerAware() || on.mpr.CalculatorName() != "mpr-calculator" {
		t.Fatal("disable did not restore base configuration")
	}
	if _, ok := on.olsr.BuildTC(on.node.Addr).FindTLV(TLVResidualPower); ok {
		t.Fatal("TC still carries power TLV after disable")
	}
}

func TestHysteresisDampsFlapping(t *testing.T) {
	clk := vclock.NewVirtual(testbed.Epoch)
	mgr, err := core.NewManager(core.Config{Node: addr("10.0.0.1"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	src := core.NewProtocol("sensing")
	src.SetTuple(event.Tuple{Provided: []event.Type{event.NhoodChange}})
	var passed []event.ChangeKind
	sink := core.NewProtocol("consumer")
	sink.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.NhoodChange}}})
	sink.AddHandler(core.NewHandler("h", event.NhoodChange, func(ctx *core.Context, ev *event.Event) error {
		passed = append(passed, ev.Nhood.Kind)
		return nil
	}))
	hyst := NewHysteresis("", 3)
	for _, u := range []*core.Protocol{src, hyst, sink} {
		if err := mgr.Deploy(u); err != nil {
			t.Fatal(err)
		}
	}
	nb := addr("10.0.0.2")
	appear := func() {
		src.Emit(&event.Event{Type: event.NhoodChange, Nhood: &event.NhoodPayload{Kind: event.NeighborAppeared, Neighbor: nb}})
	}
	lost := func() {
		src.Emit(&event.Event{Type: event.NhoodChange, Nhood: &event.NhoodPayload{Kind: event.NeighborLost, Neighbor: nb}})
	}
	appear() // 1: suppressed
	lost()   // passes, resets
	appear() // 1: suppressed
	appear() // 2: suppressed
	appear() // 3: passes
	mgr.WaitIdle()
	if len(passed) != 2 || passed[0] != event.NeighborLost || passed[1] != event.NeighborAppeared {
		t.Fatalf("passed = %v", passed)
	}
}

// TestProcessTCRelayAllocs pins a relayed TC at no allocation: the event
// and its relayed header (event.Relay) are borrowed, over the received
// body, and recycled when the sink's delivery returns. The middle
// of a three-node line is its neighbours' MPR, so it relays every fresh TC
// heard from one of them. Its System CF is swapped for a sink that counts
// TC_OUTs, so the relay's transmission (pinned in the system package) stays
// out of the count.
func TestProcessTCRelayAllocs(t *testing.T) {
	c, nodes := deployOLSR(t, 3)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(20 * time.Second)
	mid := nodes[1]
	if err := mid.node.Mgr.Undeploy(system.UnitName); err != nil {
		t.Fatal(err)
	}
	relayed := 0
	sink := core.NewProtocol("sink")
	sink.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	if err := sink.AddHandler(core.NewHandler("count", event.TCOut, func(*core.Context, *event.Event) error {
		relayed++
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := mid.node.Mgr.Deploy(sink); err != nil {
		t.Fatal(err)
	}
	o := mid.olsr
	orig := addr("10.9.0.1")
	msg := &packetbb.Message{
		Type: packetbb.MsgTC, Originator: orig, HopLimit: 255,
		TLVs:       []packetbb.TLV{{Type: packetbb.TLVANSN, Value: packetbb.U16(1)}},
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{addr("10.9.0.2"), addr("10.9.0.3")}}},
	}
	ev := &event.Event{Type: event.TCIn, Msg: msg, Src: c.Addrs()[0]}
	relay := func() {
		msg.SeqNum++ // a fresh TC each time, or the flooder drops it as a duplicate
		var err error
		if lockErr := o.Protocol().RunLocked(func(ctx *core.Context) { err = o.onTC(ctx, ev) }); lockErr != nil || err != nil {
			t.Fatalf("onTC: %v / %v", lockErr, err)
		}
	}
	for i := 0; i < 500; i++ { // learn the topology, grow the duplicate set
		relay()
	}
	relayed = 0
	if got := testing.AllocsPerRun(100, relay); got != 0 {
		t.Fatalf("onTC of a relayed TC = %.1f allocs, want 0 (the relay event is borrowed)", got)
	}
	if relayed != 101 {
		t.Fatalf("%d of 101 TCs relayed", relayed)
	}
}

// TestRestartedOriginatorIsHeardAfterHoldTime drives the ANSN memory
// through the deployed CF: the TC handler reads a TC's address blocks (one
// in place, several concatenated), and the topo-sweep source is what lets a
// restarted originator's ANSN 0 through once TopologyHold has passed.
func TestRestartedOriginatorIsHeardAfterHoldTime(t *testing.T) {
	c, nodes := deployOLSR(t, 2)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Second) // node 1 becomes a symmetric neighbour of node 0
	o := nodes[0].olsr
	orig, d1, d2, d3 := addr("10.9.0.1"), addr("10.9.0.2"), addr("10.9.0.3"), addr("10.9.0.4")
	seq := uint16(0)
	processTC := func(ansn uint16, blocks ...[]mnet.Addr) {
		t.Helper()
		seq++
		msg := &packetbb.Message{
			Type: packetbb.MsgTC, Originator: orig, HopLimit: 1, SeqNum: seq,
			TLVs: []packetbb.TLV{{Type: packetbb.TLVANSN, Value: packetbb.U16(ansn)}},
		}
		for _, b := range blocks {
			msg.AddrBlocks = append(msg.AddrBlocks, packetbb.AddrBlock{Addrs: b})
		}
		ev := &event.Event{Type: event.TCIn, Msg: msg, Src: c.Addrs()[1]}
		var err error
		if lockErr := o.Protocol().RunLocked(func(ctx *core.Context) { err = o.onTC(ctx, ev) }); lockErr != nil || err != nil {
			t.Fatalf("onTC: %v / %v", lockErr, err)
		}
	}
	advertised := func() []mnet.Addr {
		var out []mnet.Addr
		for _, e := range o.State().Edges(c.Clock.Now()) {
			if e[0] == orig {
				out = append(out, e[1])
			}
		}
		return out
	}

	processTC(17, []mnet.Addr{d2}, []mnet.Addr{d1}) // two blocks, unsorted across them
	if got := advertised(); len(got) != 2 || got[0] != d1 || got[1] != d2 {
		t.Fatalf("after a two-block TC the originator advertises %v, want [%v %v]", got, d1, d2)
	}
	c.Run(topologyHold - time.Second)
	processTC(0, []mnet.Addr{d3})
	if got := advertised(); len(got) != 2 {
		t.Fatalf("ANSN 0 inside the hold time changed the advertised set to %v", got)
	}
	c.Run(2 * time.Second) // past topologyHold; the sweep runs every second
	processTC(0, []mnet.Addr{d3})
	if got := advertised(); len(got) != 1 || got[0] != d3 {
		t.Fatalf("after the hold time the restarted originator advertises %v, want [%v]", got, d3)
	}
}

// TestSteadyRecomputeAllocs pins the CF's recompute at no allocation once
// the network has been seen: the symmetric neighbours and the 2-hop walk go
// into the pass's scratch, and a pass that changes nothing hands the table
// two empty lists.
func TestSteadyRecomputeAllocs(t *testing.T) {
	c, nodes := deployOLSR(t, 5)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(30 * time.Second)
	o := nodes[2].olsr
	if got := o.Routes().ValidCount(); got != 4 {
		t.Fatalf("the middle node has %d routes, want 4", got)
	}
	recompute := o.recompute
	run := func() {
		if err := o.Protocol().RunLocked(recompute); err != nil {
			t.Fatal(err)
		}
	}
	run()
	ops := nodes[2].node.FIB().Ops()
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Fatalf("a steady recompute = %.1f allocs, want 0", got)
	}
	if got := nodes[2].node.FIB().Ops(); got != ops {
		t.Fatalf("101 steady recomputes made %d FIB ops, want 0", got-ops)
	}
}

// periodicTCNode runs a five-node line until the middle node is its
// neighbours' MPR and swaps its System CF for a sink that keeps the TC_OUT
// messages it is handed, so a TC stays on this side of the medium. emit
// runs the CF's periodic TC step once.
func periodicTCNode(t *testing.T) (emit func(), sent *[]*packetbb.Message) {
	t.Helper()
	c, nodes := deployOLSR(t, 5)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(30 * time.Second)
	mid := nodes[2]
	if err := mid.node.Mgr.Undeploy(system.UnitName); err != nil {
		t.Fatal(err)
	}
	var msgs []*packetbb.Message
	sink := core.NewProtocol("sink")
	sink.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.TCOut}}})
	if err := sink.AddHandler(core.NewHandler("keep", event.TCOut, func(_ *core.Context, ev *event.Event) error {
		keepTC(&msgs, ev.Msg)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := mid.node.Mgr.Deploy(sink); err != nil {
		t.Fatal(err)
	}
	o := mid.olsr
	return func() {
		if err := o.Protocol().RunLocked(o.emitTC); err != nil {
			t.Fatal(err)
		}
	}, &msgs
}

// keepTC keeps a TC past its delivery: one the node built itself, not a
// received message lent with its frame, which ctxleak cannot tell apart.
// It appends the pointer, so the allocation pin counts no copy.
func keepTC(msgs *[]*packetbb.Message, m *packetbb.Message) { *msgs = append(*msgs, m) }

// TestPeriodicTCBytes pins the bytes of a periodic TC: the middle of a
// five-node line advertises its two MPR selectors, sorted, under its ANSN.
func TestPeriodicTCBytes(t *testing.T) {
	emit, sent := periodicTCNode(t)
	emit()
	if len(*sent) != 1 {
		t.Fatalf("%d TCs sent, want 1", len(*sent))
	}
	b, err := packetbb.EncodeMessage((*sent)[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", b), "020b001c0a000003ff0008000504010200040201030a000002040000"; got != want {
		t.Fatalf("TC bytes %s, want %s", got, want)
	}
}

// TestPeriodicTCAllocs pins what a periodic TC allocates: the message, its
// TLV list, the ANSN value, its address-block list, the event, and one copy
// of the selector set. The message owns that copy because a TC is a heap
// event whose body an interposer may keep; the size test copies nothing.
func TestPeriodicTCAllocs(t *testing.T) {
	emit, sent := periodicTCNode(t)
	emit()
	got := testing.AllocsPerRun(100, func() {
		*sent = (*sent)[:0]
		emit()
	})
	if got != 6 {
		t.Fatalf("a periodic TC = %.1f allocs, want 6", got)
	}
}
