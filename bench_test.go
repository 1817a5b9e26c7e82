package manetkit

// Benchmarks regenerating the paper's evaluation (one per table/figure; see
// DESIGN.md §4 for the index):
//
//	BenchmarkTable1TimeToProcess*    — Table 1, row 1 (per-message cost)
//	BenchmarkTable1RouteEstablish*   — Table 1, row 2 (reported via metrics)
//	BenchmarkTable2Footprint         — Table 2 (reported via metrics, KB)
//	BenchmarkConcurrencyModel*       — §4.4 concurrency-model ablation
//	BenchmarkEventRouting            — framework event-path microbenchmark
//
// Absolute numbers differ from the paper's 2009 C/Linux testbed; the
// comparisons (monolithic vs MANETKit, model vs model) carry the result.

import (
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/harness"
	"manetkit/internal/mnet"
	"manetkit/internal/mono"
	"manetkit/internal/packetbb"
	"manetkit/internal/vclock"
)

// benchTC builds distinct TC messages like the Table 1 workload.
func benchTC(orig mnet.Addr, i int) *packetbb.Message {
	return &packetbb.Message{
		Type:       packetbb.MsgTC,
		Originator: orig,
		HopLimit:   250,
		SeqNum:     uint16(i + 1),
		TLVs:       []packetbb.TLV{{Type: packetbb.TLVANSN, Value: packetbb.U16(uint16(i + 1))}},
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{
			mnet.AddrFrom(0x0a000100 + uint32(i%3)),
			mnet.AddrFrom(0x0a000200 + uint32(i%5)),
		}}},
	}
}

func BenchmarkTable1TimeToProcessOLSRKit(b *testing.B) {
	c, nodes, err := harness.FamilyCluster(1, "olsr")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	peer := mnet.AddrFrom(0x0a0000fe)
	nodes[0].Set.MPR().State().Links.Observe(peer, true, 3, nil, c.Clock.Now())
	unit := nodes[0].Set.OLSR().Protocol()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &event.Event{Type: event.TCIn, Msg: benchTC(peer, i), Src: peer, Time: c.Clock.Now()}
		sec := unit.Section()
		sec.Lock()
		if err := unit.Accept(ev); err != nil {
			sec.Unlock()
			b.Fatal(err)
		}
		sec.Unlock()
	}
}

func BenchmarkTable1TimeToProcessOLSRMono(b *testing.B) {
	clk := vclock.NewVirtual(epoch)
	net := NewNetwork(clk, 1)
	nic, err := net.Attach(mnet.AddrFrom(0x0a000001))
	if err != nil {
		b.Fatal(err)
	}
	o := mono.NewOLSR(nic, clk, mono.OLSRConfig{})
	peer := mnet.AddrFrom(0x0a0000fe)
	hello := &packetbb.Message{
		Type:       packetbb.MsgHello,
		Originator: peer,
		AddrBlocks: []packetbb.AddrBlock{{
			Addrs: []mnet.Addr{mnet.AddrFrom(0x0a000001)},
			TLVs: []packetbb.AddrTLV{{
				Type: packetbb.ATLVLinkStatus, Value: packetbb.U8(packetbb.LinkStatusSymmetric),
			}},
		}},
	}
	o.HandleHello(hello, peer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.HandleTC(benchTC(peer, i), peer)
	}
}

func benchRREQ(orig, target mnet.Addr, i int) *packetbb.Message {
	return &packetbb.Message{
		Type:       packetbb.MsgRREQ,
		Originator: orig,
		SeqNum:     uint16(i + 1),
		HopLimit:   10,
		HopCount:   2,
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{target}}},
	}
}

func BenchmarkTable1TimeToProcessDYMOKit(b *testing.B) {
	c, nodes, err := harness.FamilyCluster(1, "dymo")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	orig := mnet.AddrFrom(0x0a0000fe)
	target := mnet.AddrFrom(0x0a0000fd)
	unit := nodes[0].Set.DYMO().Protocol()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &event.Event{Type: event.REIn, Msg: benchRREQ(orig, target, i), Src: orig, Time: c.Clock.Now()}
		sec := unit.Section()
		sec.Lock()
		if err := unit.Accept(ev); err != nil {
			sec.Unlock()
			b.Fatal(err)
		}
		sec.Unlock()
	}
}

func BenchmarkTable1TimeToProcessDYMOMono(b *testing.B) {
	clk := vclock.NewVirtual(epoch)
	net := NewNetwork(clk, 1)
	nic, err := net.Attach(mnet.AddrFrom(0x0a000001))
	if err != nil {
		b.Fatal(err)
	}
	d := mono.NewDYMO(nic, clk, mono.DYMOConfig{})
	orig := mnet.AddrFrom(0x0a0000fe)
	target := mnet.AddrFrom(0x0a0000fd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.HandleRREQ(benchRREQ(orig, target, i), orig)
	}
}

// BenchmarkExtensionProcessAODVRREQ extends the Table 1 row to the AODV
// composition (intermediate-node RREQ processing).
func BenchmarkExtensionProcessAODVRREQ(b *testing.B) {
	clk := vclock.NewVirtual(epoch)
	net := NewNetwork(clk, 1)
	stack, err := NewStack(net, mnet.AddrFrom(0x0a000001), StackOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer stack.Close()
	a, err := stack.DeployAODV(AODVConfig{})
	if err != nil {
		b.Fatal(err)
	}
	orig := mnet.AddrFrom(0x0a0000fe)
	target := mnet.AddrFrom(0x0a0000fd)
	unit := a.Protocol()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &event.Event{Type: event.REIn, Msg: benchRREQ(orig, target, i), Src: orig, Time: clk.Now()}
		sec := unit.Section()
		sec.Lock()
		if err := unit.Accept(ev); err != nil {
			sec.Unlock()
			b.Fatal(err)
		}
		sec.Unlock()
	}
}

// Route establishment and footprint are scenario measurements rather than
// tight loops; they are reported through benchmark metrics so `go test
// -bench` regenerates the whole of Tables 1 and 2.

func BenchmarkTable1RouteEstablishment(b *testing.B) {
	type probe struct {
		name string
		fn   func() (time.Duration, error)
	}
	for _, p := range []probe{
		{"olsr-mono-ms", harness.RouteEstablishmentOLSRMono},
		{"olsr-mkit-ms", harness.RouteEstablishmentOLSRKit},
		{"dymo-mono-ms", harness.RouteEstablishmentDYMOMono},
		{"dymo-mkit-ms", harness.RouteEstablishmentDYMOKit},
	} {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			d, err := p.fn()
			if err != nil {
				b.Fatal(err)
			}
			total += d
		}
		b.ReportMetric(float64(total)/float64(b.N)/float64(time.Millisecond), p.name)
	}
}

func BenchmarkTable2Footprint(b *testing.B) {
	var t harness.Table2
	var err error
	for i := 0; i < b.N; i++ {
		t, err = harness.MeasureTable2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t.MonoOLSR, "mono-olsr-KB")
	b.ReportMetric(t.KitOLSR, "mkit-olsr-KB")
	b.ReportMetric(t.MonoDYMO, "mono-dymo-KB")
	b.ReportMetric(t.KitDYMO, "mkit-dymo-KB")
	b.ReportMetric(t.MonoBoth, "mono-both-KB")
	b.ReportMetric(t.KitBoth, "mkit-both-KB")
	b.ReportMetric(t.KitBothSealed, "mkit-both-sealed-KB")
}

func benchmarkConcurrency(b *testing.B, model core.Model) {
	r, err := harness.MeasureConcurrency(model, 3, b.N+1, 2000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.PerSecond, "events/s")
}

func BenchmarkConcurrencyModelSingleThreaded(b *testing.B) {
	benchmarkConcurrency(b, core.SingleThreaded)
}
func BenchmarkConcurrencyModelPerMessage(b *testing.B) { benchmarkConcurrency(b, core.PerMessage) }
func BenchmarkConcurrencyModelPerN(b *testing.B)       { benchmarkConcurrency(b, core.PerN) }

// BenchmarkEventRouting measures the bare framework event path: one
// provider, one requirer, no protocol work.
func BenchmarkEventRouting(b *testing.B) {
	mgr, err := core.NewManager(core.Config{
		Node:  mnet.AddrFrom(0x0a000001),
		Clock: vclock.NewVirtual(epoch),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	src := core.NewProtocol("src")
	src.SetTuple(event.Tuple{Provided: []event.Type{event.HelloIn}})
	sink := core.NewProtocol("sink")
	sink.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	sink.AddHandler(core.NewHandler("h", event.HelloIn, func(*core.Context, *event.Event) error { return nil }))
	if err := mgr.Deploy(src); err != nil {
		b.Fatal(err)
	}
	if err := mgr.Deploy(sink); err != nil {
		b.Fatal(err)
	}
	ev := &event.Event{Type: event.HelloIn}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Emit(ev); err != nil {
			b.Fatal(err)
		}
	}
}
