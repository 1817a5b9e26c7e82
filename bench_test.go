package manetkit

// Every evaluation number has one measurement path (DESIGN.md §4): the
// standing benchmark (benchmark/) and cmd/mkbench for the tables and
// ablations, internal/core's BenchmarkEmitDirect for the bare event hop.
// The one benchmark here covers AODV, which nothing else measures.

import (
	"testing"

	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/vclock"
)

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
