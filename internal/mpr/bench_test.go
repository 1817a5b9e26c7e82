package mpr

import (
	"fmt"
	"testing"

	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
	"manetkit/internal/testbed"
)

// benchLinks builds a link table with nbs symmetric neighbours, each
// reaching twoHopPer distinct 2-hop nodes (with 50% overlap between
// consecutive neighbours).
func benchLinks(nbs, twoHopPer int) *neighbor.Table {
	t := neighbor.NewTable()
	for i := 0; i < nbs; i++ {
		nb := mnet.AddrFrom(0x0a000002 + uint32(i))
		var two []mnet.Addr
		for j := 0; j < twoHopPer; j++ {
			two = append(two, mnet.AddrFrom(0x0a010000+uint32(i*twoHopPer/2+j)))
		}
		t.Observe(nb, true, uint8(1+i%7), two, testbed.Epoch)
	}
	return t
}

func benchmarkSelect(b *testing.B, calc Calculator, nbs, twoHopPer int) {
	b.Helper()
	self := mnet.AddrFrom(0x0a000001)
	links := benchLinks(nbs, twoHopPer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := calc.Select(self, links); len(got) == 0 {
			b.Fatal("empty selection")
		}
	}
}

func BenchmarkGreedySelect(b *testing.B) {
	for _, size := range []struct{ nbs, two int }{{8, 4}, {20, 8}, {50, 10}} {
		b.Run(fmt.Sprintf("n%d-t%d", size.nbs, size.two), func(b *testing.B) {
			benchmarkSelect(b, NewGreedyCalculator(), size.nbs, size.two)
		})
	}
}

func BenchmarkPowerAwareSelect(b *testing.B) {
	benchmarkSelect(b, NewPowerAwareCalculator(), 20, 8)
}

func BenchmarkFlooderShouldForward(b *testing.B) {
	m := New("")
	f := m.Flooder()
	prev := mnet.AddrFrom(0x0a000002)
	m.State().mu.Lock()
	m.State().selectors = []mnet.Addr{prev}
	m.State().mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ShouldForward(mnet.AddrFrom(uint32(0x0a010000+i)), uint16(i), prev, testbed.Epoch)
	}
}
