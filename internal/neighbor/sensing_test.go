package neighbor

import (
	"math/rand/v2"
	"slices"
	"testing"

	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/testbed"
)

// wireRoundTrip builds s's next HELLO, flagging the addresses relay holds,
// and returns it encoded and decoded again.
func wireRoundTrip(t *testing.T, s *Sensor, relay map[mnet.Addr]bool) *packetbb.Message {
	t.Helper()
	tlvs := []packetbb.TLV{{Type: packetbb.TLVWillingness, Value: packetbb.U8(5)}}
	wire, err := packetbb.EncodeMessage(s.Hello(mnet.AddrFrom(0x0b000001), tlvs, func(a mnet.Addr) bool { return relay[a] }))
	if err != nil {
		t.Fatal(err)
	}
	back, err := packetbb.DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestHelloOver255Neighbours: a node with more neighbours than one address
// block holds still beacons, and every receiver reads its own status and
// relay flag back.
func TestHelloOver255Neighbours(t *testing.T) {
	s := NewSensor(NewTable())
	relay := map[mnet.Addr]bool{}
	var sym []mnet.Addr
	for i := range 300 {
		a := mnet.AddrFrom(0x0a000100 + uint32(i))
		s.Table().Observe(a, i%2 == 0, 3, nil, testbed.Epoch)
		if i%2 == 0 {
			sym = append(sym, a)
		}
		relay[a] = i%3 == 0
	}
	back := wireRoundTrip(t, s, relay)
	if len(back.AddrBlocks) != 2 {
		t.Fatalf("%d address blocks, want 2", len(back.AddrBlocks))
	}
	for i := range 300 {
		a := mnet.AddrFrom(0x0a000100 + uint32(i))
		listsUs, relaysUs, _, _ := ParseHello(back, a, nil)
		if !listsUs || relaysUs != relay[a] {
			t.Fatalf("%v reads listsUs=%v relaysUs=%v, want true, %v", a, listsUs, relaysUs, relay[a])
		}
	}
	if _, _, _, got := ParseHello(back, mnet.AddrFrom(0x0c000001), nil); !slices.Equal(got, sym) {
		t.Fatalf("a third party reads %d symmetric neighbours, want %d", len(got), len(sym))
	}
}

// FuzzHello builds a HELLO over a random link set of up to 600 neighbours
// (heard, symmetric or lost, some flagged as relays), runs it through the
// packetbb codec and reads it back with ParseHello. The naive model is a
// map from address to its last status and relay flag: the HELLO must list
// exactly its non-lost addresses in order, each receiver must read its own
// listing and flag, and a third party its symmetric set.
func FuzzHello(f *testing.F) {
	for _, n := range []uint16{0, 1, 254, 255, 256, 300, 510, 511, 600} {
		f.Add(uint64(n), n)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		n %= 601
		span := uint32(n)*2 + 1 // small enough for repeats, which the model overwrites
		s := NewSensor(NewTable())
		status := map[mnet.Addr]Status{}
		relay := map[mnet.Addr]bool{}
		for range n {
			a := mnet.AddrFrom(0x0a000000 + rng.Uint32N(span)<<rng.UintN(12))
			st := Status(1 + rng.IntN(3))
			s.Table().Observe(a, st == StatusSymmetric, 3, nil, testbed.Epoch)
			if st == StatusLost {
				s.Table().MarkLost(a)
			}
			status[a], relay[a] = st, rng.IntN(2) == 0
		}
		var listed, sym []mnet.Addr
		for a, st := range status {
			if st != StatusLost {
				listed = append(listed, a)
			}
			if st == StatusSymmetric {
				sym = append(sym, a)
			}
		}
		slices.SortFunc(listed, mnet.Addr.Compare)
		slices.SortFunc(sym, mnet.Addr.Compare)

		back := wireRoundTrip(t, s, relay)
		var got []mnet.Addr
		for _, blk := range back.AddrBlocks {
			got = append(got, blk.Addrs...)
		}
		if !slices.Equal(got, listed) {
			t.Fatalf("HELLO lists %d addresses, model %d", len(got), len(listed))
		}
		for _, a := range listed {
			if listsUs, relaysUs, _, _ := ParseHello(back, a, nil); !listsUs || relaysUs != relay[a] {
				t.Fatalf("%v reads listsUs=%v relaysUs=%v, model true, %v", a, listsUs, relaysUs, relay[a])
			}
		}
		listsUs, relaysUs, will, got := ParseHello(back, mnet.AddrFrom(0x0c000001), nil)
		if listsUs || relaysUs || will != 5 || !slices.Equal(got, sym) {
			t.Fatalf("third party reads listsUs=%v relaysUs=%v will=%d and %d symmetric, model false, false, 5, %d",
				listsUs, relaysUs, will, len(got), len(sym))
		}
	})
}
