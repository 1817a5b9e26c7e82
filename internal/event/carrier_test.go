package event

import (
	"reflect"
	"slices"
	"testing"

	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
)

// TestBorrowedEventLifecycle walks one borrowed event through its holds:
// the creator's, claimed by the first emission, and one per delivery. It
// stays readable until the last release, which poisons the event, its
// Route and its relayed header.
func TestBorrowedEventLifecycle(t *testing.T) {
	nb := mnet.AddrFrom(0x0a000002)
	ev := WithRoute(LinkBreak, RoutePayload{Dst: nb, NextHop: nb, PacketID: 7})
	route := ev.Route
	if ev.Poisoned() || !ev.Claim() {
		t.Fatal("a fresh borrowed event's first emission did not claim the creator's hold")
	}
	if ev.Claim() {
		t.Fatal("a re-emission claimed the creator's hold again")
	}
	ev.Hold() // two deliveries
	ev.Hold()
	ev.Release() // the emission lets go of the creator's hold
	ev.Release() // the first delivery returns
	if ev.Poisoned() || ev.Type != LinkBreak || *route != (RoutePayload{Dst: nb, NextHop: nb, PacketID: 7}) {
		t.Fatalf("event released while a delivery holds it: %+v / %+v", *ev, *route)
	}
	ev.Release() // the last delivery returns
	if !ev.Poisoned() {
		t.Fatalf("released event reads as %+v, want the poison", *ev)
	}
	if route.Dst == nb || route.PacketID == 7 {
		t.Fatalf("a kept Route still reads as the released event's: %+v", *route)
	}

	msg := &packetbb.Message{Type: packetbb.MsgTC, Originator: nb, HopLimit: 3, SeqNum: 9}
	relay := Relay(TCOut, msg, mnet.Broadcast)
	header := relay.Msg
	if header == msg || header.HopLimit != 2 || header.HopCount != 1 || header.SeqNum != 9 {
		t.Fatalf("relayed header = %+v", *header)
	}
	relay.Claim()
	relay.Release()
	if !relay.Poisoned() || header.Originator == nb || header.SeqNum == 9 {
		t.Fatalf("kept relayed header reads as %+v after release", *header)
	}
	if msg.HopLimit != 3 || msg.HopCount != 0 {
		t.Fatalf("the received message changed: %+v", *msg)
	}
}

// TestBorrowedEventDoubleReleasePanics: a release with no hold left is an
// accounting bug, and it must not return the carrier to the free list twice.
func TestBorrowedEventDoubleReleasePanics(t *testing.T) {
	ev := Borrow(RouteUpdate)
	ev.Claim()
	ev.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second release did not panic")
		}
	}()
	ev.Release()
}

// TestBorrowedEventCopiesArePlain: an event built with &Event{} and a copy
// of a borrowed one have no carrier, so hold accounting leaves them alone,
// and the copy survives the original's release.
func TestBorrowedEventCopiesArePlain(t *testing.T) {
	plain := &Event{Type: HelloIn}
	if plain.Claim() {
		t.Fatal("a plain event counts as borrowed")
	}
	plain.Hold()
	plain.Release()
	plain.Release()
	if plain.Poisoned() || plain.Type != HelloIn {
		t.Fatalf("plain event = %+v", *plain)
	}

	ev := Borrow(HelloIn)
	ev.Src = mnet.AddrFrom(0x0a000003)
	cp := *ev
	if cp.Claim() {
		t.Fatal("a copy of a borrowed event counts as borrowed")
	}
	ev.Claim()
	ev.Release()
	if cp.Type != HelloIn || cp.Src != mnet.AddrFrom(0x0a000003) {
		t.Fatalf("copy changed with the original's release: %+v", cp)
	}
}

// TestBorrowIsAllocationFree: once the free list is warm, a borrow and its
// release cost nothing.
func TestBorrowIsAllocationFree(t *testing.T) {
	rp := RoutePayload{PacketID: 1}
	cycle := func() {
		ev := WithRoute(RouteUpdate, rp)
		ev.Claim()
		ev.Release()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("borrow + release = %.1f allocs, want 0", n)
	}
}

// TestFreeListPlateaus: releasing more carriers than the free list's cap
// leaves it at the cap; the rest go to the collector.
func TestFreeListPlateaus(t *testing.T) {
	freeCap := cap(carriers.free)
	evs := make([]*Event, freeCap+10)
	for i := range evs {
		evs[i] = Borrow(RouteUpdate)
		evs[i].Claim()
	}
	for _, ev := range evs {
		ev.Release()
	}
	carriers.Lock()
	n := len(carriers.free)
	carriers.Unlock()
	if n != freeCap || cap(carriers.free) != freeCap {
		t.Fatalf("free list holds %d carriers after %d releases, want the cap %d", n, len(evs), freeCap)
	}
}

// TestReleasedCarrierIsPoisonedThroughout: a release poisons only the
// payload its event carried, yet every payload pointer of a released event
// reads the poison, whatever the carrier carried before.
func TestReleasedCarrierIsPoisonedThroughout(t *testing.T) {
	nb := mnet.AddrFrom(0x0a000002)
	msg := &packetbb.Message{Type: packetbb.MsgTC, Originator: nb, HopLimit: 3, SeqNum: 9}
	borrow := []func() *Event{
		func() *Event { return WithRoute(RouteUpdate, RoutePayload{Dst: nb, PacketID: 7}) },
		func() *Event { return WithLink(LinkPayload{Neighbor: nb, Quality: 0.5}) },
		func() *Event { return WithNhood(NhoodPayload{Neighbor: nb, TwoHopVia: []mnet.Addr{nb, nb}}) },
		func() *Event { return Relay(TCOut, msg, nb) },
		func() *Event { return Borrow(HelloIn) },
	}
	for round := 0; round < 3; round++ {
		for i, b := range borrow {
			ev := b()
			ev.Claim()
			ev.Release()
			if !ev.Poisoned() || *ev.Route != poisonRoute || *ev.Link != poisonLink || !reflect.DeepEqual(*ev.Msg, poisonMsg) ||
				ev.Nhood.Neighbor != poisonAddr || slices.ContainsFunc(ev.Nhood.TwoHopVia, func(a mnet.Addr) bool { return a != poisonAddr }) {
				t.Fatalf("round %d, borrow %d: released event reads %+v", round, i, *ev)
			}
		}
	}
}

// BenchmarkBorrowRelease times the framework's most common carrier cycle:
// one routing trigger borrowed, emitted and released before the next.
func BenchmarkBorrowRelease(b *testing.B) {
	rp := RoutePayload{PacketID: 1}
	b.ReportAllocs()
	for range b.N {
		ev := WithRoute(RouteUpdate, rp)
		ev.Claim()
		ev.Release()
	}
}
