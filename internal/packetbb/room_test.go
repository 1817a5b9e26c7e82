package packetbb

import (
	"testing"

	"manetkit/internal/mnet"
)

// TestDecodeIntoRoomAllocs: a one-message TC decoded into a reused room
// allocates nothing; the room is the object DecodePacket allocates.
func TestDecodeIntoRoomAllocs(t *testing.T) {
	wire, err := EncodePacket(&Packet{SeqNum: 9, HasSeqNum: true, Messages: []Message{{
		Type: MsgTC, Originator: addr("10.0.0.1"), HopLimit: 255, SeqNum: 77,
		TLVs:       []TLV{{Type: TLVANSN, Value: U16(3)}},
		AddrBlocks: []AddrBlock{{Addrs: []mnet.Addr{addr("10.0.0.2"), addr("10.0.0.3"), addr("10.0.0.4")}}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	room := new(Room)
	got := testing.AllocsPerRun(200, func() {
		if _, err := DecodePacketInto(wire, room); err != nil {
			t.Fatal(err)
		}
		room.Poison()
	})
	if got != 0 {
		t.Fatalf("DecodePacketInto(one-message TC) = %.0f allocs, want 0", got)
	}
}

// TestRoomPoisonReachesEverything: a released room's packet, and every
// message, TLV, address block and address a consumer could have kept a
// pointer into, in the room or beyond it (a packet of three messages, a
// block of more addresses than the room holds, address TLVs), reads the
// poison; the next decode into the room reads its own input again.
func TestRoomPoisonReachesEverything(t *testing.T) {
	var many []mnet.Addr
	for i := 1; i <= 12; i++ {
		many = append(many, mnet.Addr{10, 0, 1, byte(i)})
	}
	in := &Packet{SeqNum: 5, HasSeqNum: true, TLVs: []TLV{{Type: 200, Value: []byte{1}}}, Messages: []Message{
		*sampleHello(),
		{Type: MsgTC, Originator: addr("10.0.0.2"), HopLimit: 9, SeqNum: 3, AddrBlocks: []AddrBlock{{Addrs: many}}},
		{Type: MsgRREQ, Originator: addr("10.0.0.3"), SeqNum: 4, TLVs: []TLV{{Type: 1, Value: U16(7)}, {Type: 2}, {Type: 3}}},
	}}
	wire, err := EncodePacket(in)
	if err != nil {
		t.Fatal(err)
	}
	room := new(Room)
	p, err := DecodePacketInto(wire, room)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]*Message, len(p.Messages))
	var tlvs []*TLV
	var addrs []*mnet.Addr
	var atlvs []*AddrTLV
	for i := range p.Messages {
		m := &p.Messages[i]
		msgs[i] = m
		for j := range m.TLVs {
			tlvs = append(tlvs, &m.TLVs[j])
		}
		for j := range m.AddrBlocks {
			b := &m.AddrBlocks[j]
			for k := range b.Addrs {
				addrs = append(addrs, &b.Addrs[k])
			}
			for k := range b.TLVs {
				atlvs = append(atlvs, &b.TLVs[k])
			}
		}
	}
	for i := range p.TLVs {
		tlvs = append(tlvs, &p.TLVs[i])
	}
	if len(msgs) != 3 || len(addrs) < 14 || len(tlvs) < 5 || len(atlvs) == 0 {
		t.Fatalf("fixture too small: %d messages, %d addresses, %d TLVs, %d address TLVs", len(msgs), len(addrs), len(tlvs), len(atlvs))
	}
	room.Poison()
	if p.SeqNum != 0xdead || p.Messages != nil || p.TLVs != nil {
		t.Fatalf("released packet reads %+v, want the poison", *p)
	}
	for i, m := range msgs {
		if !m.Poisoned() {
			t.Fatalf("released message %d reads %+v, want the poison", i, *m)
		}
	}
	for i, a := range addrs {
		if *a != poisonAddr {
			t.Fatalf("released address %d reads %v, want the poison", i, *a)
		}
	}
	for i, tl := range tlvs {
		if tl.Type != 0xde || tl.Value != nil {
			t.Fatalf("released TLV %d reads %+v, want the poison", i, *tl)
		}
	}
	for i, tl := range atlvs {
		if tl.Type != 0xde || tl.Value != nil {
			t.Fatalf("released address TLV %d reads %+v, want the poison", i, *tl)
		}
	}
	again, err := DecodePacketInto(wire, room)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodePacket(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(wire) {
		t.Fatalf("a decode into the released room re-encodes as % x, want % x", enc, wire)
	}
}
