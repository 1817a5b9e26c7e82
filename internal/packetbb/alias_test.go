package packetbb

import (
	"bytes"
	"reflect"
	"testing"

	"manetkit/internal/mnet"
)

// scribble overwrites everything a message owns: header fields, every TLV
// value byte, every address and prefix length, and grows every slice. Run on
// a Clone it must leave the original — and the buffer the original was
// decoded from — untouched.
func scribble(m *Message) {
	m.HopLimit ^= 0xff
	m.HopCount ^= 0xff
	m.SeqNum ^= 0xffff
	for i := range m.TLVs {
		for j := range m.TLVs[i].Value {
			m.TLVs[i].Value[j] ^= 0xff
		}
		m.TLVs[i].Value = append(m.TLVs[i].Value, 0xff)
	}
	m.TLVs = append(m.TLVs, TLV{Type: 0xff})
	for i := range m.AddrBlocks {
		b := &m.AddrBlocks[i]
		for j := range b.Addrs {
			for k := range b.Addrs[j] {
				b.Addrs[j][k] ^= 0xff
			}
		}
		for j := range b.PrefixLens {
			b.PrefixLens[j] ^= 0xff
		}
		for j := range b.TLVs {
			for k := range b.TLVs[j].Value {
				b.TLVs[j].Value[k] ^= 0xff
			}
			b.TLVs[j].Value = append(b.TLVs[j].Value, 0xff)
		}
	}
	m.AddrBlocks = append(m.AddrBlocks, AddrBlock{})
}

// checkSharingContract asserts the two halves of the contract a shared
// decoded packet rests on, for a packet pkt decoded from data (of which
// pristine is a copy taken before the decode): the decoder and the encoder
// never write to the input, and a Clone shares no memory with the packet or
// the input, however thoroughly it is then overwritten.
func checkSharingContract(t *testing.T, data, pristine []byte, msgs []Message, encode func() ([]byte, error)) {
	t.Helper()
	want, err := encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, pristine) {
		t.Fatalf("decode/encode wrote to the input:\nbefore: % x\nafter:  % x", pristine, data)
	}
	for i := range msgs {
		scribble(msgs[i].Clone())
	}
	if !bytes.Equal(data, pristine) {
		t.Fatalf("writing to a Clone reached the input:\nbefore: % x\nafter:  % x", pristine, data)
	}
	got, err := encode()
	if err != nil {
		t.Fatalf("re-encode after scribbling on clones: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("writing to a Clone changed the decoded packet:\nbefore: % x\nafter:  % x", want, got)
	}
}

func TestDecodedPacketSharingContract(t *testing.T) {
	for _, data := range fuzzSeeds(t) {
		pristine := append([]byte(nil), data...)
		pkt, err := DecodePacket(data)
		if err != nil {
			if !bytes.Equal(data, pristine) {
				t.Fatalf("rejecting decode wrote to the input % x", pristine)
			}
			continue
		}
		checkSharingContract(t, data, pristine, pkt.Messages, func() ([]byte, error) { return EncodePacket(pkt) })
	}
}

// TestDecodeAliasesInput pins what the DecodePacket comment promises: TLV
// values are views of the input, not copies (that is the saving), and their
// capacity is clipped so an append cannot grow into the bytes that follow.
func TestDecodeAliasesInput(t *testing.T) {
	wire, err := EncodeMessage(sampleHello())
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), wire...)
	m, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, tlv := range m.TLVs {
		_ = append(tlv.Value, 0xee)
	}
	for _, b := range m.AddrBlocks {
		for _, tlv := range b.TLVs {
			_ = append(tlv.Value, 0xee)
		}
		_ = append(b.PrefixLens, 0xee)
	}
	if !bytes.Equal(wire, pristine) {
		t.Fatalf("append on a decoded value grew into the input:\nbefore: % x\nafter:  % x", pristine, wire)
	}
	v := m.TLVs[0].Value
	i := bytes.Index(wire, v)
	if i < 0 || &wire[i] != &v[0] {
		t.Fatalf("TLV value % x is a copy, not a view of the input", v)
	}
}

// TestDecodeHelloAllocs pins what one decode costs the heap: the decoded
// object (message, TLVs, address block and its addresses in one) and the
// block's three address TLVs, sized exactly.
func TestDecodeHelloAllocs(t *testing.T) {
	wire, err := EncodeMessage(sampleHello())
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := DecodeMessage(wire); err != nil {
			t.Fatal(err)
		}
	})
	if got != 2 {
		t.Fatalf("DecodeMessage(sampleHello) = %.0f allocs, want 2", got)
	}
}

// TestDecodeTCAllocs pins the packet the control plane decodes most: a
// one-message TC is one object (packet, message, TLV, address block and
// addresses).
func TestDecodeTCAllocs(t *testing.T) {
	wire, err := EncodePacket(&Packet{SeqNum: 9, HasSeqNum: true, Messages: []Message{{
		Type: MsgTC, Originator: addr("10.0.0.1"), HopLimit: 255, SeqNum: 77,
		TLVs:       []TLV{{Type: TLVANSN, Value: U16(3)}},
		AddrBlocks: []AddrBlock{{Addrs: []mnet.Addr{addr("10.0.0.2"), addr("10.0.0.3"), addr("10.0.0.4")}}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := DecodePacket(wire); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Fatalf("DecodePacket(one-message TC) = %.0f allocs, want 1", got)
	}
}

// relayedLikeClone checks that m's relay encodes exactly as the copy a
// relay used to make: a Clone with the hop fields stepped.
func relayedLikeClone(t *testing.T, m *Message) {
	t.Helper()
	want := m.Clone()
	want.HopLimit--
	want.HopCount++
	r := m.Relay()
	a, errA := EncodeMessage(want)
	b, errB := EncodeMessage(&r)
	if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
		t.Fatalf("relay encodes as % x (%v), clone with stepped hops as % x (%v)", b, errB, a, errA)
	}
}

// TestRelaySharesOnlyWhatAppendCopies: a relay shares the received body, so
// appending to its TLVs, its address blocks, or a block's addresses, TLVs
// or prefix lengths must leave the received packet — its bytes and its
// structs — as they were. Two relays of one message with spare capacity
// must not see each other's appends either.
func TestRelaySharesOnlyWhatAppendCopies(t *testing.T) {
	for _, data := range fuzzSeeds(t) {
		pkt, err := DecodePacket(data)
		if err != nil {
			continue
		}
		pristine := bytes.Clone(data)
		var before []*Message
		for i := range pkt.Messages {
			before = append(before, pkt.Messages[i].Clone())
		}
		for i := range pkt.Messages {
			relayedLikeClone(t, &pkt.Messages[i])
			r := pkt.Messages[i].Relay()
			for j := range r.AddrBlocks {
				b := r.AddrBlocks[j]
				_ = append(b.Addrs, addr("10.255.255.255"))
				_ = append(b.PrefixLens, 0xee)
				_ = append(b.TLVs, AddrTLV{Type: 0xee})
				for _, tlv := range b.TLVs {
					_ = append(tlv.Value, 0xee)
				}
			}
			for _, tlv := range r.TLVs {
				_ = append(tlv.Value, 0xee)
			}
			r.TLVs = append(r.TLVs, TLV{Type: 0xee, Value: []byte{0xee}})
			r.AddrBlocks = append(r.AddrBlocks, AddrBlock{Addrs: []mnet.Addr{addr("10.255.255.255")}})
			if len(r.AddrBlocks) > 1 {
				r.AddrBlocks[0].Addrs = append(r.AddrBlocks[0].Addrs, addr("10.255.255.254"))
			}
		}
		if !bytes.Equal(data, pristine) {
			t.Fatalf("appending to a relay wrote into the input:\nbefore: % x\nafter:  % x", pristine, data)
		}
		for i := range pkt.Messages {
			if !reflect.DeepEqual(&pkt.Messages[i], before[i]) {
				t.Fatalf("appending to a relay changed message %d:\nbefore: %+v\nafter:  %+v", i, before[i], &pkt.Messages[i])
			}
		}
	}

	m := sampleHello()
	m.TLVs = append(make([]TLV, 0, 8), m.TLVs...)
	m.AddrBlocks = append(make([]AddrBlock, 0, 4), m.AddrBlocks...)
	r1, r2 := m.Relay(), m.Relay()
	r1.TLVs = append(r1.TLVs, TLV{Type: 1})
	r2.TLVs = append(r2.TLVs, TLV{Type: 2})
	r1.AddrBlocks = append(r1.AddrBlocks, AddrBlock{Addrs: []mnet.Addr{addr("10.0.0.1")}})
	r2.AddrBlocks = append(r2.AddrBlocks, AddrBlock{Addrs: []mnet.Addr{addr("10.0.0.2")}})
	if r1.TLVs[2].Type != 1 || r1.AddrBlocks[1].Addrs[0] != addr("10.0.0.1") {
		t.Fatal("two relays of one message appended into the same backing array")
	}
}
