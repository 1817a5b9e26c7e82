package packetbb

import (
	"bytes"
	"testing"
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

// TestDecodeHelloAllocs is the ceiling on what one decode costs the heap: the
// message and the growth steps of its slices (13 before values aliased the
// input and blocks were filled in place) — no per-value copies, no
// per-block temporaries.
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
	t.Logf("DecodeMessage(sampleHello): %.0f allocs", got)
	if got > 8 {
		t.Fatalf("DecodeMessage(sampleHello) = %.0f allocs, want ≤ 8", got)
	}
}
