package packetbb

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"manetkit/internal/mnet"
)

// fuzzSeeds are valid wire encodings covering every element of the format:
// packet sequence numbers, packet/message/address TLVs, shared-head address
// compression, prefix lengths, multi-message packets.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	n1 := mnet.MustParseAddr("10.0.0.1")
	n2 := mnet.MustParseAddr("10.0.0.2")
	n3 := mnet.MustParseAddr("10.9.0.3")
	hello := Message{
		Type:       MsgHello,
		Originator: n1,
		SeqNum:     41,
		TLVs:       []TLV{{Type: TLVValidityTime, Value: U32(7000)}, {Type: TLVWillingness, Value: []byte{3}}},
		AddrBlocks: []AddrBlock{{
			Addrs: []mnet.Addr{n2, n3},
			TLVs: []AddrTLV{
				{Type: ATLVLinkStatus, IndexStart: 0, IndexStop: 1, Value: []byte{LinkStatusSymmetric}},
				{Type: ATLVMPR, IndexStart: 0, IndexStop: 0},
			},
		}},
	}
	tc := Message{
		Type:       MsgTC,
		Originator: n2,
		HopLimit:   16,
		HopCount:   2,
		SeqNum:     900,
		TLVs:       []TLV{{Type: TLVANSN, Value: U16(17)}},
		AddrBlocks: []AddrBlock{{Addrs: []mnet.Addr{n1, n3}}},
	}
	rreq := Message{
		Type:       MsgRREQ,
		Originator: n1,
		HopLimit:   10,
		SeqNum:     7,
		AddrBlocks: []AddrBlock{{
			Addrs:      []mnet.Addr{n1, n3},
			PrefixLens: []uint8{32, 32},
			TLVs: []AddrTLV{
				{Type: ATLVOrigSeq, IndexStart: 0, IndexStop: 0, Value: U16(55)},
				{Type: ATLVHopCount, IndexStart: 1, IndexStop: 1, Value: []byte{4}},
			},
		}},
	}
	packets := []*Packet{
		{Messages: []Message{hello}},
		{SeqNum: 1234, HasSeqNum: true, TLVs: []TLV{{Type: 200, Value: []byte{1, 2, 3}}}, Messages: []Message{tc}},
		{Messages: []Message{hello, tc, rreq}},
	}
	var out [][]byte
	for _, p := range packets {
		enc, err := EncodePacket(p)
		if err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		out = append(out, enc)
		// A corrupted variant of every seed: decoders meet these frames
		// whenever the emulated medium mangles payloads in flight.
		bad := append([]byte(nil), enc...)
		bad[len(bad)/2] ^= 0x55
		out = append(out, bad)
		out = append(out, enc[:len(enc)/2])
	}
	return out
}

// FuzzDecodePacket asserts the decoder never panics on arbitrary input, and
// for every input it accepts:
//   - the sharing contract holds (the input is never written, a Clone
//     shares nothing with it);
//   - the packet re-encodes, and that encoding decodes to an equal packet;
//   - each message's Relay encodes exactly like a Clone with its hop
//     fields stepped;
//   - AppendPacket onto a non-empty prefix keeps the prefix and adds
//     exactly EncodePacket's bytes.
//
// Its reuse leg decodes the input into a Room an earlier decode of another
// input used (each valid seed, the room poisoned or not), and requires the
// fresh decode's result, errors included, with no slice of it aliasing the
// earlier input or what its decode allocated.
func FuzzDecodePacket(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pristine := append([]byte(nil), data...)
		pkt, err := DecodePacket(data)
		checkReusedRoom(t, data, pkt, err, seeds)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		checkSharingContract(t, data, pristine, pkt.Messages, func() ([]byte, error) { return EncodePacket(pkt) })
		enc, err := EncodePacket(pkt)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v\n% x", err, data)
		}
		pkt2, err := DecodePacket(enc)
		if err != nil {
			t.Fatalf("re-encoding failed to decode: %v\n% x", err, enc)
		}
		if !reflect.DeepEqual(pkt, pkt2) {
			t.Fatalf("re-encoding decodes to a different packet:\nfirst:  %+v\nsecond: %+v", pkt, pkt2)
		}
		for i := range pkt.Messages {
			relayedLikeClone(t, &pkt.Messages[i])
		}
		prefix := []byte{0xde, 0xad, 0xbe}
		buf := append(make([]byte, 0, len(prefix)+3), prefix...)
		got, err := AppendPacket(buf, pkt)
		if err != nil {
			t.Fatalf("AppendPacket: %v", err)
		}
		if want := append(bytes.Clone(prefix), enc...); !bytes.Equal(got, want) {
			t.Fatalf("AppendPacket onto a prefix:\ngot:  % x\nwant: % x", got, want)
		}
	})
}

// checkReusedRoom decodes data into a Room after each of the earlier inputs
// that decodes, and requires what the fresh decode gave (want, wantErr):
// reflect-equal, with the same error text, and with no slice of the result
// overlapping the earlier input or a slice its decode allocated outside the
// room.
func checkReusedRoom(t *testing.T, data []byte, want *Packet, wantErr error, earlier [][]byte) {
	t.Helper()
	for i, e := range earlier {
		for _, poison := range []bool{false, true} {
			room := new(Room)
			prev := bytes.Clone(e)
			p, err := DecodePacketInto(prev, room)
			if err != nil {
				continue // a rejected earlier input leaves the room as it found it
			}
			inRoom := spanOf(unsafe.Pointer(room), unsafe.Sizeof(*room))
			foreign := []span{spanOf(unsafe.Pointer(unsafe.SliceData(prev)), uintptr(len(prev)))}
			for _, s := range packetSpans(p) {
				if !inRoom.contains(s) {
					foreign = append(foreign, s)
				}
			}
			if poison {
				room.Poison()
			}
			got, err := DecodePacketInto(data, room)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("decode into the room of earlier input %d (poisoned %v): error %v, a fresh decode %v", i, poison, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decode into the room of earlier input %d (poisoned %v):\n got  %+v\n want %+v", i, poison, got, want)
			}
			for _, s := range packetSpans(got) {
				for _, f := range foreign {
					if s.overlaps(f) {
						t.Fatalf("decode into the room of earlier input %d (poisoned %v) aliases that input's decode", i, poison)
					}
				}
			}
		}
	}
}

// span is the memory [lo, hi) a slice's elements occupy.
type span struct{ lo, hi uintptr }

func spanOf(p unsafe.Pointer, size uintptr) span { return span{uintptr(p), uintptr(p) + size} }

func sliceSpan[T any](s []T) span {
	var zero T
	return spanOf(unsafe.Pointer(unsafe.SliceData(s)), uintptr(len(s))*unsafe.Sizeof(zero))
}

func (s span) contains(o span) bool { return s.lo <= o.lo && o.hi <= s.hi }
func (s span) overlaps(o span) bool { return s.lo < o.hi && o.lo < s.hi }

// packetSpans lists the memory of every non-empty slice p reaches.
func packetSpans(p *Packet) []span {
	var out []span
	add := func(s span) {
		if s.hi > s.lo {
			out = append(out, s)
		}
	}
	tlvs := func(ts []TLV) {
		add(sliceSpan(ts))
		for _, t := range ts {
			add(sliceSpan(t.Value))
		}
	}
	tlvs(p.TLVs)
	add(sliceSpan(p.Messages))
	for i := range p.Messages {
		m := &p.Messages[i]
		tlvs(m.TLVs)
		add(sliceSpan(m.AddrBlocks))
		for _, b := range m.AddrBlocks {
			add(sliceSpan(b.Addrs))
			add(sliceSpan(b.PrefixLens))
			add(sliceSpan(b.TLVs))
			for _, t := range b.TLVs {
				add(sliceSpan(t.Value))
			}
		}
	}
	return out
}

// FuzzDecodeMessage is the same property at message granularity.
func FuzzDecodeMessage(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	m := Message{
		Type:       MsgRREP,
		Originator: mnet.MustParseAddr("10.0.0.9"),
		SeqNum:     3,
		AddrBlocks: []AddrBlock{{Addrs: []mnet.Addr{mnet.MustParseAddr("10.0.0.1")}}},
	}
	enc, err := EncodeMessage(&m)
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(enc)
	f.Fuzz(func(t *testing.T, data []byte) {
		pristine := append([]byte(nil), data...)
		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		checkSharingContract(t, data, pristine, []Message{*msg}, func() ([]byte, error) { return EncodeMessage(msg) })
		enc, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v\n% x", err, data)
		}
		msg2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoding failed to decode: %v\n% x", err, enc)
		}
		enc2, err := EncodeMessage(msg2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not a fixed point:\nfirst:  % x\nsecond: % x", enc, enc2)
		}
	})
}
