package packetbb

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"manetkit/internal/mnet"
)

func addr(s string) mnet.Addr { return mnet.MustParseAddr(s) }

func sampleHello() *Message {
	return &Message{
		Type:       MsgHello,
		Originator: addr("10.0.0.1"),
		HopLimit:   1,
		SeqNum:     42,
		TLVs: []TLV{
			{Type: TLVValidityTime, Value: U32(6000)},
			{Type: TLVWillingness, Value: U8(3)},
		},
		AddrBlocks: []AddrBlock{{
			Addrs: []mnet.Addr{addr("10.0.0.2"), addr("10.0.0.3"), addr("10.0.0.4")},
			TLVs: []AddrTLV{
				{Type: ATLVLinkStatus, IndexStart: 0, IndexStop: 1, Value: U8(LinkStatusSymmetric)},
				{Type: ATLVLinkStatus, IndexStart: 2, IndexStop: 2, Value: U8(LinkStatusHeard)},
				{Type: ATLVMPR, IndexStart: 0, IndexStop: 0, Value: nil},
			},
		}},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleHello()
	wire, err := EncodeMessage(m)
	if err != nil {
		t.Fatalf("EncodeMessage: %v", err)
	}
	got, err := DecodeMessage(wire)
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	// Encode sets Has flags implicitly; normalise before comparing.
	want := *m
	want.HasOriginator, want.HasHopLimit, want.HasSeqNum = true, true, true
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, &want)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		SeqNum:    7,
		HasSeqNum: true,
		TLVs:      []TLV{{Type: 99, Value: []byte{1, 2, 3}}},
		Messages:  []Message{*sampleHello(), *sampleHello()},
	}
	p.Messages[1].Type = MsgTC
	p.Messages[1].HopLimit = 255
	wire, err := EncodePacket(p)
	if err != nil {
		t.Fatalf("EncodePacket: %v", err)
	}
	got, err := DecodePacket(wire)
	if err != nil {
		t.Fatalf("DecodePacket: %v", err)
	}
	if !got.HasSeqNum || got.SeqNum != 7 {
		t.Fatalf("packet seq = %d,%v", got.SeqNum, got.HasSeqNum)
	}
	if len(got.Messages) != 2 || got.Messages[0].Type != MsgHello || got.Messages[1].Type != MsgTC {
		t.Fatalf("messages = %+v", got.Messages)
	}
	if got.Messages[1].HopLimit != 255 {
		t.Fatalf("hop limit = %d", got.Messages[1].HopLimit)
	}
	if len(got.TLVs) != 1 || !bytes.Equal(got.TLVs[0].Value, []byte{1, 2, 3}) {
		t.Fatalf("packet TLVs = %+v", got.TLVs)
	}
}

func TestEmptyMessage(t *testing.T) {
	m := &Message{Type: MsgRERR}
	wire, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgRERR || got.HasOriginator || len(got.TLVs) != 0 || len(got.AddrBlocks) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestHeadCompressionActuallyCompresses(t *testing.T) {
	shared := &Message{Type: MsgTC, AddrBlocks: []AddrBlock{{
		Addrs: []mnet.Addr{addr("10.0.0.1"), addr("10.0.0.2"), addr("10.0.0.3"), addr("10.0.0.4")},
	}}}
	distinct := &Message{Type: MsgTC, AddrBlocks: []AddrBlock{{
		Addrs: []mnet.Addr{addr("10.0.0.1"), addr("20.0.0.2"), addr("30.0.0.3"), addr("40.0.0.4")},
	}}}
	ws, err := EncodeMessage(shared)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := EncodeMessage(distinct)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) >= len(wd) {
		t.Fatalf("shared-head block (%dB) not smaller than distinct block (%dB)", len(ws), len(wd))
	}
	back, err := DecodeMessage(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.AddrBlocks[0].Addrs, shared.AddrBlocks[0].Addrs) {
		t.Fatalf("compressed addresses corrupted: %v", back.AddrBlocks[0].Addrs)
	}
}

func TestPrefixLens(t *testing.T) {
	m := &Message{Type: MsgTC, AddrBlocks: []AddrBlock{{
		Addrs:      []mnet.Addr{addr("10.0.0.0"), addr("10.0.1.0")},
		PrefixLens: []uint8{24, 28},
	}}}
	wire, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.AddrBlocks[0].PrefixLens, []uint8{24, 28}) {
		t.Fatalf("prefix lens = %v", got.AddrBlocks[0].PrefixLens)
	}
}

func TestWideTLVValue(t *testing.T) {
	big := make([]byte, 1000)
	for i := range big {
		big[i] = byte(i)
	}
	m := &Message{Type: MsgTC, TLVs: []TLV{{Type: 50, Value: big}}}
	wire, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.TLVs[0].Value, big) {
		t.Fatal("wide TLV value corrupted")
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name string
		m    *Message
	}{
		{"empty address block", &Message{AddrBlocks: []AddrBlock{{}}}},
		{"prefix count mismatch", &Message{AddrBlocks: []AddrBlock{{
			Addrs: []mnet.Addr{addr("10.0.0.1")}, PrefixLens: []uint8{24, 24},
		}}}},
		{"prefix too long", &Message{AddrBlocks: []AddrBlock{{
			Addrs: []mnet.Addr{addr("10.0.0.1")}, PrefixLens: []uint8{40},
		}}}},
		{"TLV index out of range", &Message{AddrBlocks: []AddrBlock{{
			Addrs: []mnet.Addr{addr("10.0.0.1")},
			TLVs:  []AddrTLV{{Type: 1, IndexStart: 0, IndexStop: 3}},
		}}}},
		{"TLV index inverted", &Message{AddrBlocks: []AddrBlock{{
			Addrs: []mnet.Addr{addr("10.0.0.1"), addr("10.0.0.2")},
			TLVs:  []AddrTLV{{Type: 1, IndexStart: 1, IndexStop: 0}},
		}}}},
	}
	for _, tt := range tests {
		if _, err := EncodeMessage(tt.m); err == nil {
			t.Errorf("%s: encode succeeded", tt.name)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	valid, err := EncodeMessage(sampleHello())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"truncated header", valid[:3]},
		{"truncated body", valid[:len(valid)-2]},
		{"trailing garbage", append(append([]byte{}, valid...), 0xde, 0xad)},
		{"bad flags", func() []byte {
			b := append([]byte{}, valid...)
			b[1] |= 0x80
			return b
		}()},
		{"size below header", []byte{1, 0, 0, 2}},
	}
	for _, tt := range tests {
		if _, err := DecodeMessage(tt.buf); err == nil {
			t.Errorf("%s: decode succeeded", tt.name)
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	// Feed pseudo-random garbage and mutated valid messages; decoder must
	// return errors, never panic.
	rng := rand.New(rand.NewSource(1))
	valid, err := EncodeMessage(sampleHello())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		var buf []byte
		if i%2 == 0 {
			buf = make([]byte, rng.Intn(80))
			rng.Read(buf)
		} else {
			buf = append([]byte{}, valid...)
			for j := 0; j < 1+rng.Intn(4); j++ {
				buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
			}
		}
		_, _ = DecodeMessage(buf) // must not panic
		_, _ = DecodePacket(buf)
	}
}

// randomMessage builds a structurally valid random message for the
// round-trip property test.
func randomMessage(rng *rand.Rand) *Message {
	m := &Message{
		Type:       MsgType(rng.Intn(250) + 1),
		Originator: mnet.AddrFrom(rng.Uint32()),
		HopLimit:   uint8(rng.Intn(256)),
		HopCount:   uint8(rng.Intn(256)),
		SeqNum:     uint16(rng.Intn(65536)),
	}
	for i := rng.Intn(4); i > 0; i-- {
		v := make([]byte, rng.Intn(20))
		rng.Read(v)
		if len(v) == 0 {
			v = nil
		}
		m.TLVs = append(m.TLVs, TLV{Type: uint8(rng.Intn(255) + 1), Value: v})
	}
	for i := rng.Intn(3); i > 0; i-- {
		n := rng.Intn(6) + 1
		b := AddrBlock{Addrs: make([]mnet.Addr, n)}
		base := rng.Uint32()
		for j := range b.Addrs {
			if rng.Intn(2) == 0 {
				b.Addrs[j] = mnet.AddrFrom(base + uint32(j)) // shared head likely
			} else {
				b.Addrs[j] = mnet.AddrFrom(rng.Uint32())
			}
		}
		if rng.Intn(2) == 0 {
			b.PrefixLens = make([]uint8, n)
			for j := range b.PrefixLens {
				b.PrefixLens[j] = uint8(rng.Intn(33))
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			start := rng.Intn(n)
			stop := start + rng.Intn(n-start)
			v := make([]byte, rng.Intn(8))
			rng.Read(v)
			if len(v) == 0 {
				v = nil
			}
			b.TLVs = append(b.TLVs, AddrTLV{
				Type:       uint8(rng.Intn(255) + 1),
				IndexStart: uint8(start),
				IndexStop:  uint8(stop),
				Value:      v,
			})
		}
		m.AddrBlocks = append(m.AddrBlocks, b)
	}
	return m
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMessage(rng)
		wire, err := EncodeMessage(m)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		got, err := DecodeMessage(wire)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		// Normalise implicit Has flags for comparison.
		want := m.Clone()
		want.HasOriginator = want.HasOriginator || !want.Originator.IsUnspecified()
		want.HasHopLimit = want.HasHopLimit || want.HopLimit != 0
		want.HasHopCount = want.HasHopCount || want.HopCount != 0
		want.HasSeqNum = want.HasSeqNum || want.SeqNum != 0
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	m := sampleHello()
	a, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding not deterministic")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := sampleHello()
	c := m.Clone()
	c.TLVs[0].Value[0] = 0xff
	c.AddrBlocks[0].Addrs[0] = addr("99.99.99.99")
	c.AddrBlocks[0].TLVs[0].Value[0] = 0xff
	if m.TLVs[0].Value[0] == 0xff || m.AddrBlocks[0].Addrs[0] == addr("99.99.99.99") ||
		m.AddrBlocks[0].TLVs[0].Value[0] == 0xff {
		t.Fatal("Clone shares storage with original")
	}
}

func TestFindTLVAndAddrTLVFor(t *testing.T) {
	m := sampleHello()
	if tlv, ok := m.FindTLV(TLVWillingness); !ok || tlv.Value[0] != 3 {
		t.Fatalf("FindTLV(Willingness) = %+v, %v", tlv, ok)
	}
	if _, ok := m.FindTLV(200); ok {
		t.Fatal("FindTLV found absent type")
	}
	b := &m.AddrBlocks[0]
	if tlv, ok := b.AddrTLVFor(ATLVLinkStatus, 1); !ok || tlv.Value[0] != LinkStatusSymmetric {
		t.Fatalf("AddrTLVFor(idx 1) = %+v, %v", tlv, ok)
	}
	if tlv, ok := b.AddrTLVFor(ATLVLinkStatus, 2); !ok || tlv.Value[0] != LinkStatusHeard {
		t.Fatalf("AddrTLVFor(idx 2) = %+v, %v", tlv, ok)
	}
	if _, ok := b.AddrTLVFor(ATLVMPR, 2); ok {
		t.Fatal("AddrTLVFor matched outside index range")
	}
}

func TestParseHelpers(t *testing.T) {
	if v, err := ParseU8(U8(200)); err != nil || v != 200 {
		t.Fatalf("ParseU8 = %d, %v", v, err)
	}
	if v, err := ParseU16(U16(65534)); err != nil || v != 65534 {
		t.Fatalf("ParseU16 = %d, %v", v, err)
	}
	if v, err := ParseU32(U32(4_000_000_007)); err != nil || v != 4_000_000_007 {
		t.Fatalf("ParseU32 = %d, %v", v, err)
	}
	for _, err := range []error{
		func() error { _, e := ParseU8(nil); return e }(),
		func() error { _, e := ParseU16([]byte{1}); return e }(),
		func() error { _, e := ParseU32([]byte{1, 2, 3}); return e }(),
	} {
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("short value error = %v", err)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgHello.String() != "HELLO" || MsgTC.String() != "TC" || MsgRREQ.String() != "RREQ" ||
		MsgRREP.String() != "RREP" || MsgRERR.String() != "RERR" {
		t.Fatal("well-known MsgType names wrong")
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Fatalf("unknown MsgType renders %q", MsgType(200).String())
	}
}

func TestSeqNewer(t *testing.T) {
	tests := []struct {
		a, b uint16
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{5, 5, false},
		{0, 0xffff, true}, // 0xffff→0 wraps forward
		{0xffff, 0, false},
		{1, 65000, true},
		{0x7fff, 0, true}, // the longest forward distance
		{0, 0x7fff, false},
		{0x8000, 0, false}, // 0x8000 apart: incomparable both ways
		{0, 0x8000, false},
		{0x8001, 1, false},
		{1, 0x8001, false},
		{0x8001, 0, false}, // 0x8001 forward is 0x7fff backward
		{0, 0x8001, true},
	}
	for _, tt := range tests {
		if got := SeqNewer(tt.a, tt.b); got != tt.want {
			t.Errorf("SeqNewer(%#x, %#x) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func BenchmarkEncodeHello(b *testing.B) {
	m := sampleHello()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeMessage(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeHello(b *testing.B) {
	wire, err := EncodeMessage(sampleHello())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMessage(wire); err != nil {
			b.Fatal(err)
		}
	}
}
