// Package packetbb implements a generalized MANET packet/message format in
// the style of PacketBB (RFC 5444, at the time of the paper
// draft-ietf-manet-packetbb). The paper adopts PacketBB as the basis of
// MANETKit's event structure (§4.2): every protocol event that crosses the
// network carries one of these messages, and co-deployed protocols can share
// packets on the wire.
//
// The format is a faithful structural reproduction — packets containing
// messages, messages carrying TLV blocks and address blocks, address blocks
// using shared-head compression and per-address TLVs — with a simplified
// header bit layout. The codec is a complete binary wire format with
// validation on both encode and decode.
package packetbb

import (
	"errors"
	"fmt"
	"slices"

	"manetkit/internal/mnet"
)

// MsgType identifies the protocol message carried. Types 1–9 are reserved
// for link-state/proactive control, 10–19 for reactive control. Protocols
// may register further types.
type MsgType uint8

// Well-known message types used by the protocols in this repository.
const (
	MsgHello MsgType = 1  // neighbour sensing beacon (OLSR/NHDP style)
	MsgTC    MsgType = 2  // OLSR topology control
	MsgHNA   MsgType = 3  // OLSR host-and-network association: no protocol here sends or handles it
	MsgRREQ  MsgType = 10 // DYMO route request (routing element)
	MsgRREP  MsgType = 11 // DYMO route reply (routing element)
	MsgRERR  MsgType = 12 // DYMO route error
)

// String implements fmt.Stringer for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "HELLO"
	case MsgTC:
		return "TC"
	case MsgHNA:
		return "HNA"
	case MsgRREQ:
		return "RREQ"
	case MsgRREP:
		return "RREP"
	case MsgRERR:
		return "RERR"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Well-known message-TLV types shared between protocols.
const (
	TLVValidityTime uint8 = 1 // message validity time, milliseconds (u32)
	TLVIntervalTime uint8 = 2 // emission interval, milliseconds (u32)
	TLVWillingness  uint8 = 3 // relay willingness 0..7 (u8)
	TLVANSN         uint8 = 4 // advertised neighbour sequence number (u16)
	TLVContentSeq   uint8 = 5 // content sequence number (u16)
)

// Well-known address-block TLV types.
const (
	ATLVLinkStatus uint8 = 1 // per-address link status (u8: LinkStatus*)
	ATLVMPR        uint8 = 2 // flag: address selected as MPR
	ATLVOrigSeq    uint8 = 3 // originator sequence number (u16), DYMO
	ATLVHopCount   uint8 = 4 // accumulated hop count (u8), DYMO path accumulation
	ATLVTargetSeq  uint8 = 5 // target sequence number (u16), DYMO
)

// Link status values carried in ATLVLinkStatus.
const (
	LinkStatusHeard     uint8 = 1 // asymmetric: we hear them
	LinkStatusSymmetric uint8 = 2 // bidirectional link confirmed
	LinkStatusLost      uint8 = 3 // link recently lost
)

// TLV is a type-length-value element attached to a packet or message.
type TLV struct {
	Type  uint8
	Value []byte
}

// AddrTLV is a TLV attached to a contiguous range of addresses
// [IndexStart, IndexStop] within an address block.
type AddrTLV struct {
	Type       uint8
	IndexStart uint8
	IndexStop  uint8
	Value      []byte
}

// AddrBlock groups addresses sharing semantics, with optional per-address
// prefix lengths and attached TLVs. On the wire the common head bytes of
// the addresses are stored once (shared-head compression).
type AddrBlock struct {
	Addrs      []mnet.Addr
	PrefixLens []uint8   // empty, or exactly one entry per address
	TLVs       []AddrTLV // index ranges refer to Addrs
}

// Message is a single protocol message: header fields, message TLVs and
// address blocks.
type Message struct {
	Type       MsgType
	Originator mnet.Addr
	HopLimit   uint8
	HopCount   uint8
	SeqNum     uint16

	// HasOriginator etc. control which header fields are present on the
	// wire; Encode sets them implicitly for non-zero fields, so most
	// callers can ignore them.
	HasOriginator bool
	HasHopLimit   bool
	HasHopCount   bool
	HasSeqNum     bool

	TLVs       []TLV
	AddrBlocks []AddrBlock
}

// SeqNewer reports whether the 16-bit sequence number a (a message SeqNum,
// an ANSN) is newer than b under serial-number arithmetic (RFC 1982): the
// forward distance from b to a is in [1, 0x7fff]. Numbers exactly 0x8000
// apart are incomparable: neither is newer.
func SeqNewer(a, b uint16) bool { return int16(a-b) > 0 }

// Packet is the top-level wire unit: an optional packet sequence number,
// packet TLVs, and one or more messages. Multiple co-deployed protocols can
// place messages in the same packet.
type Packet struct {
	SeqNum    uint16
	HasSeqNum bool
	TLVs      []TLV
	Messages  []Message
}

// Errors reported by the codec.
var (
	ErrTruncated = errors.New("packetbb: truncated input")
	ErrMalformed = errors.New("packetbb: malformed input")
	ErrTooLarge  = errors.New("packetbb: element exceeds size limit")
)

// CorrID derives the message's correlation ID: type, originator and
// sequence number, which together identify one logical message across every
// hop of its flood or forwarding path. Sender, forwarders and receivers all
// compute the same value from the decoded message, so causal packet paths
// can be reconstructed from traces without any wire-format change.
func (m *Message) CorrID() string {
	return fmt.Sprintf("%s:%s:%d", m.Type, m.Originator, m.SeqNum)
}

// FindTLV returns the first message TLV of the given type.
func (m *Message) FindTLV(typ uint8) (TLV, bool) {
	for _, tlv := range m.TLVs {
		if tlv.Type == typ {
			return tlv, true
		}
	}
	return TLV{}, false
}

// AddrTLVFor returns the first TLV of the given type covering address index
// i in the block.
func (b *AddrBlock) AddrTLVFor(typ uint8, i int) (AddrTLV, bool) {
	for _, tlv := range b.TLVs {
		if tlv.Type == typ && int(tlv.IndexStart) <= i && i <= int(tlv.IndexStop) {
			return tlv, true
		}
	}
	return AddrTLV{}, false
}

// Relay returns the copy of m a relay forwards: m's header with one hop
// less to go and one more taken, the only fields a relay changes (RFC 3626
// §3.4.1), over m's body. TLVs and address blocks are m's own, with their
// capacity clipped, so appending to either copies rather than writing into
// m. Anything that writes an element in place writes m — and a received m
// is every receiver's — so a forward that rewrites the body clones instead.
func (m *Message) Relay() Message {
	r := *m
	r.HopLimit--
	r.HopCount++
	r.TLVs = slices.Clip(m.TLVs)
	r.AddrBlocks = slices.Clip(m.AddrBlocks)
	return r
}

// Clone returns a deep copy of the message, for a forward that rewrites
// more than the hop fields (a fisheye interposer capping hop limits, a path
// accumulating its relays) and so must not alias what it was handed.
func (m *Message) Clone() *Message {
	c := *m
	c.TLVs = slices.Clone(m.TLVs)
	for i := range c.TLVs {
		c.TLVs[i].Value = slices.Clone(c.TLVs[i].Value)
	}
	c.AddrBlocks = slices.Clone(m.AddrBlocks)
	for i := range c.AddrBlocks {
		b := &c.AddrBlocks[i]
		b.Addrs = slices.Clone(b.Addrs)
		b.PrefixLens = slices.Clone(b.PrefixLens)
		b.TLVs = slices.Clone(b.TLVs)
		for j := range b.TLVs {
			b.TLVs[j].Value = slices.Clone(b.TLVs[j].Value)
		}
	}
	return &c
}

// Validate checks structural invariants that Encode relies on.
func (m *Message) Validate() error {
	for _, b := range m.AddrBlocks {
		if len(b.Addrs) == 0 {
			return fmt.Errorf("%w: empty address block", ErrMalformed)
		}
		if len(b.Addrs) > 255 {
			return fmt.Errorf("%w: address block with %d addresses", ErrTooLarge, len(b.Addrs))
		}
		if len(b.PrefixLens) != 0 && len(b.PrefixLens) != len(b.Addrs) {
			return fmt.Errorf("%w: %d prefix lengths for %d addresses",
				ErrMalformed, len(b.PrefixLens), len(b.Addrs))
		}
		for _, p := range b.PrefixLens {
			if int(p) > 8*mnet.AddrLen {
				return fmt.Errorf("%w: prefix length %d", ErrMalformed, p)
			}
		}
		for _, tlv := range b.TLVs {
			if tlv.IndexStart > tlv.IndexStop || int(tlv.IndexStop) >= len(b.Addrs) {
				return fmt.Errorf("%w: address TLV index range [%d,%d] over %d addresses",
					ErrMalformed, tlv.IndexStart, tlv.IndexStop, len(b.Addrs))
			}
			if len(tlv.Value) > maxTLVValue {
				return fmt.Errorf("%w: address TLV value %d bytes", ErrTooLarge, len(tlv.Value))
			}
		}
	}
	for _, tlv := range m.TLVs {
		if len(tlv.Value) > maxTLVValue {
			return fmt.Errorf("%w: message TLV value %d bytes", ErrTooLarge, len(tlv.Value))
		}
	}
	return nil
}

// U8, U16 and U32 build big-endian TLV values; the matching ParseU* helpers
// decode them. They keep protocol code free of manual byte slicing.
func U8(v uint8) []byte   { return []byte{v} }
func U16(v uint16) []byte { return []byte{byte(v >> 8), byte(v)} }
func U32(v uint32) []byte {
	return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// ParseU8 decodes a 1-byte TLV value.
func ParseU8(b []byte) (uint8, error) {
	if len(b) != 1 {
		return 0, fmt.Errorf("%w: u8 value of %d bytes", ErrMalformed, len(b))
	}
	return b[0], nil
}

// ParseU16 decodes a 2-byte big-endian TLV value.
func ParseU16(b []byte) (uint16, error) {
	if len(b) != 2 {
		return 0, fmt.Errorf("%w: u16 value of %d bytes", ErrMalformed, len(b))
	}
	return uint16(b[0])<<8 | uint16(b[1]), nil
}

// ParseU32 decodes a 4-byte big-endian TLV value.
func ParseU32(b []byte) (uint32, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("%w: u32 value of %d bytes", ErrMalformed, len(b))
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}
