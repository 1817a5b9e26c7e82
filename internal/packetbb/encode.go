package packetbb

import (
	"fmt"

	"manetkit/internal/mnet"
)

// Wire-format constants. The layout mirrors RFC 5444's structure with a
// simplified flag encoding; see package documentation.
const (
	pktFlagHasSeq  = 0x01
	pktFlagHasTLVs = 0x02

	msgFlagHasOrig     = 0x01
	msgFlagHasHopLimit = 0x02
	msgFlagHasHopCount = 0x04
	msgFlagHasSeq      = 0x08

	tlvFlagHasValue = 0x01
	tlvFlagHasIndex = 0x02
	tlvFlagWideLen  = 0x04

	abFlagHasHead     = 0x01
	abFlagHasPrefixes = 0x02

	maxTLVValue = 65535
	maxMsgSize  = 65535

	// encodeCap is EncodePacket's and EncodeMessage's first buffer: larger than
	// a typical control packet, small enough for the caller's stack.
	encodeCap = 128
)

// EncodePacket serialises a packet to its wire form.
func EncodePacket(p *Packet) ([]byte, error) {
	return AppendPacket(make([]byte, 0, encodeCap), p)
}

// EncodeMessage serialises a single message. Header fields that are zero are
// omitted from the wire unless the corresponding Has flag is set.
func EncodeMessage(m *Message) ([]byte, error) {
	return appendMessage(make([]byte, 0, encodeCap), m)
}

// AppendPacket appends the packet's wire form to buf and returns the
// extended buffer. It leaves buf's existing bytes alone, so a caller can put
// its own header in front and encode into an array on its stack.
func AppendPacket(buf []byte, p *Packet) ([]byte, error) {
	flags := byte(0)
	if p.HasSeqNum {
		flags |= pktFlagHasSeq
	}
	if len(p.TLVs) > 0 {
		flags |= pktFlagHasTLVs
	}
	buf = append(buf, flags)
	if p.HasSeqNum {
		buf = append(buf, byte(p.SeqNum>>8), byte(p.SeqNum))
	}
	var err error
	if len(p.TLVs) > 0 {
		if buf, err = appendTLVBlock(buf, p.TLVs, nil); err != nil {
			return nil, fmt.Errorf("packet TLVs: %w", err)
		}
	}
	for i := range p.Messages {
		if buf, err = appendMessage(buf, &p.Messages[i]); err != nil {
			return nil, fmt.Errorf("message %d: %w", i, err)
		}
	}
	return buf, nil
}

// appendMessage appends one message's wire form to buf.
func appendMessage(buf []byte, m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	hasOrig := m.HasOriginator || !m.Originator.IsUnspecified()
	hasHopLimit := m.HasHopLimit || m.HopLimit != 0
	hasHopCount := m.HasHopCount || m.HopCount != 0
	hasSeq := m.HasSeqNum || m.SeqNum != 0

	flags := byte(0)
	if hasOrig {
		flags |= msgFlagHasOrig
	}
	if hasHopLimit {
		flags |= msgFlagHasHopLimit
	}
	if hasHopCount {
		flags |= msgFlagHasHopCount
	}
	if hasSeq {
		flags |= msgFlagHasSeq
	}

	// Header: type, flags, u16 total size (patched at the end).
	start := len(buf)
	buf = append(buf, byte(m.Type), flags, 0, 0)
	if hasOrig {
		buf = append(buf, m.Originator[:]...)
	}
	if hasHopLimit {
		buf = append(buf, m.HopLimit)
	}
	if hasHopCount {
		buf = append(buf, m.HopCount)
	}
	if hasSeq {
		buf = append(buf, byte(m.SeqNum>>8), byte(m.SeqNum))
	}

	var err error
	if buf, err = appendTLVBlock(buf, m.TLVs, nil); err != nil {
		return nil, fmt.Errorf("message TLVs: %w", err)
	}
	for i := range m.AddrBlocks {
		if buf, err = appendAddrBlock(buf, &m.AddrBlocks[i]); err != nil {
			return nil, fmt.Errorf("address block %d: %w", i, err)
		}
	}
	size := len(buf) - start
	if size > maxMsgSize {
		return nil, fmt.Errorf("%w: message of %d bytes", ErrTooLarge, size)
	}
	buf[start+2] = byte(size >> 8)
	buf[start+3] = byte(size)
	return buf, nil
}

// appendTLVBlock writes a TLV block containing msgTLVs (index-less) or
// addrTLVs (indexed); exactly one of the two slices is used.
func appendTLVBlock(buf []byte, msgTLVs []TLV, addrTLVs []AddrTLV) ([]byte, error) {
	// Reserve the u16 block length.
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	start := len(buf)
	var err error
	for _, tlv := range msgTLVs {
		if buf, err = appendTLV(buf, tlv.Type, false, 0, 0, tlv.Value); err != nil {
			return nil, err
		}
	}
	for _, tlv := range addrTLVs {
		if buf, err = appendTLV(buf, tlv.Type, true, tlv.IndexStart, tlv.IndexStop, tlv.Value); err != nil {
			return nil, err
		}
	}
	blockLen := len(buf) - start
	if blockLen > maxTLVValue {
		return nil, fmt.Errorf("%w: TLV block of %d bytes", ErrTooLarge, blockLen)
	}
	buf[lenAt] = byte(blockLen >> 8)
	buf[lenAt+1] = byte(blockLen)
	return buf, nil
}

func appendTLV(buf []byte, typ uint8, hasIndex bool, idxStart, idxStop uint8, value []byte) ([]byte, error) {
	if len(value) > maxTLVValue {
		return nil, fmt.Errorf("%w: TLV value of %d bytes", ErrTooLarge, len(value))
	}
	flags := byte(0)
	if len(value) > 0 {
		flags |= tlvFlagHasValue
	}
	if hasIndex {
		flags |= tlvFlagHasIndex
	}
	if len(value) > 255 {
		flags |= tlvFlagWideLen
	}
	buf = append(buf, typ, flags)
	if hasIndex {
		buf = append(buf, idxStart, idxStop)
	}
	if len(value) > 0 {
		if len(value) > 255 {
			buf = append(buf, byte(len(value)>>8), byte(len(value)))
		} else {
			buf = append(buf, byte(len(value)))
		}
		buf = append(buf, value...)
	}
	return buf, nil
}

// appendAddrBlock writes an address block using shared-head compression:
// the longest common prefix of all addresses is emitted once.
func appendAddrBlock(buf []byte, b *AddrBlock) ([]byte, error) {
	head := commonHead(b.Addrs)
	flags := byte(0)
	if head > 0 {
		flags |= abFlagHasHead
	}
	if len(b.PrefixLens) > 0 {
		flags |= abFlagHasPrefixes
	}
	buf = append(buf, byte(len(b.Addrs)), flags)
	if head > 0 {
		buf = append(buf, byte(head))
		buf = append(buf, b.Addrs[0][:head]...)
	}
	for _, a := range b.Addrs {
		buf = append(buf, a[head:]...)
	}
	buf = append(buf, b.PrefixLens...)
	return appendTLVBlock(buf, nil, b.TLVs)
}

// commonHead returns the length of the longest common leading byte run of
// the addresses. A full-length head would leave zero tail bytes per address,
// which the decoder handles, but we cap at AddrLen-1 so every address
// contributes at least one byte (keeps blocks self-describing).
func commonHead(addrs []mnet.Addr) int {
	if len(addrs) < 2 {
		return 0
	}
	head := mnet.AddrLen - 1
	first := addrs[0]
	for _, a := range addrs[1:] {
		i := 0
		for i < head && a[i] == first[i] {
			i++
		}
		head = i
		if head == 0 {
			return 0
		}
	}
	return head
}
