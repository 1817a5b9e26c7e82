package packetbb

import (
	"fmt"

	"manetkit/internal/mnet"
)

// decoder is a bounds-checked cursor over an input buffer.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) u8() (byte, error) {
	if d.remaining() < 1 {
		return 0, ErrTruncated
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.remaining() < 2 {
		return 0, ErrTruncated
	}
	v := uint16(d.buf[d.off])<<8 | uint16(d.buf[d.off+1])
	d.off += 2
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, ErrTruncated
	}
	// Capacity is clipped so an append on a decoded value cannot grow into
	// the bytes that follow it in the input.
	v := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return v, nil
}

// DecodePacket parses a wire-form packet. The result aliases buf: TLV values
// and prefix lengths are sub-slices of it, not copies, so buf must stay
// unmodified for as long as the packet (or any message taken from it) is in
// use. The decoder itself never writes to buf. A caller that wants to change
// a decoded message calls Clone first, which shares nothing with buf.
func DecodePacket(buf []byte) (*Packet, error) {
	d := &decoder{buf: buf}
	flags, err := d.u8()
	if err != nil {
		return nil, fmt.Errorf("packet header: %w", err)
	}
	if flags&^(pktFlagHasSeq|pktFlagHasTLVs) != 0 {
		return nil, fmt.Errorf("%w: unknown packet flags %#x", ErrMalformed, flags)
	}
	p := &Packet{}
	if flags&pktFlagHasSeq != 0 {
		p.HasSeqNum = true
		if p.SeqNum, err = d.u16(); err != nil {
			return nil, fmt.Errorf("packet seqnum: %w", err)
		}
	}
	if flags&pktFlagHasTLVs != 0 {
		if p.TLVs, _, err = decodeTLVBlock(d, false); err != nil {
			return nil, fmt.Errorf("packet TLVs: %w", err)
		}
	}
	for d.remaining() > 0 {
		i := len(p.Messages)
		p.Messages = append(p.Messages, Message{})
		if err := decodeMessage(d, &p.Messages[i]); err != nil {
			return nil, fmt.Errorf("message %d: %w", i, err)
		}
	}
	return p, nil
}

// DecodeMessage parses a single wire-form message; it requires the buffer to
// contain exactly one message. Like DecodePacket, the result aliases buf.
func DecodeMessage(buf []byte) (*Message, error) {
	d := &decoder{buf: buf}
	m := &Message{}
	if err := decodeMessage(d, m); err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after message", ErrMalformed, d.remaining())
	}
	return m, nil
}

// decodeMessage reads one message from d into the zero Message m.
func decodeMessage(d *decoder, m *Message) error {
	typ, err := d.u8()
	if err != nil {
		return fmt.Errorf("type: %w", err)
	}
	flags, err := d.u8()
	if err != nil {
		return fmt.Errorf("flags: %w", err)
	}
	if flags&^(msgFlagHasOrig|msgFlagHasHopLimit|msgFlagHasHopCount|msgFlagHasSeq) != 0 {
		return fmt.Errorf("%w: unknown message flags %#x", ErrMalformed, flags)
	}
	size, err := d.u16()
	if err != nil {
		return fmt.Errorf("size: %w", err)
	}
	// The size field counts the whole message including the 4 header bytes
	// already consumed.
	if int(size) < 4 {
		return fmt.Errorf("%w: message size %d", ErrMalformed, size)
	}
	body, err := d.bytes(int(size) - 4)
	if err != nil {
		return fmt.Errorf("body (%d bytes): %w", size-4, err)
	}
	md := &decoder{buf: body}

	m.Type = MsgType(typ)
	if flags&msgFlagHasOrig != 0 {
		m.HasOriginator = true
		ob, err := md.bytes(mnet.AddrLen)
		if err != nil {
			return fmt.Errorf("originator: %w", err)
		}
		copy(m.Originator[:], ob)
	}
	if flags&msgFlagHasHopLimit != 0 {
		m.HasHopLimit = true
		if m.HopLimit, err = md.u8(); err != nil {
			return fmt.Errorf("hop limit: %w", err)
		}
	}
	if flags&msgFlagHasHopCount != 0 {
		m.HasHopCount = true
		if m.HopCount, err = md.u8(); err != nil {
			return fmt.Errorf("hop count: %w", err)
		}
	}
	if flags&msgFlagHasSeq != 0 {
		m.HasSeqNum = true
		if m.SeqNum, err = md.u16(); err != nil {
			return fmt.Errorf("seqnum: %w", err)
		}
	}
	if m.TLVs, _, err = decodeTLVBlock(md, false); err != nil {
		return fmt.Errorf("message TLVs: %w", err)
	}
	for md.remaining() > 0 {
		i := len(m.AddrBlocks)
		m.AddrBlocks = append(m.AddrBlocks, AddrBlock{})
		if err := decodeAddrBlock(md, &m.AddrBlocks[i]); err != nil {
			return fmt.Errorf("address block %d: %w", i, err)
		}
	}
	return nil
}

// decodeTLVBlock reads one TLV block. With indexed=false it returns message
// TLVs (rejecting indexed entries); with indexed=true the reverse.
func decodeTLVBlock(d *decoder, indexed bool) ([]TLV, []AddrTLV, error) {
	blockLen, err := d.u16()
	if err != nil {
		return nil, nil, fmt.Errorf("block length: %w", err)
	}
	block, err := d.bytes(int(blockLen))
	if err != nil {
		return nil, nil, fmt.Errorf("block body: %w", err)
	}
	bd := &decoder{buf: block}
	var tlvs []TLV
	var atlvs []AddrTLV
	for bd.remaining() > 0 {
		typ, err := bd.u8()
		if err != nil {
			return nil, nil, err
		}
		flags, err := bd.u8()
		if err != nil {
			return nil, nil, ErrTruncated
		}
		if flags&^(tlvFlagHasValue|tlvFlagHasIndex|tlvFlagWideLen) != 0 {
			return nil, nil, fmt.Errorf("%w: unknown TLV flags %#x", ErrMalformed, flags)
		}
		hasIndex := flags&tlvFlagHasIndex != 0
		if hasIndex != indexed {
			return nil, nil, fmt.Errorf("%w: TLV indexing mismatch (indexed=%v)", ErrMalformed, hasIndex)
		}
		var idxStart, idxStop uint8
		if hasIndex {
			if idxStart, err = bd.u8(); err != nil {
				return nil, nil, ErrTruncated
			}
			if idxStop, err = bd.u8(); err != nil {
				return nil, nil, ErrTruncated
			}
			if idxStart > idxStop {
				return nil, nil, fmt.Errorf("%w: TLV index range [%d,%d]", ErrMalformed, idxStart, idxStop)
			}
		}
		var value []byte
		if flags&tlvFlagHasValue != 0 {
			var vlen int
			if flags&tlvFlagWideLen != 0 {
				wl, err := bd.u16()
				if err != nil {
					return nil, nil, ErrTruncated
				}
				vlen = int(wl)
			} else {
				bl, err := bd.u8()
				if err != nil {
					return nil, nil, ErrTruncated
				}
				vlen = int(bl)
			}
			raw, err := bd.bytes(vlen)
			if err != nil {
				return nil, nil, fmt.Errorf("TLV value (%d bytes): %w", vlen, err)
			}
			if vlen > 0 {
				value = raw // aliases the input, see DecodePacket
			}
		} else if flags&tlvFlagWideLen != 0 {
			return nil, nil, fmt.Errorf("%w: wide-length flag without value", ErrMalformed)
		}
		if hasIndex {
			atlvs = append(atlvs, AddrTLV{Type: typ, IndexStart: idxStart, IndexStop: idxStop, Value: value})
		} else {
			tlvs = append(tlvs, TLV{Type: typ, Value: value})
		}
	}
	return tlvs, atlvs, nil
}

// decodeAddrBlock reads one address block from d into the zero AddrBlock b.
func decodeAddrBlock(d *decoder, b *AddrBlock) error {
	num, err := d.u8()
	if err != nil {
		return fmt.Errorf("address count: %w", err)
	}
	if num == 0 {
		return fmt.Errorf("%w: empty address block", ErrMalformed)
	}
	flags, err := d.u8()
	if err != nil {
		return fmt.Errorf("flags: %w", err)
	}
	if flags&^(abFlagHasHead|abFlagHasPrefixes) != 0 {
		return fmt.Errorf("%w: unknown address block flags %#x", ErrMalformed, flags)
	}
	headLen := 0
	var head []byte
	if flags&abFlagHasHead != 0 {
		hl, err := d.u8()
		if err != nil {
			return fmt.Errorf("head length: %w", err)
		}
		if int(hl) == 0 || int(hl) >= mnet.AddrLen {
			return fmt.Errorf("%w: head length %d", ErrMalformed, hl)
		}
		headLen = int(hl)
		if head, err = d.bytes(headLen); err != nil {
			return fmt.Errorf("head bytes: %w", err)
		}
	}
	b.Addrs = make([]mnet.Addr, num)
	tail := mnet.AddrLen - headLen
	for i := range b.Addrs {
		tb, err := d.bytes(tail)
		if err != nil {
			return fmt.Errorf("address %d: %w", i, err)
		}
		copy(b.Addrs[i][:headLen], head)
		copy(b.Addrs[i][headLen:], tb)
	}
	if flags&abFlagHasPrefixes != 0 {
		pb, err := d.bytes(int(num))
		if err != nil {
			return fmt.Errorf("prefix lengths: %w", err)
		}
		b.PrefixLens = pb
		for _, p := range pb {
			if int(p) > 8*mnet.AddrLen {
				return fmt.Errorf("%w: prefix length %d", ErrMalformed, p)
			}
		}
	}
	_, atlvs, err := decodeTLVBlock(d, true)
	if err != nil {
		return fmt.Errorf("address TLVs: %w", err)
	}
	for _, tlv := range atlvs {
		if int(tlv.IndexStop) >= int(num) {
			return fmt.Errorf("%w: TLV index %d over %d addresses", ErrMalformed, tlv.IndexStop, num)
		}
	}
	b.TLVs = atlvs
	return nil
}
