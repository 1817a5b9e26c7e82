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

// block reads a u16 length and then that many bytes.
func (d *decoder) block() ([]byte, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	return d.bytes(int(n))
}

// decoded is the one object DecodePacket allocates for a typical packet (a
// whole TC; a HELLO but for its address TLVs). Keep it in one small size
// class: it is zeroed on every decode, and a 1 KiB arena cost more than it saved.
type decoded struct {
	pkt    Packet
	msgs   [1]Message
	tlvs   [2]TLV
	blocks [1]AddrBlock
	addrs  [8]mnet.Addr
}

// Room is that object for a caller that lends its decodes and takes them
// back: DecodePacketInto builds the packet in it, over whatever an earlier
// decode or Poison left there, instead of allocating one.
type Room struct{ d decoded }

// Packet returns the packet the room's last successful DecodePacketInto
// built.
func (r *Room) Packet() *Packet { return &r.d.pkt }

// Poison marks a released decode: the packet, and every message, TLV,
// address block and address it reaches, in the room or beyond it, reads
// 0xde… (Message.Poisoned), as the released bytes its values aliased do.
// A caller that kept a message without cloning it reads the poison.
func (r *Room) Poison() {
	p := &r.d.pkt
	for i := range p.Messages {
		m := &p.Messages[i]
		poisonTLVs(m.TLVs)
		for j := range m.AddrBlocks {
			b := &m.AddrBlocks[j]
			for k := range b.Addrs {
				b.Addrs[k] = poisonAddr
			}
			for k := range b.TLVs {
				b.TLVs[k] = AddrTLV{Type: 0xde, IndexStart: 0xde, IndexStop: 0xde}
			}
			*b = AddrBlock{}
		}
		*m = poisonMsg
	}
	poisonTLVs(p.TLVs)
	*p = Packet{SeqNum: 0xdead, HasSeqNum: true}
}

func poisonTLVs(tlvs []TLV) {
	for i := range tlvs {
		tlvs[i] = TLV{Type: 0xde}
	}
}

var (
	poisonAddr = mnet.Addr{0xde, 0xad, 0xde, 0xad}
	poisonMsg  = Message{Type: 0xde, Originator: poisonAddr, HopLimit: 0xde, HopCount: 0xde, SeqNum: 0xdead}
)

// Poisoned reports whether m is a message of a decode its Room has released
// (Room.Poison): whoever reads it kept what the lending rule says to clone.
func (m *Message) Poisoned() bool {
	return m.Type == poisonMsg.Type && m.Originator == poisonAddr && m.SeqNum == poisonMsg.SeqNum &&
		m.TLVs == nil && m.AddrBlocks == nil
}

// arena hands out one decoded object's room, in order; see carve.
type arena struct {
	room                          *decoded
	nMsgs, nTLVs, nBlocks, nAddrs int // elements handed out so far
}

// carve returns n zeroed elements (nil for none): the next n of room while
// they last, else a slice of their own. Either way the capacity is exactly
// n, so an append on one decoded slice copies instead of running on.
func carve[T any](room []T, used *int, n int) []T {
	if n == 0 {
		return nil
	}
	if *used+n > len(room) {
		return make([]T, n)
	}
	s := room[*used : *used+n : *used+n]
	*used += n
	return s
}

// DecodePacket parses a wire-form packet. The result aliases buf: TLV values
// and prefix lengths are sub-slices of it, not copies, so buf must stay
// unmodified for as long as the packet (or any message taken from it) is in
// use. The decoder itself never writes to buf. A caller that wants to change
// a decoded message calls Clone first, which shares nothing with buf; one
// that forwards it with new hop fields calls Relay.
//
// Every slice is sized exactly, from element counts read off the input
// first. A TC is one allocation; a HELLO adds its address TLVs.
func DecodePacket(buf []byte) (*Packet, error) { return DecodePacketInto(buf, nil) }

// DecodePacketInto is DecodePacket building the packet in room, so a TC
// costs no allocation: the result is the one DecodePacket returns for buf,
// errors included, and shares nothing with room's earlier decode. It lives
// in room, valid until room's next decode or Poison. A nil room is a new
// one.
func DecodePacketInto(buf []byte, room *Room) (*Packet, error) {
	d := decoder{buf: buf}
	flags, err := d.u8()
	if err != nil {
		return nil, fmt.Errorf("packet header: %w", err)
	}
	if flags&^(pktFlagHasSeq|pktFlagHasTLVs) != 0 {
		return nil, fmt.Errorf("%w: unknown packet flags %#x", ErrMalformed, flags)
	}
	if room == nil {
		room = new(Room)
	} else {
		room.d = decoded{}
	}
	a := arena{room: &room.d}
	p := &a.room.pkt
	if flags&pktFlagHasSeq != 0 {
		p.HasSeqNum = true
		if p.SeqNum, err = d.u16(); err != nil {
			return nil, fmt.Errorf("packet seqnum: %w", err)
		}
	}
	if flags&pktFlagHasTLVs != 0 {
		if p.TLVs, err = decodeTLVs(&d, &a); err != nil {
			return nil, fmt.Errorf("packet TLVs: %w", err)
		}
	}
	// Step over the messages once to count them, then decode them into
	// exactly that many; address blocks are sized the same way.
	n := 0
	for cd := d; cd.remaining() > 0; n++ {
		if err := decodeMessage(&cd, nil, nil); err != nil {
			return nil, fmt.Errorf("message %d: %w", n, err)
		}
	}
	p.Messages = carve(a.room.msgs[:], &a.nMsgs, n)
	for i := range p.Messages {
		if err := decodeMessage(&d, &p.Messages[i], &a); err != nil {
			return nil, fmt.Errorf("message %d: %w", i, err)
		}
	}
	return p, nil
}

// DecodeMessage parses a single wire-form message; it requires the buffer to
// contain exactly one message. Like DecodePacket, the result aliases buf.
func DecodeMessage(buf []byte) (*Message, error) {
	d := decoder{buf: buf}
	a := arena{room: new(decoded)}
	m := &a.room.msgs[0]
	if err := decodeMessage(&d, m, &a); err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after message", ErrMalformed, d.remaining())
	}
	return m, nil
}

// decodeMessage reads one message from d into the zero Message m. With m
// nil it only steps over the message.
func decodeMessage(d *decoder, m *Message, a *arena) error {
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
	if m == nil {
		return nil
	}
	md := decoder{buf: body}

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
	if m.TLVs, err = decodeTLVs(&md, a); err != nil {
		return fmt.Errorf("message TLVs: %w", err)
	}
	n := 0
	for cd := md; cd.remaining() > 0; n++ {
		if err := decodeAddrBlock(&cd, nil, nil); err != nil {
			return fmt.Errorf("address block %d: %w", n, err)
		}
	}
	m.AddrBlocks = carve(a.room.blocks[:], &a.nBlocks, n)
	for i := range m.AddrBlocks {
		if err := decodeAddrBlock(&md, &m.AddrBlocks[i], a); err != nil {
			return fmt.Errorf("address block %d: %w", i, err)
		}
	}
	return nil
}

// tlvBlock reads one TLV block from d and counts its entries, validating
// each: address TLVs (indexed) carry an index range, others must not. The
// returned cursor is at the block's first entry.
func tlvBlock(d *decoder, indexed bool) (decoder, int, error) {
	block, err := d.block()
	if err != nil {
		return decoder{}, 0, fmt.Errorf("TLV block: %w", err)
	}
	n := 0
	for bd := (decoder{buf: block}); bd.remaining() > 0; n++ {
		if _, err := nextTLV(&bd, indexed); err != nil {
			return decoder{}, 0, err
		}
	}
	return decoder{buf: block}, n, nil
}

// decodeTLVs reads a packet's or a message's TLV block.
func decodeTLVs(d *decoder, a *arena) ([]TLV, error) {
	bd, n, err := tlvBlock(d, false)
	if err != nil {
		return nil, err
	}
	tlvs := carve(a.room.tlvs[:], &a.nTLVs, n)
	for i := range tlvs {
		t, _ := nextTLV(&bd, false) // tlvBlock has validated every entry
		tlvs[i] = TLV{Type: t.Type, Value: t.Value}
	}
	return tlvs, nil
}

// nextTLV reads one TLV entry; a message TLV comes back with a zero index
// range.
func nextTLV(bd *decoder, indexed bool) (AddrTLV, error) {
	var t AddrTLV
	var err error
	if t.Type, err = bd.u8(); err != nil {
		return t, err
	}
	flags, err := bd.u8()
	if err != nil {
		return t, ErrTruncated
	}
	if flags&^(tlvFlagHasValue|tlvFlagHasIndex|tlvFlagWideLen) != 0 {
		return t, fmt.Errorf("%w: unknown TLV flags %#x", ErrMalformed, flags)
	}
	hasIndex := flags&tlvFlagHasIndex != 0
	if hasIndex != indexed {
		return t, fmt.Errorf("%w: TLV indexing mismatch (indexed=%v)", ErrMalformed, hasIndex)
	}
	if hasIndex {
		idx, err := bd.bytes(2)
		if err != nil {
			return t, err
		}
		if t.IndexStart, t.IndexStop = idx[0], idx[1]; t.IndexStart > t.IndexStop {
			return t, fmt.Errorf("%w: TLV index range [%d,%d]", ErrMalformed, t.IndexStart, t.IndexStop)
		}
	}
	if flags&tlvFlagHasValue == 0 {
		if flags&tlvFlagWideLen != 0 {
			return t, fmt.Errorf("%w: wide-length flag without value", ErrMalformed)
		}
		return t, nil
	}
	var vlen uint16
	if flags&tlvFlagWideLen != 0 {
		vlen, err = bd.u16()
	} else {
		var b byte
		b, err = bd.u8()
		vlen = uint16(b)
	}
	if err != nil {
		return t, ErrTruncated
	}
	raw, err := bd.bytes(int(vlen))
	if err != nil {
		return t, fmt.Errorf("TLV value (%d bytes): %w", vlen, err)
	}
	if vlen > 0 {
		t.Value = raw // aliases the input, see DecodePacket
	}
	return t, nil
}

// decodeAddrBlock reads one address block from d into the zero AddrBlock b.
// With b nil it only steps over the block, which is how decodeMessage counts
// a message's blocks; the block's contents are checked when it is decoded.
func decodeAddrBlock(d *decoder, b *AddrBlock, a *arena) error {
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
	var head []byte
	if flags&abFlagHasHead != 0 {
		hl, err := d.u8()
		if err != nil {
			return fmt.Errorf("head length: %w", err)
		}
		if int(hl) == 0 || int(hl) >= mnet.AddrLen {
			return fmt.Errorf("%w: head length %d", ErrMalformed, hl)
		}
		if head, err = d.bytes(int(hl)); err != nil {
			return fmt.Errorf("head bytes: %w", err)
		}
	}
	tail := mnet.AddrLen - len(head)
	tails, err := d.bytes(int(num) * tail)
	if err != nil {
		return fmt.Errorf("addresses: %w", err)
	}
	var prefixes []byte
	if flags&abFlagHasPrefixes != 0 {
		if prefixes, err = d.bytes(int(num)); err != nil {
			return fmt.Errorf("prefix lengths: %w", err)
		}
	}
	if b == nil {
		if _, err := d.block(); err != nil {
			return fmt.Errorf("address TLVs: %w", err)
		}
		return nil
	}
	for _, p := range prefixes {
		if int(p) > 8*mnet.AddrLen {
			return fmt.Errorf("%w: prefix length %d", ErrMalformed, p)
		}
	}
	b.PrefixLens = prefixes
	b.Addrs = carve(a.room.addrs[:], &a.nAddrs, int(num))
	var addr mnet.Addr
	copy(addr[:], head)
	for i := range b.Addrs {
		copy(addr[len(head):], tails[i*tail:])
		b.Addrs[i] = addr
	}
	bd, n, err := tlvBlock(d, true)
	if err != nil {
		return fmt.Errorf("address TLVs: %w", err)
	}
	if n > 0 {
		b.TLVs = make([]AddrTLV, n)
	}
	for i := range b.TLVs {
		b.TLVs[i], _ = nextTLV(&bd, true) // tlvBlock has validated every entry
		if int(b.TLVs[i].IndexStop) >= int(num) {
			return fmt.Errorf("%w: TLV index %d over %d addresses", ErrMalformed, b.TLVs[i].IndexStop, num)
		}
	}
	return nil
}
