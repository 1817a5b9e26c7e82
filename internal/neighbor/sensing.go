package neighbor

import (
	"sync/atomic"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
)

// maxBlockAddrs is packetbb's limit on the addresses of one address block.
const maxBlockAddrs = 255

// Sensor is the link-sensing core both HELLO CFs run on, the Neighbour
// Detection CF and the MPR CF: the link set and the HELLO sequence number,
// with the HELLO builder, the reception step and the expiry sweep. Each CF
// adds its own message TLVs and its own NHOOD_CHANGE policy. Receive runs
// in the owning CF's critical section, which serialises its scratch.
type Sensor struct {
	table *Table
	seq   atomic.Uint32 // low 16 bits: the last HELLO's sequence number
	syms  []mnet.Addr   // the last received HELLO's symmetric neighbours
}

// NewSensor returns a sensor over the link set t.
func NewSensor(t *Table) *Sensor { return &Sensor{table: t} }

// Table returns the link set.
func (s *Sensor) Table() *Table { return s.table }

// Hello builds this node's next HELLO: the caller's message TLVs, then one
// link-status address TLV per sensed neighbour, each followed by an ATLVMPR
// flag when relay (if non-nil) reports it. Neighbours go into address
// blocks of at most 255, packetbb's limit, with TLV indices per block.
func (s *Sensor) Hello(self mnet.Addr, tlvs []packetbb.TLV, relay func(mnet.Addr) bool) *packetbb.Message {
	msg := &packetbb.Message{
		Type:       packetbb.MsgHello,
		Originator: self,
		HopLimit:   1,
		SeqNum:     uint16(s.seq.Add(1)),
		TLVs:       tlvs,
	}
	var buf [32]Info // the neighbour list stays on the stack up to 32
	nbs := s.table.AppendNeighbors(buf[:0], false)
	for len(nbs) > 0 {
		n := min(len(nbs), maxBlockAddrs)
		blk := packetbb.AddrBlock{Addrs: make([]mnet.Addr, n)}
		for i, nb := range nbs[:n] {
			blk.Addrs[i] = nb.Addr
			status := packetbb.LinkStatusHeard
			if nb.Status == StatusSymmetric {
				status = packetbb.LinkStatusSymmetric
			}
			idx := uint8(i)
			blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{Type: packetbb.ATLVLinkStatus, IndexStart: idx, IndexStop: idx, Value: packetbb.U8(status)})
			if relay != nil && relay(nb.Addr) {
				blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{Type: packetbb.ATLVMPR, IndexStart: idx, IndexStop: idx})
			}
		}
		msg.AddrBlocks = append(msg.AddrBlocks, blk)
		nbs = nbs[n:]
	}
	return msg
}

// ParseHello extracts the sender's view from a HELLO in one pass over its
// address blocks: whether it lists us as heard or symmetric, whether it
// flags us as its relay (ATLVMPR), its willingness, and its symmetric
// neighbour set, appended to syms.
func ParseHello(msg *packetbb.Message, self mnet.Addr, syms []mnet.Addr) (listsUs, relaysUs bool, willingness uint8, symNeighbors []mnet.Addr) {
	symNeighbors = syms
	willingness = WillDefault
	if tlv, ok := msg.FindTLV(packetbb.TLVWillingness); ok {
		if w, err := packetbb.ParseU8(tlv.Value); err == nil {
			willingness = w
		}
	}
	for bi := range msg.AddrBlocks {
		blk := &msg.AddrBlocks[bi]
		for i, a := range blk.Addrs {
			st := packetbb.LinkStatusHeard
			if tlv, ok := blk.AddrTLVFor(packetbb.ATLVLinkStatus, i); ok {
				if v, err := packetbb.ParseU8(tlv.Value); err == nil {
					st = v
				}
			}
			if a == self {
				if st == packetbb.LinkStatusSymmetric || st == packetbb.LinkStatusHeard {
					listsUs = true
				}
				if _, ok := blk.AddrTLVFor(packetbb.ATLVMPR, i); ok {
					relaysUs = true
				}
				continue
			}
			if st == packetbb.LinkStatusSymmetric {
				symNeighbors = append(symNeighbors, a)
			}
		}
	}
	return listsUs, relaysUs, willingness, symNeighbors
}

// Heard is what one received HELLO changed in the link set: the sender's
// record after it (Addr is the originator, else the link-level source; its
// TwoHop is the sensor's scratch, valid until the next Receive), its status
// before it, and whether it flags us as its relay.
type Heard struct {
	Info
	Prev     Status // 0 when the sender is new
	RelaysUs bool
}

// Receive records a HELLO_IN event's HELLO in the link set. ok is false
// for an event that carries no message.
func (s *Sensor) Receive(ctx *core.Context, ev *event.Event) (h Heard, ok bool) {
	if ev.Msg == nil {
		return h, false
	}
	src := ev.Msg.Originator
	if src.IsUnspecified() {
		src = ev.Src
	}
	listsUs, relaysUs, will, syms := ParseHello(ev.Msg, ctx.Node(), s.syms[:0])
	s.syms = syms
	now := ctx.Clock().Now()
	h.Prev = s.table.Observe(src, listsUs, will, syms, now)
	h.Info = Info{Addr: src, Status: StatusHeard, LastHeard: now, Willingness: will, TwoHop: syms}
	if listsUs {
		h.Status = StatusSymmetric
	}
	h.RelaysUs = relaysUs
	return h, true
}

// Sweep marks every neighbour silent for HoldTime as lost, running lost
// (if non-nil) and then emitting NeighborLost for each, and forgets those
// lost for 3 × HoldTime. It returns how many it marked lost.
func (s *Sensor) Sweep(ctx *core.Context, lost func(mnet.Addr)) int {
	now := ctx.Clock().Now()
	gone := s.table.Expire(now.Add(-HoldTime))
	for _, nb := range gone {
		if lost != nil {
			lost(nb)
		}
		Notify(ctx, event.NeighborLost, nb, nil)
	}
	s.table.Drop(now.Add(-3 * HoldTime))
	return len(gone)
}

// Notify emits a borrowed NHOOD_CHANGE of the given kind about nb, whose
// 2-hop neighbours are via (copied into the carrier).
func Notify(ctx *core.Context, kind event.ChangeKind, nb mnet.Addr, via []mnet.Addr) {
	ctx.Emit(event.WithNhood(event.NhoodPayload{Kind: kind, Neighbor: nb, TwoHopVia: via}))
}
