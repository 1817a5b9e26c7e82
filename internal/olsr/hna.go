package olsr

import (
	"slices"
	"sort"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
)

// Host and Network Association (HNA) support, as in RFC 3626 §12: nodes
// with attached (non-MANET) networks periodically flood HNA messages
// associating their address with the network prefixes they can reach;
// every node installs prefix routes towards the advertising gateway. HNA
// is enabled by EnableHNA — another fine-grained reconfiguration: it plugs
// an hna-generator source and an hna-handler into the OLSR CF and extends
// the event tuple declaratively.

// hnaEntry is one learned gateway association.
type hnaEntry struct {
	gateway mnet.Addr
	expires time.Time
}

// AdvertiseNetwork announces an attached network prefix in this node's HNA
// messages (call EnableHNA first, or the advertisement never leaves).
func (o *OLSR) AdvertiseNetwork(p mnet.Prefix) {
	o.state.mu.Lock()
	defer o.state.mu.Unlock()
	if o.state.attached == nil {
		o.state.attached = make(map[mnet.Prefix]bool)
	}
	o.state.attached[p] = true
}

// WithdrawNetwork stops announcing the prefix; remote routes age out with
// the HNA hold time.
func (o *OLSR) WithdrawNetwork(p mnet.Prefix) {
	o.state.mu.Lock()
	defer o.state.mu.Unlock()
	delete(o.state.attached, p)
}

// AttachedNetworks returns the prefixes this node currently announces.
func (o *OLSR) AttachedNetworks() []mnet.Prefix {
	o.state.mu.Lock()
	defer o.state.mu.Unlock()
	out := make([]mnet.Prefix, 0, len(o.state.attached))
	for p := range o.state.attached {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return prefixLess(out[i], out[j]) })
	return out
}

// EnableHNA plugs gateway support into a (possibly running) OLSR CF:
// an hna-generator Event Source and an hna-handler, plus the HNA event
// types on the tuple. interval defaults to the TC interval.
func (o *OLSR) EnableHNA(interval time.Duration) error {
	if interval <= 0 {
		interval = TCInterval
	}
	if err := o.proto.AddHandler(core.NewHandler("hna-handler", event.HNAIn, o.onHNA)); err != nil {
		return err
	}
	if err := o.proto.AddSource(core.NewSource("hna-generator", interval, tcJitter, o.emitHNA)); err != nil {
		return err
	}
	t := o.proto.Tuple()
	t.Required = append(t.Required, event.Requirement{Type: event.HNAIn})
	t.Provided = append(t.Provided, event.HNAOut)
	o.proto.SetTuple(t)
	return nil
}

// DisableHNA removes gateway support; learned prefixes age out.
func (o *OLSR) DisableHNA() error {
	if err := o.proto.RemoveSource("hna-generator"); err != nil {
		return err
	}
	if err := o.proto.RemoveHandler("hna-handler"); err != nil {
		return err
	}
	t := o.proto.Tuple()
	t.Required = slices.DeleteFunc(slices.Clone(t.Required), func(r event.Requirement) bool { return r.Type == event.HNAIn })
	t.Provided = slices.DeleteFunc(slices.Clone(t.Provided), func(p event.Type) bool { return p == event.HNAOut })
	o.proto.SetTuple(t)
	return nil
}

// BuildHNA assembles the node's HNA message: an address block of attached
// network prefixes.
func (o *OLSR) BuildHNA(self mnet.Addr) *packetbb.Message {
	attached := o.AttachedNetworks()
	if len(attached) == 0 {
		return nil
	}
	blk := packetbb.AddrBlock{}
	for _, p := range attached {
		blk.Addrs = append(blk.Addrs, p.Addr)
		blk.PrefixLens = append(blk.PrefixLens, uint8(p.Bits))
	}
	// Flag every address as a gateway association.
	blk.TLVs = append(blk.TLVs, packetbb.AddrTLV{
		Type: packetbb.ATLVGateway, IndexStart: 0, IndexStop: uint8(len(blk.Addrs) - 1),
	})
	return &packetbb.Message{
		Type:       packetbb.MsgHNA,
		Originator: self,
		HopLimit:   255,
		SeqNum:     o.state.NextMsgSeq(),
		AddrBlocks: []packetbb.AddrBlock{blk},
	}
}

func (o *OLSR) emitHNA(ctx *core.Context) {
	msg := o.BuildHNA(ctx.Node())
	if msg == nil {
		return
	}
	o.m.Flooder().Seen(ctx.Node(), msg.SeqNum, ctx.Clock().Now())
	ctx.Emit(&event.Event{Type: event.HNAOut, Msg: msg, Dst: mnet.Broadcast})
}

// onHNA learns gateway associations and forwards the flood via MPR.
func (o *OLSR) onHNA(ctx *core.Context, ev *event.Event) error {
	msg := ev.Msg
	if msg == nil || msg.Originator == ctx.Node() || len(msg.AddrBlocks) == 0 {
		return nil
	}
	now := ctx.Clock().Now()
	blk := &msg.AddrBlocks[0]
	o.state.mu.Lock()
	if o.state.hna == nil {
		o.state.hna = make(map[mnet.Prefix]hnaEntry)
	}
	for i, a := range blk.Addrs {
		bits := 8 * mnet.AddrLen
		if len(blk.PrefixLens) == len(blk.Addrs) {
			bits = int(blk.PrefixLens[i])
		}
		p := mnet.Prefix{Addr: a, Bits: bits}
		o.state.hna[p] = hnaEntry{gateway: msg.Originator, expires: now.Add(3 * TCInterval)}
	}
	o.state.mu.Unlock()
	o.markDirty(ctx)

	if msg.HopLimit > 1 && o.m.Flooder().ShouldForward(msg.Originator, msg.SeqNum, ev.Src, now) {
		ctx.Emit(event.Relay(event.HNAOut, msg, mnet.Broadcast))
	}
	return nil
}
