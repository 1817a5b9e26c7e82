package event

import (
	"sync"
	"sync/atomic"

	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
)

// Borrowed events. The events the framework raises on every reception, relay
// and forwarded data packet (System.receive's *_IN events, the packet
// filter's routing triggers, Relay), and the link sensor's LINK_INFO and the
// link-sensing CFs' NHOOD_CHANGE, live in recyclable carriers instead of one
// heap object each. A carrier counts holds: the creator's, which the
// first emission takes over, and one per delivery the Framework Manager
// schedules, dropped when that delivery's Accept returns. The last release
// poisons the carrier and returns it to the free list, so an event, its Route
// and a relayed Msg header are valid only until the handler, interposer,
// sniffer or context subscriber reading them returns. A received Msg (a
// *_IN event's) has no carrier but the same lifetime: it points into its
// frame's decode, which the medium recycles with the frame's bytes
// (emunet.Frame.Decoded). Nothing lent is kept: whoever keeps one copies it
// (*ev, *ev.Route, ev.Msg.Clone(), *ev.Link, *ev.Nhood with
// slices.Clone(ev.Nhood.TwoHopVia)). An event built with &Event{} has no
// carrier: Hold, Release and Claim leave it alone.

// carrier is the recyclable home of a borrowed event: the event, room for
// its routing, link or neighbourhood payload (with a reused buffer for the
// 2-hop list) and for a relayed message header, and its holds.
type carrier struct {
	ev    Event
	route RoutePayload
	link  LinkPayload
	nhood NhoodPayload
	via   []mnet.Addr
	msg   packetbb.Message
	holds atomic.Int32
	// fresh marks a carrier not yet emitted, whose creator's hold the first
	// Claim hands to the emitter. Written only before the event is shared
	// and by that first Claim, which happens before any delivery starts.
	fresh bool
}

// carriers is the free list released carriers wait in, up to its capacity,
// behind a spare slot taken and filled without the lock, so the common
// borrow-then-release cycle never takes the mutex (the slot links to
// nothing, so no ABA). Unlike a sync.Pool, neither a collection nor the
// race detector empties them, so a steady borrower never allocates.
var carriers = struct {
	spare atomic.Pointer[carrier]
	sync.Mutex
	free []*carrier
}{free: make([]*carrier, 0, 64)}

// Borrow returns an empty event of type t owned by the framework: the first
// Emit takes it over, and it is valid only until its last delivery returns.
func Borrow(t Type) *Event {
	c := carriers.spare.Swap(nil)
	if c == nil {
		carriers.Lock()
		if n := len(carriers.free) - 1; n >= 0 {
			c, carriers.free = carriers.free[n], carriers.free[:n]
		} else { // every payload but the one an event carries holds the poison
			c = &carrier{route: poisonRoute, link: poisonLink, msg: poisonMsg, nhood: NhoodPayload{Neighbor: poisonAddr}}
		}
		carriers.Unlock()
	}
	c.holds.Store(1)
	c.fresh = true
	c.ev = Event{Type: t, c: c}
	return &c.ev
}

// WithRoute borrows an event of type t carrying rp in its carrier.
func WithRoute(t Type, rp RoutePayload) *Event {
	ev := Borrow(t)
	ev.c.route = rp
	ev.Route = &ev.c.route
	return ev
}

// WithLink borrows a LINK_INFO carrying lp in its carrier.
func WithLink(lp LinkPayload) *Event {
	ev := Borrow(LinkInfo)
	ev.c.link = lp
	ev.Link = &ev.c.link
	return ev
}

// WithNhood borrows a NHOOD_CHANGE carrying np in its carrier, its
// TwoHopVia copied into the carrier's buffer.
func WithNhood(np NhoodPayload) *Event {
	ev := Borrow(NhoodChange)
	ev.c.via = append(ev.c.via[:0], np.TwoHopVia...)
	ev.c.nhood, ev.c.nhood.TwoHopVia = np, ev.c.via
	ev.Nhood = &ev.c.nhood
	return ev
}

// Relay borrows the event forwarding msg to dst with only its hop fields
// changed (packetbb.Message.Relay): the relayed header lives in the carrier,
// the body stays the received packet's.
func Relay(t Type, msg *packetbb.Message, dst mnet.Addr) *Event {
	ev := Borrow(t)
	ev.Dst = dst
	ev.c.msg = msg.Relay()
	ev.Msg = &ev.c.msg
	return ev
}

// carrier returns the carrier ev lives in, or nil for an event built with
// &Event{} or a copy of a borrowed one.
func (ev *Event) carrier() *carrier {
	if c := ev.c; c != nil && &c.ev == ev {
		return c
	}
	return nil
}

// Claim is called by each emission of ev. It reports whether this was the
// first emission of a borrowed event, whose caller now owns the creator's
// hold and must Release it once every delivery has been scheduled. A
// re-emission (an interposer passing on the event it was handed) claims
// nothing: the hold of the delivery it runs in covers it.
func (ev *Event) Claim() bool {
	c := ev.carrier()
	if c == nil || !c.fresh {
		return false
	}
	c.fresh = false
	return true
}

// Hold adds one hold on a borrowed event: a delivery that will read it.
func (ev *Event) Hold() {
	if c := ev.carrier(); c != nil {
		c.holds.Add(1)
	}
}

// Release drops one hold on a borrowed event. The last poisons the event
// and the one payload it carried (the others hold the poison already) and
// frees the carrier; releasing an event with no hold left panics.
func (ev *Event) Release() {
	c := ev.carrier()
	if c == nil {
		return
	}
	switch n := c.holds.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("event: Release of an event with no hold left")
	}
	switch {
	case c.ev.Route == &c.route:
		c.route = poisonRoute
	case c.ev.Link == &c.link:
		c.link = poisonLink
	case c.ev.Msg == &c.msg:
		c.msg = poisonMsg
	case c.ev.Nhood == &c.nhood:
		c.nhood = NhoodPayload{Neighbor: poisonAddr, TwoHopVia: c.via}
		for i := range c.via {
			c.via[i] = poisonAddr
		}
	}
	c.ev = poisonEvent
	c.ev.c, c.ev.Msg, c.ev.Route, c.ev.Link, c.ev.Nhood = c, &c.msg, &c.route, &c.link, &c.nhood
	if carriers.spare.CompareAndSwap(nil, c) {
		return
	}
	carriers.Lock()
	if len(carriers.free) < cap(carriers.free) {
		carriers.free = append(carriers.free, c)
	}
	carriers.Unlock()
}

// Poisoned reports whether ev is a released borrowed event: whoever still
// reads it kept a pointer the ownership rule says to copy.
func (ev *Event) Poisoned() bool { return ev.Type == poisonType }

// The poison a released carrier holds until it is borrowed again: no field
// reads as a plausible event, route or message.
const poisonType Type = "\x00released-event"

var (
	poisonAddr  = mnet.Addr{0xde, 0xad, 0xde, 0xad}
	poisonEvent = Event{
		Type: poisonType, Src: poisonAddr, Dst: poisonAddr,
		Device: string(poisonType), Corr: string(poisonType),
	}
	poisonRoute = RoutePayload{Dst: poisonAddr, Src: poisonAddr, NextHop: poisonAddr, PacketID: 0xdeaddeaddeaddead}
	poisonLink  = LinkPayload{Neighbor: poisonAddr, Quality: -1, SignalDBm: -0xdead}
	poisonMsg   = packetbb.Message{Type: 0xde, Originator: poisonAddr, HopLimit: 0xde, HopCount: 0xde, SeqNum: 0xdead}
)
