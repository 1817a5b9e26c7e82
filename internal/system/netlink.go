package system

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
)

// dataHeader is the wire header of a data packet:
// [wireData][src 4][dst 4][ttl 1][id 8][payload...].
const dataHeaderLen = 1 + 2*mnet.AddrLen + 1 + 8

// wireStackLen is the longest data frame transmit encodes on its stack (the
// medium copies what it sends); a longer one spills to the heap.
const wireStackLen = 256

// dataPacket is a decoded data packet. Payload aliases whatever it was
// decoded from or handed in as — a received frame (read-only, like every
// emunet.Frame.Payload) or SendData's argument — so it is valid for the
// call that carries it; only hold keeps a packet, and hold copies.
type dataPacket struct {
	Src     mnet.Addr
	Dst     mnet.Addr
	TTL     uint8
	ID      uint64
	Payload []byte
}

// appendData appends p's wire form to buf; transmit hands it a stack array.
func appendData(buf []byte, p dataPacket) []byte {
	buf = append(buf, wireData)
	buf = append(buf, p.Src[:]...)
	buf = append(buf, p.Dst[:]...)
	buf = append(buf, p.TTL)
	buf = binary.BigEndian.AppendUint64(buf, p.ID)
	return append(buf, p.Payload...)
}

var errMalformedData = errors.New("system: malformed data packet")

func decodeData(b []byte) (dataPacket, error) {
	if len(b) < dataHeaderLen || b[0] != wireData {
		return dataPacket{}, errMalformedData
	}
	p := dataPacket{TTL: b[9], ID: binary.BigEndian.Uint64(b[10:]), Payload: b[dataHeaderLen:len(b):len(b)]}
	copy(p.Src[:], b[1:5])
	copy(p.Dst[:], b[5:9])
	return p, nil
}

// Netlink is the public face of the packet-filter component — the analogue
// of the paper's kernel module using Netfilter hooks to "examine, hold,
// drop" packets (§5.2).
type Netlink netlink

// Packet-filter parameters, implementation choices.
const (
	// dataTTL is the hop limit stamped on originated data packets. No
	// route longer than 16 hops delivers, though a reactive protocol's
	// control hop limit may find one (mkemu gives DYMO nodes+2).
	dataTTL = 16
	// bufferCap bounds the per-destination packet buffer.
	bufferCap = 16
	// bufferTimeout drops buffered packets whose route discovery never
	// completes.
	bufferTimeout = 5 * time.Second
)

// netlink is the implementation.
type netlink struct {
	s *System

	// onFeedback is feedback as a func value, made once: every transmit
	// registers it, so a hop costs no closure.
	onFeedback func(f emunet.Frame, delivered bool)

	mu        sync.Mutex
	nextID    uint64
	buffered  map[mnet.Addr][]dataPacket
	onDeliver func(src mnet.Addr, payload []byte)
}

func newNetlink(s *System) *netlink {
	nl := &netlink{s: s, buffered: make(map[mnet.Addr][]dataPacket)}
	nl.onFeedback = nl.feedback
	return nl
}

// OnDeliver installs the local-delivery upcall for data packets addressed
// to this node. payload is a view of the received frame (or of SendData's
// argument, for a packet a node sends itself), valid until fn returns: fn
// must not write to it, and copies what it keeps.
func (n *Netlink) OnDeliver(fn func(src mnet.Addr, payload []byte)) {
	nl := (*netlink)(n)
	nl.mu.Lock()
	defer nl.mu.Unlock()
	nl.onDeliver = fn
}

// SendData originates a data packet towards dst. With a route in the FIB it
// is forwarded immediately (refreshing the route's lifetime via
// ROUTE_UPDATE); without one it is held and NO_ROUTE is raised so a
// reactive protocol can start discovery. payload is the caller's again when
// SendData returns.
func (n *Netlink) SendData(dst mnet.Addr, payload []byte) error {
	nl := (*netlink)(n)
	nl.mu.Lock()
	nl.nextID++
	pkt := dataPacket{Src: nl.s.nic.Addr(), Dst: dst, TTL: dataTTL, ID: nl.nextID, Payload: payload}
	nl.mu.Unlock()
	return nl.route(pkt, true)
}

// BufferedCount reports how many packets are held for dst.
func (n *Netlink) BufferedCount(dst mnet.Addr) int {
	nl := (*netlink)(n)
	nl.mu.Lock()
	defer nl.mu.Unlock()
	return len(nl.buffered[dst])
}

// corr derives the data packet's correlation ID — source plus the
// source-assigned packet ID, the identity every hop sees unchanged. Empty
// when tracing is disabled so the fast path stays allocation-free.
func (nl *netlink) corr(pkt dataPacket) string {
	if !nl.s.proto.Tracing() {
		return ""
	}
	return fmt.Sprintf("DATA:%s:%d", pkt.Src, pkt.ID)
}

// raise emits one of the filter's routing triggers as a borrowed event:
// event and payload end with its last delivery.
func (nl *netlink) raise(t event.Type, rp event.RoutePayload, corr string) error {
	ev := event.WithRoute(t, rp)
	ev.Corr = corr
	return nl.s.proto.Emit(ev)
}

// route forwards or buffers one packet. originated marks locally-created
// packets (eligible for buffering + NO_ROUTE).
func (nl *netlink) route(pkt dataPacket, originated bool) error {
	s := nl.s
	if pkt.Dst == s.nic.Addr() {
		nl.deliverLocal(pkt)
		return nil
	}
	r, ok := s.fib.Lookup(pkt.Dst)
	if !ok {
		if !originated {
			// Intermediate node with a broken path: tell the protocol to
			// notify the source (§5.2 SEND_ROUTE_ERR).
			s.bump(&s.stats.DataDropped)
			return nl.raise(event.SendRouteErr, event.RoutePayload{Dst: pkt.Dst, Src: pkt.Src}, nl.corr(pkt))
		}
		return nl.hold(pkt)
	}
	return nl.transmit(pkt, r.NextHop, originated)
}

// transmit sends the packet one hop with MAC feedback; a failed hop raises
// LINK_BREAK.
func (nl *netlink) transmit(pkt dataPacket, nextHop mnet.Addr, originated bool) error {
	s := nl.s
	counter := &s.stats.DataSent
	if !originated {
		if pkt.TTL <= 1 {
			s.bump(&s.stats.DataDropped)
			return nil
		}
		pkt.TTL--
		counter = &s.stats.DataForwarded
	}
	s.mu.Lock()
	*counter++
	battery := s.battery
	s.mu.Unlock()
	if battery != nil {
		battery.SpendFrame()
	}
	rp := event.RoutePayload{Dst: pkt.Dst, Src: pkt.Src, NextHop: nextHop}
	corr := nl.corr(pkt)
	var wire [wireStackLen]byte
	if err := s.nic.SendWithFeedbackTagged(nextHop, appendData(wire[:0], pkt), corr, nl.onFeedback); err != nil {
		return err
	}
	return nl.raise(event.RouteUpdate, rp, corr)
}

// feedback takes the MAC verdict on a transmitted data frame. One that did
// not arrive raises LINK_BREAK, its payload rebuilt from the frame: the
// data header's source and destination, the next hop it was sent to and
// its correlation ID.
func (nl *netlink) feedback(f emunet.Frame, delivered bool) {
	if delivered {
		return
	}
	pkt, err := decodeData(f.Payload)
	if err != nil {
		return // transmit sends only well-formed data frames
	}
	_ = nl.raise(event.LinkBreak, event.RoutePayload{Dst: pkt.Dst, Src: pkt.Src, NextHop: f.Dst}, f.Corr)
}

// hold buffers a route-less packet, which from here on owns its payload,
// and raises NO_ROUTE.
func (nl *netlink) hold(pkt dataPacket) error {
	s := nl.s
	nl.mu.Lock()
	q := nl.buffered[pkt.Dst]
	if len(q) >= bufferCap {
		nl.mu.Unlock()
		s.bump(&s.stats.DataDropped)
		return nil
	}
	pkt.Payload = append([]byte(nil), pkt.Payload...)
	nl.buffered[pkt.Dst] = append(q, pkt)
	nl.mu.Unlock()
	s.bump(&s.stats.DataBuffered)

	// Expire the held packet if discovery never completes.
	if clk := s.proto.Clock(); clk != nil {
		id, dst := pkt.ID, pkt.Dst
		clk.AfterFunc(bufferTimeout, func() { nl.expire(dst, id) })
	}
	return nl.raise(event.NoRoute, event.RoutePayload{Dst: pkt.Dst, Src: pkt.Src, PacketID: pkt.ID}, nl.corr(pkt))
}

func (nl *netlink) expire(dst mnet.Addr, id uint64) {
	nl.mu.Lock()
	q := nl.buffered[dst]
	for i, p := range q {
		if p.ID == id {
			if q = slices.Delete(q, i, i+1); len(q) == 0 {
				delete(nl.buffered, dst) // or the map keeps a key per destination ever probed
			} else {
				nl.buffered[dst] = q
			}
			nl.mu.Unlock()
			nl.s.bump(&nl.s.stats.DataDropped)
			return
		}
	}
	nl.mu.Unlock()
}

// reinject drains the buffer for dst after ROUTE_FOUND.
func (nl *netlink) reinject(dst mnet.Addr) {
	nl.mu.Lock()
	q := nl.buffered[dst]
	delete(nl.buffered, dst)
	nl.mu.Unlock()
	for _, pkt := range q {
		_ = nl.route(pkt, true)
	}
}

// receiveData handles an incoming data frame: local delivery or forwarding.
func (nl *netlink) receiveData(f emunet.Frame) {
	pkt, err := decodeData(f.Payload)
	if err != nil {
		nl.s.bump(&nl.s.stats.DecodeErrors)
		return
	}
	_ = nl.route(pkt, false)
}

func (nl *netlink) deliverLocal(pkt dataPacket) {
	nl.s.bump(&nl.s.stats.DataDelivered)
	nl.mu.Lock()
	fn := nl.onDeliver
	nl.mu.Unlock()
	if fn != nil {
		fn(pkt.Src, pkt.Payload)
	}
}

// bump increments one of s.stats' counters under the lock that guards them.
func (s *System) bump(counter *uint64) {
	s.mu.Lock()
	*counter++
	s.mu.Unlock()
}
