// Package event defines MANETKit's event ontology (§4.2 of the paper):
// the typed events that flow between CFS units, the polymorphic type
// hierarchy they are organised in, and the <required-events,
// provided-events> tuples from which the Framework Manager derives the
// binding topology.
//
// Events carry PacketBB messages (package packetbb) when they correspond to
// protocol traffic, or typed context payloads when they report system or
// protocol context (battery level, neighbourhood changes, …).
package event

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
)

// Type names an event kind, e.g. "TC_OUT".
type Type string

// The event vocabulary used by the protocols in this repository; the set is
// open — protocols may introduce further types (RegisterType).
const (
	// Root of the ontology.
	Any Type = "EVENT"

	// Abstract categories.
	MsgIn   Type = "MSG_IN"  // any incoming protocol message
	MsgOut  Type = "MSG_OUT" // any outgoing protocol message
	Context Type = "CONTEXT" // any context/sensor report
	Routing Type = "ROUTING" // any data-plane routing trigger

	// Concrete message events.
	HelloIn  Type = "HELLO_IN"
	HelloOut Type = "HELLO_OUT"
	TCIn     Type = "TC_IN"
	TCOut    Type = "TC_OUT"
	REIn     Type = "RE_IN"   // DYMO routing element (RREQ/RREP) inbound
	REOut    Type = "RE_OUT"  // DYMO routing element outbound
	RerrIn   Type = "RERR_IN" // DYMO route error inbound
	RerrOut  Type = "RERR_OUT"

	// Topology/context events.
	NhoodChange Type = "NHOOD_CHANGE" // neighbourhood membership changed
	MPRChange   Type = "MPR_CHANGE"   // relay selection changed
	PowerStatus Type = "POWER_STATUS" // battery level report
	LinkInfo    Type = "LINK_INFO"    // link quality report
	SysStatus   Type = "SYS_STATUS"   // CPU/memory report

	// Data-plane triggers raised by the packet filter (System CF) and the
	// replies reactive protocols send back (§5.2).
	NoRoute      Type = "NO_ROUTE"       // data packet with no route buffered
	RouteUpdate  Type = "ROUTE_UPDATE"   // data packet used a route: refresh lifetime
	SendRouteErr Type = "SEND_ROUTE_ERR" // forwarding failed: notify sources
	RouteFound   Type = "ROUTE_FOUND"    // discovery succeeded: re-inject buffer
	LinkBreak    Type = "LINK_BREAK"     // link-layer feedback: next hop unreachable
)

// Event is the unit of communication between CFS units. Exactly one of Msg
// (protocol traffic) or a typed payload field is normally set, depending on
// the event type. An event handed to a handler, interposer, sniffer or
// context subscriber is valid only until that callback returns: it may be
// borrowed (carrier.go), so whoever keeps it copies it.
type Event struct {
	Type Type

	// Msg is the PacketBB message for *_IN/*_OUT events. It is read-only
	// for every handler and interposer: a received message points into a
	// packet decoded once per transmission and shared by all the nodes that
	// heard it (and by every handler on each of them), and a relayed one
	// (Relay) shares that packet's body under a header the event's carrier
	// owns. Nobody may write through it, and nobody keeps it: a received
	// message is recycled with its frame's decode, and a relayed header with
	// its event, so either is cloned to keep. A forward that changes only
	// the hop fields uses Relay; one that rewrites anything else works on a
	// Clone.
	Msg *packetbb.Message
	// Src is the link-level sender for *_IN events.
	Src mnet.Addr
	// Dst is the link-level destination for *_OUT events (often broadcast).
	Dst mnet.Addr
	// Device names the network interface the event entered or leaves on.
	Device string
	// Time stamps the event's creation on the deployment's clock.
	Time time.Time
	// Corr is the message correlation ID carried into trace spans so a
	// message's journey can be stitched across nodes (internal/inspect).
	// Protocols stamp it at message origination (Message.CorrID); the
	// framework back-fills it from Msg for forwarded/received events when
	// tracing is enabled.
	Corr string

	// Typed context payloads; nil unless the event type calls for them.
	Nhood *NhoodPayload
	MPR   *MPRPayload
	Power *PowerPayload
	Link  *LinkPayload
	Route *RoutePayload

	// c is the carrier a borrowed event lives in (carrier.go); a copy keeps
	// the pointer but is no borrowed event, since it does not live there.
	c *carrier
}

// ChangeKind classifies a neighbourhood change.
type ChangeKind uint8

// Neighbourhood change kinds.
const (
	NeighborAppeared ChangeKind = iota + 1
	NeighborLost
	NeighborSymmetric // link became bidirectional
	TwoHopChanged
)

// String implements fmt.Stringer.
func (k ChangeKind) String() string {
	switch k {
	case NeighborAppeared:
		return "appeared"
	case NeighborLost:
		return "lost"
	case NeighborSymmetric:
		return "symmetric"
	case TwoHopChanged:
		return "2hop-changed"
	default:
		return fmt.Sprintf("ChangeKind(%d)", uint8(k))
	}
}

// NhoodPayload reports a neighbourhood change (NHOOD_CHANGE).
type NhoodPayload struct {
	Kind     ChangeKind
	Neighbor mnet.Addr
	// TwoHopVia lists the 2-hop destinations reachable via Neighbor at the
	// time of the event.
	TwoHopVia []mnet.Addr
}

// MPRPayload reports a relay-selection change (MPR_CHANGE).
type MPRPayload struct {
	// Selected is the node's current multipoint relay set.
	Selected []mnet.Addr
	// Selectors lists the neighbours that chose this node as a relay.
	Selectors []mnet.Addr
}

// PowerPayload reports battery state (POWER_STATUS).
type PowerPayload struct {
	// Fraction is remaining capacity in [0,1].
	Fraction float64
	// Draining reports whether the node runs on battery.
	Draining bool
}

// LinkPayload reports link quality to a specific neighbour (LINK_INFO).
type LinkPayload struct {
	Neighbor mnet.Addr
	// Quality is a normalised delivery ratio in [0,1].
	Quality float64
	// SignalDBm is the emulated received signal strength.
	SignalDBm float64
}

// RoutePayload accompanies the data-plane trigger events.
type RoutePayload struct {
	// Dst is the destination the trigger concerns.
	Dst mnet.Addr
	// Src is the originator of the affected data traffic.
	Src mnet.Addr
	// NextHop is set for LINK_BREAK / SEND_ROUTE_ERR.
	NextHop mnet.Addr
	// PacketID identifies the buffered data packet for NO_ROUTE/ROUTE_FOUND.
	PacketID uint64
}

// Requirement is one entry in a CFS unit's required-events set. Exclusive
// requirements consume the event: no other requirer sees it (§4.2,
// footnote 2).
type Requirement struct {
	Type      Type
	Exclusive bool
}

// Tuple is the paper's <required-events, provided-events> declaration.
type Tuple struct {
	Required []Requirement
	Provided []Type
}

// Requires reports whether the tuple's required set covers t under the
// given ontology.
func (tp Tuple) Requires(o *Ontology, t Type) bool {
	for _, r := range tp.Required {
		if o.Matches(t, r.Type) {
			return true
		}
	}
	return false
}

// Provides reports whether the tuple's provided set contains t exactly.
func (tp Tuple) Provides(t Type) bool {
	for _, p := range tp.Provided {
		if p == t {
			return true
		}
	}
	return false
}

// Ontology is the extensible polymorphic event-type hierarchy: a forest of
// is-a relations rooted at Any. A requirer declaring an abstract type
// receives all of its descendants.
//
// The hierarchy is read-mostly: protocols register types at deployment
// time, and the dispatch plans test subtype relations when they compile.
// The parent map is therefore immutable once published (atomic.Pointer),
// together with its sorted type list; RegisterType publishes a new copy,
// and readers never lock. Until then an ontology points at the standard
// hierarchy, which every ontology shares.
type Ontology struct {
	mu      sync.Mutex // serialises writers
	version atomic.Uint64
	snap    atomic.Pointer[ontSnapshot]
}

// ontSnapshot is one published version of the hierarchy.
type ontSnapshot struct {
	parent map[Type]Type
	types  []Type // every type the parent map names, sorted
}

// standard is the hierarchy of the bundled protocols' vocabulary. It is
// immutable, so every ontology starts from it, and one that registers a
// type publishes a copy of its own.
var standard = newSnapshot(map[Type]Type{
	MsgIn:   Any,
	MsgOut:  Any,
	Context: Any,
	Routing: Any,

	HelloIn: MsgIn,
	TCIn:    MsgIn,
	REIn:    MsgIn,
	RerrIn:  MsgIn,

	HelloOut: MsgOut,
	TCOut:    MsgOut,
	REOut:    MsgOut,
	RerrOut:  MsgOut,

	NhoodChange: Context,
	MPRChange:   Context,
	PowerStatus: Context,
	LinkInfo:    Context,
	SysStatus:   Context,

	NoRoute:      Routing,
	RouteUpdate:  Routing,
	SendRouteErr: Routing,
	RouteFound:   Routing,
	LinkBreak:    Routing,
})

// NewOntology returns the standard ontology used by the bundled protocols.
func NewOntology() *Ontology {
	o := &Ontology{}
	o.snap.Store(standard)
	return o
}

// newSnapshot wraps parent, which nobody writes afterwards, with its sorted
// type list.
func newSnapshot(parent map[Type]Type) *ontSnapshot {
	seen := make(map[Type]bool, 2*len(parent))
	for child, par := range parent {
		seen[child], seen[par] = true, true
	}
	delete(seen, "") // the parent of a root
	types := make([]Type, 0, len(seen))
	for t := range seen {
		types = append(types, t)
	}
	slices.Sort(types)
	return &ontSnapshot{parent: parent, types: types}
}

// RegisterType adds a new event type below parent. Registering an existing
// type re-parents it; cycles, and moving the root Any, are rejected.
func (o *Ontology) RegisterType(t, parent Type) error {
	if t == Any {
		return fmt.Errorf("event: %q is the root", Any)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.snap.Load().parent
	// Reject cycles: t must not be parent or one of its ancestors.
	for p := parent; p != ""; p = cur[p] {
		if p == t {
			return fmt.Errorf("event: registering %q under %q creates a cycle", t, parent)
		}
	}
	next := maps.Clone(cur)
	next[t] = parent
	o.snap.Store(newSnapshot(next))
	o.version.Add(1)
	return nil
}

// Version counts hierarchy mutations (RegisterType). Compiled dispatch
// tables capture the version they were built against and rebuild lazily
// when it moves.
func (o *Ontology) Version() uint64 { return o.version.Load() }

// Types lists every known type, sorted. The returned slice is shared with
// the published hierarchy; callers must not mutate it.
func (o *Ontology) Types() []Type { return o.snap.Load().types }

// Matches reports whether concrete type t satisfies a requirement for
// pattern: t == pattern, or pattern is an ancestor of t. The walk up t's
// parents is lock-free and stops at Any, which stays the root.
func (o *Ontology) Matches(t, pattern Type) bool {
	if t == pattern || pattern == Any {
		return true
	}
	parent := o.snap.Load().parent
	for p := parent[t]; p != "" && p != Any; p = parent[p] {
		if p == pattern {
			return true
		}
	}
	return false
}

// Parent returns the immediate supertype of t ("" at a root).
func (o *Ontology) Parent(t Type) Type { return o.snap.Load().parent[t] }
