package reactive

import (
	"sync"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/route"
)

// Counts are the discovery counters every reactive protocol keeps. Each
// protocol's Stats embeds them.
type Counts struct {
	Discoveries uint64 // route discoveries initiated
	Retries     uint64
	GiveUps     uint64
}

// State is the part of a reactive protocol's S element the discovery
// lifecycle owns. The protocol's State embeds it and guards its own fields
// with the same Lock; Seq, Pending, Dupes and Counts are guarded by it too.
type State struct {
	Routes *route.Table

	sync.Mutex
	Seq     Seq
	Pending Discoveries
	Dupes   DupSet
	Counts  Counts
}

// Init gives s an empty route table, still to be bound to a deployment
// (route.Table.Bind), and an empty pending-discovery table.
func (s *State) Init() {
	s.Routes = route.NewTable(nil)
	s.Pending = make(Discoveries)
}

// NextSeq increments and returns the node's sequence number.
func (s *State) NextSeq() uint16 {
	s.Lock()
	defer s.Unlock()
	return s.Seq.Next()
}

// Duplicate records k as seen at now and reports whether it was already.
func (s *State) Duplicate(k Key, now time.Time) bool {
	s.Lock()
	defer s.Unlock()
	return s.Dupes.Seen(k, now)
}

// Rules are the message rules a reactive protocol plugs into its Discovery.
type Rules interface {
	// SendRREQ emits the attempt'th route request for dst with hop limit
	// ttl and returns how long to wait for a reply before retrying.
	SendRREQ(ctx *core.Context, dst mnet.Addr, attempt int, ttl uint8) (wait time.Duration)
	// NextAttempt returns the hop limit of the attempt after attempt, whose
	// hop limit was ttl, or false to give up. It runs under the State's
	// lock, so it may update the protocol's own counters.
	NextAttempt(attempt int, ttl uint8) (next uint8, ok bool)
	// LinkLost drops the routes through a next hop that is gone.
	LinkLost(ctx *core.Context, hop mnet.Addr)
}

// Discovery is the route-discovery lifecycle a reactive protocol holds by
// value: start, retry on a timer, give up or complete, plus route refresh,
// link loss, sweep and stop. Its handlers and sources are registered by the
// protocol under the protocol's own names.
type Discovery struct {
	// Latency, when set, observes each completed discovery's virtual time
	// from NO_ROUTE to ROUTE_FOUND.
	Latency *metrics.Histogram

	proto    *core.Protocol
	s        *State
	rules    Rules
	lifetime time.Duration
}

// NewDiscovery returns proto's discovery lifecycle over s. A route in
// active use is refreshed to lifetime.
func NewDiscovery(proto *core.Protocol, s *State, rules Rules, lifetime time.Duration) Discovery {
	return Discovery{proto: proto, s: s, rules: rules, lifetime: lifetime}
}

// Start opens a discovery for dst and sends its first request with hop
// limit ttl, unless a discovery for dst is already pending.
func (d *Discovery) Start(ctx *core.Context, dst mnet.Addr, ttl uint8) {
	d.s.Lock()
	if !d.s.Pending.Start(dst, ctx.Clock().Now()) {
		d.s.Unlock()
		return
	}
	d.s.Counts.Discoveries++
	d.s.Unlock()
	d.attempt(ctx, dst, 1, ttl)
}

// attempt sends one request and arms its retry timer.
func (d *Discovery) attempt(ctx *core.Context, dst mnet.Addr, attempt int, ttl uint8) {
	wait := d.rules.SendRREQ(ctx, dst, attempt, ttl)
	timer := ctx.Clock().AfterFunc(wait, func() {
		_ = d.proto.RunLocked(func(ctx *core.Context) { d.retry(ctx, dst, attempt) })
	})
	d.s.Lock()
	d.s.Pending.Arm(dst, attempt, ttl, timer)
	d.s.Unlock()
}

// retry runs when attempt went unanswered: it sends the next attempt, or
// gives the discovery up when the protocol's rules say so.
func (d *Discovery) retry(ctx *core.Context, dst mnet.Addr, attempt int) {
	d.s.Lock()
	ttl, ok := d.s.Pending.Due(dst, attempt)
	if !ok {
		d.s.Unlock()
		return
	}
	if ttl, ok = d.rules.NextAttempt(attempt, ttl); !ok {
		d.s.Pending.GiveUp(dst)
		d.s.Counts.GiveUps++
		d.s.Unlock()
		return
	}
	d.s.Counts.Retries++
	d.s.Unlock()
	d.attempt(ctx, dst, attempt+1, ttl)
}

// Found ends a pending discovery for dst, if any, and raises ROUTE_FOUND
// so the packet filter re-injects the traffic held for it.
func (d *Discovery) Found(ctx *core.Context, dst mnet.Addr) {
	d.s.Lock()
	started, ok := d.s.Pending.Complete(dst)
	d.s.Unlock()
	if ok {
		d.Latency.Observe(ctx.Clock().Now().Sub(started))
		ctx.Emit(&event.Event{Type: event.RouteFound, Route: &event.RoutePayload{Dst: dst}})
	}
}

// OnRouteUpdate is the ROUTE_UPDATE handler: it extends the lifetime of a
// route in active use.
func (d *Discovery) OnRouteUpdate(_ *core.Context, ev *event.Event) error {
	if ev.Route != nil {
		d.s.Routes.ExtendLifetime(ev.Route.Dst, mnet.Addr{}, d.lifetime)
	}
	return nil
}

// OnLinkBreak is the LINK_BREAK handler: the link layer's report of a
// failed next hop goes to the protocol's LinkLost.
func (d *Discovery) OnLinkBreak(ctx *core.Context, ev *event.Event) error {
	if ev.Route != nil && !ev.Route.NextHop.IsUnspecified() {
		d.rules.LinkLost(ctx, ev.Route.NextHop)
	}
	return nil
}

// OnNeighborLost is the NHOOD_CHANGE handler: a neighbour the Neighbour
// Detection CF lost goes to the protocol's LinkLost (§5.2: "route
// invalidation upon link breaks").
func (d *Discovery) OnNeighborLost(ctx *core.Context, ev *event.Event) error {
	if ev.Nhood != nil && ev.Nhood.Kind == event.NeighborLost {
		d.rules.LinkLost(ctx, ev.Nhood.Neighbor)
	}
	return nil
}

// Sweep purges expired routes and duplicate-set entries older than DupHold.
func (d *Discovery) Sweep(ctx *core.Context) { d.SweepDropping(ctx, nil) }

// SweepDropping is Sweep, passing each dropped duplicate-set key to
// dropped, when it is non-nil, under the State's lock.
func (d *Discovery) SweepDropping(ctx *core.Context, dropped func(Key)) {
	d.s.Routes.PurgeExpired()
	d.s.Lock()
	d.s.Dupes.Sweep(ctx.Clock().Now(), DupHold, dropped)
	d.s.Unlock()
}

// Stop abandons every pending discovery, stopping its retry timer, and
// clears the route table. Protocols install it with OnStop.
func (d *Discovery) Stop(*core.Context) error {
	d.s.Lock()
	d.s.Pending.StopAll()
	d.s.Unlock()
	d.s.Routes.Clear()
	return nil
}
