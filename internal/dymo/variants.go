package dymo

import (
	"math/rand"
	"sync"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/reactive"
)

// The gossip flooder keeps no sweep timer: a sighting that grows its
// duplicate set past gossipSweepAt entries drops those idle longer than
// gossipHold.
const (
	gossipSweepAt = 4096
	gossipHold    = time.Minute
)

// GossipFlooder is the probabilistic-flooding alternative the paper's
// survey cites (§2, Haas et al.): each node re-broadcasts a route request
// with probability P instead of deterministically (blind) or by relay
// selection (MPR). Plug it in with DYMO.SetFlooder.
type GossipFlooder struct {
	p float64

	mu   sync.Mutex
	rng  *rand.Rand
	seen reactive.DupSet
}

var _ Flooder = (*GossipFlooder)(nil)

// NewGossipFlooder builds a flooder with re-broadcast probability p,
// seeded for reproducibility.
func NewGossipFlooder(p float64, seed int64) *GossipFlooder {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return &GossipFlooder{p: p, rng: rand.New(rand.NewSource(seed))}
}

// ShouldForward implements Flooder: dedup, then a biased coin.
func (g *GossipFlooder) ShouldForward(orig mnet.Addr, seq uint16, prevHop mnet.Addr, now time.Time) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	k := reactive.Key{Orig: orig, Seq: seq}
	if g.seen.Has(k) {
		return false
	}
	g.seen.Seen(k, now)
	if g.seen.Len() > gossipSweepAt {
		g.seen.Sweep(now, gossipHold, nil)
	}
	return g.rng.Float64() < g.p
}

// Seen implements Flooder.
func (g *GossipFlooder) Seen(orig mnet.Addr, seq uint16, now time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seen.Seen(reactive.Key{Orig: orig, Seq: seq}, now)
}

// EnableMultipath applies the multipath DYMO variant (§5.2, after Galvez &
// Ruiz): up to maxPaths link-disjoint paths are computed within a single
// route discovery. Per the paper, three components change:
//
//  1. the S element's route entries accommodate path lists (our route
//     table template already stores []Path; the flag switches the update
//     rule to retain equal-seq alternatives);
//  2. the RE handler is replaced by a version that processes — rather than
//     discards — duplicate route requests to find alternative paths
//     (handled by the target replying to multiple distinct previous hops);
//  3. the RERR handler only reports an error when no alternative path
//     remains (InvalidatePath keeps survivors).
//
// The handler components are swapped under quiescence so the change is
// atomic with respect to event processing.
func (d *DYMO) EnableMultipath(maxPaths int) error {
	if maxPaths < 2 {
		maxPaths = 2
	}
	// Swap the RE and RERR handlers for the multipath versions. The
	// handler logic shares d's methods; the replacement components gate
	// the multipath behaviour through the state flag set below, so the
	// observable reconfiguration is the CF-level component swap.
	if err := d.proto.ReplaceHandler("re-handler",
		core.NewHandler("re-handler-multipath", event.REIn, d.onRE)); err != nil {
		return err
	}
	if err := d.proto.ReplaceHandler("rerr-handler",
		core.NewHandler("rerr-handler-multipath", event.RerrIn, d.onRERR)); err != nil {
		return err
	}
	d.state.Lock()
	d.state.multipath = true
	d.state.maxPaths = maxPaths
	d.state.Unlock()
	return nil
}

// DisableMultipath restores the single-path protocol.
func (d *DYMO) DisableMultipath() error {
	if err := d.proto.ReplaceHandler("re-handler-multipath",
		core.NewHandler("re-handler", event.REIn, d.onRE)); err != nil {
		return err
	}
	if err := d.proto.ReplaceHandler("rerr-handler-multipath",
		core.NewHandler("rerr-handler", event.RerrIn, d.onRERR)); err != nil {
		return err
	}
	d.state.Lock()
	d.state.multipath = false
	d.state.Unlock()
	return nil
}
