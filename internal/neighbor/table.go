// Package neighbor implements the paper's Neighbour Detection CF (§4.3): a
// generally-useful ManetProtocol instance that maintains information about
// nodes one and two hops away, notifies co-deployed protocols of link
// breaks via NHOOD_CHANGE events, supports pluggable sensing mechanisms
// (HELLO-based or link-layer feedback), and offers a piggybacking service
// for disseminating information on its periodic beacons. Its link-sensing
// core (Sensor) is also the MPR CF's.
package neighbor

import (
	"slices"
	"sync"
	"time"

	"manetkit/internal/mnet"
)

// Status is the sensed state of a link to a neighbour.
type Status uint8

// Link states, following the OLSR/NHDP sensing model.
const (
	StatusHeard     Status = iota + 1 // we hear them; not confirmed bidirectional
	StatusSymmetric                   // they list us in their HELLO: bidirectional
	StatusLost                        // recently lost; kept briefly for diagnostics
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusHeard:
		return "heard"
	case StatusSymmetric:
		return "symmetric"
	case StatusLost:
		return "lost"
	default:
		return "unknown"
	}
}

// Info is the queryable record for one neighbour.
type Info struct {
	Addr        mnet.Addr
	Status      Status
	LastHeard   time.Time
	Willingness uint8
	// TwoHop lists the symmetric neighbours the neighbour reported —
	// our 2-hop set via this node.
	TwoHop []mnet.Addr
}

// Table is the neighbour-state store: the S element of the Neighbour
// Detection CF (and, reused, the link-set/2-hop state of the MPR CF —
// Table 3's cross-protocol reuse).
type Table struct {
	mu      sync.Mutex
	entries map[mnet.Addr]*Info
}

// NewTable returns an empty neighbour table.
func NewTable() *Table {
	return &Table{entries: make(map[mnet.Addr]*Info)}
}

// Observe records a HELLO heard from nb: its link status towards us
// (symmetric when it listed us), its willingness, and its reported
// symmetric neighbours. It returns the previous status (0 when new).
func (t *Table) Observe(nb mnet.Addr, symmetric bool, willingness uint8, twoHop []mnet.Addr, now time.Time) Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[nb]
	prev := Status(0)
	if ok {
		prev = e.Status
	} else {
		e = &Info{Addr: nb}
		t.entries[nb] = e
	}
	e.LastHeard = now
	e.Willingness = willingness
	e.TwoHop = append(e.TwoHop[:0], twoHop...)
	if symmetric {
		e.Status = StatusSymmetric
	} else if e.Status != StatusSymmetric || prev == StatusLost {
		e.Status = StatusHeard
	} else {
		// Was symmetric but this HELLO does not list us: demote.
		e.Status = StatusHeard
	}
	return prev
}

// MarkLost transitions nb to StatusLost (expiry or link-layer feedback).
// It reports whether the neighbour was previously usable (heard/symmetric).
func (t *Table) MarkLost(nb mnet.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[nb]
	if !ok || e.Status == StatusLost {
		return false
	}
	e.Status = StatusLost
	e.TwoHop = nil
	return true
}

// Expire marks every neighbour not heard since the deadline as lost and
// returns them.
func (t *Table) Expire(deadline time.Time) []mnet.Addr {
	t.mu.Lock()
	var lost []mnet.Addr
	for a, e := range t.entries {
		if e.Status != StatusLost && e.LastHeard.Before(deadline) {
			e.Status = StatusLost
			e.TwoHop = nil
			lost = append(lost, a)
		}
	}
	t.mu.Unlock()
	slices.SortFunc(lost, mnet.Addr.Compare)
	return lost
}

// Drop removes lost entries older than the deadline entirely.
func (t *Table) Drop(deadline time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for a, e := range t.entries {
		if e.Status == StatusLost && e.LastHeard.Before(deadline) {
			delete(t.entries, a)
			n++
		}
	}
	return n
}

// Get returns the record for nb.
func (t *Table) Get(nb mnet.Addr) (Info, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[nb]
	if !ok {
		return Info{}, false
	}
	return t.snapshotLocked(e), true
}

// StatusOf returns just nb's link status — the per-message check ("is the
// previous hop a symmetric neighbour?") that has no use for the copy of the
// 2-hop list Get makes. ok is false when nb is not tracked.
func (t *Table) StatusOf(nb mnet.Addr) (Status, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[nb]
	if !ok {
		return 0, false
	}
	return e.Status, true
}

// Neighbors returns all non-lost neighbours, sorted by address.
func (t *Table) Neighbors() []Info {
	return t.filter(func(e *Info) bool { return e.Status != StatusLost })
}

// Symmetric returns the symmetric neighbours, sorted by address.
func (t *Table) Symmetric() []Info {
	return t.filter(func(e *Info) bool { return e.Status == StatusSymmetric })
}

// SymmetricAddrs returns just the addresses of symmetric neighbours,
// sorted — without the copy of each neighbour's 2-hop list Symmetric makes.
func (t *Table) SymmetricAddrs() []mnet.Addr {
	t.mu.Lock()
	out := make([]mnet.Addr, 0, len(t.entries))
	for a, e := range t.entries {
		if e.Status == StatusSymmetric {
			out = append(out, a)
		}
	}
	t.mu.Unlock()
	slices.SortFunc(out, mnet.Addr.Compare)
	return out
}

// TwoHopSet returns the strict 2-hop neighbourhood: nodes reachable via a
// symmetric neighbour that are not ourselves and not 1-hop neighbours.
func (t *Table) TwoHopSet(self mnet.Addr) map[mnet.Addr][]mnet.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	// two-hop destination -> the symmetric neighbours that reach it.
	out := make(map[mnet.Addr][]mnet.Addr)
	for a, e := range t.entries {
		if e.Status != StatusSymmetric {
			continue
		}
		for _, th := range e.TwoHop {
			if th == self {
				continue
			}
			if nb, ok := t.entries[th]; ok && nb.Status != StatusLost {
				continue // a 1-hop neighbour already
			}
			out[th] = append(out[th], a)
		}
	}
	for _, vias := range out {
		slices.SortFunc(vias, mnet.Addr.Compare)
	}
	return out
}

func (t *Table) filter(keep func(*Info) bool) []Info {
	t.mu.Lock()
	var out []Info
	for _, e := range t.entries {
		if keep(e) {
			out = append(out, t.snapshotLocked(e))
		}
	}
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b Info) int { return a.Addr.Compare(b.Addr) })
	return out
}

func (t *Table) snapshotLocked(e *Info) Info {
	c := *e
	c.TwoHop = append([]mnet.Addr(nil), e.TwoHop...)
	return c
}

// Len returns the number of tracked entries (including lost).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
