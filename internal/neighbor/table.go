// Package neighbor implements the paper's Neighbour Detection CF (§4.3): a
// generally-useful ManetProtocol instance that maintains information about
// nodes one and two hops away, notifies co-deployed protocols of link
// breaks via NHOOD_CHANGE events, supports pluggable sensing mechanisms
// (HELLO-based or link-layer feedback), and offers a piggybacking service
// for disseminating information on its periodic beacons. Its link-sensing
// core (Sensor) is also the MPR CF's.
package neighbor

import (
	"cmp"
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

// TwoHop is one step of the 2-hop walk: a strict 2-hop destination and a
// symmetric neighbour that reaches it.
type TwoHop struct{ Dst, Via mnet.Addr }

// Table is the neighbour-state store: the S element of the Neighbour
// Detection CF (and, reused, the link-set/2-hop state of the MPR CF —
// Table 3's cross-protocol reuse). Its records are one slice sorted by
// address: the per-message status check is a binary search, and the walks
// come out in address order without a sort.
type Table struct {
	mu      sync.Mutex
	entries []Info // sorted by Addr
}

// NewTable returns an empty neighbour table.
func NewTable() *Table { return &Table{} }

// find returns nb's record, or nil. The pointer is valid until the next
// insertion or removal. Called with t.mu held.
func (t *Table) find(nb mnet.Addr) *Info {
	if i, ok := t.search(nb); ok {
		return &t.entries[i]
	}
	return nil
}

// search returns where nb's record is or would be. Called with t.mu held.
func (t *Table) search(nb mnet.Addr) (int, bool) {
	return slices.BinarySearchFunc(t.entries, nb, func(e Info, nb mnet.Addr) int { return e.Addr.Compare(nb) })
}

// Observe records a HELLO heard from nb: its link status towards us
// (symmetric when it listed us), its willingness, and its reported
// symmetric neighbours. It returns the previous status (0 when new).
func (t *Table) Observe(nb mnet.Addr, symmetric bool, willingness uint8, twoHop []mnet.Addr, now time.Time) Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.search(nb)
	if !ok {
		t.entries = slices.Insert(t.entries, i, Info{Addr: nb})
	}
	e := &t.entries[i]
	prev := e.Status
	e.LastHeard = now
	e.Willingness = willingness
	e.TwoHop = append(e.TwoHop[:0], twoHop...)
	// A HELLO that does not list us demotes a symmetric link.
	e.Status = StatusHeard
	if symmetric {
		e.Status = StatusSymmetric
	}
	return prev
}

// MarkLost transitions nb to StatusLost (expiry or link-layer feedback).
// It reports whether the neighbour was previously usable (heard/symmetric).
func (t *Table) MarkLost(nb mnet.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.find(nb)
	if e == nil || e.Status == StatusLost {
		return false
	}
	e.Status = StatusLost
	e.TwoHop = nil
	return true
}

// Expire marks every neighbour not heard since the deadline as lost and
// returns them, sorted.
func (t *Table) Expire(deadline time.Time) []mnet.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lost []mnet.Addr
	for i := range t.entries {
		if e := &t.entries[i]; e.Status != StatusLost && e.LastHeard.Before(deadline) {
			e.Status = StatusLost
			e.TwoHop = nil
			lost = append(lost, e.Addr)
		}
	}
	return lost
}

// Drop removes lost entries older than the deadline entirely.
func (t *Table) Drop(deadline time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.entries)
	t.entries = slices.DeleteFunc(t.entries, func(e Info) bool {
		return e.Status == StatusLost && e.LastHeard.Before(deadline)
	})
	return n - len(t.entries)
}

// StatusOf returns nb's link status — the per-message check ("is the
// previous hop a symmetric neighbour?"). ok is false when nb is not
// tracked.
func (t *Table) StatusOf(nb mnet.Addr) (Status, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.find(nb); e != nil {
		return e.Status, true
	}
	return 0, false
}

// AppendNeighbors appends the records of the non-lost neighbours to dst, or
// of the symmetric ones when symmetric is set, sorted by address and with
// TwoHop nil (AppendTwoHop is the 2-hop view). The caller owns dst: a warm
// one takes no allocation.
func (t *Table) AppendNeighbors(dst []Info, symmetric bool) []Info {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.entries {
		if e.Status == StatusSymmetric || !symmetric && e.Status == StatusHeard {
			e.TwoHop = nil
			dst = append(dst, e)
		}
	}
	return dst
}

// SymmetricAddrs returns just the addresses of symmetric neighbours, sorted.
func (t *Table) SymmetricAddrs() []mnet.Addr { return t.AppendSymmetricAddrs(nil) }

// AppendSymmetricAddrs appends the symmetric neighbours' addresses to dst,
// sorted. The caller owns dst.
func (t *Table) AppendSymmetricAddrs(dst []mnet.Addr) []mnet.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.entries {
		if e := &t.entries[i]; e.Status == StatusSymmetric {
			dst = append(dst, e.Addr)
		}
	}
	return dst
}

// TwoHopSet returns the strict 2-hop neighbourhood as a map from each
// destination to its vias, sorted: AppendTwoHop's walk, grouped, in a
// fresh map per call. Its only non-test caller is the benchmark's OLSR
// isolate (benchmark/isolate.go); the protocols read AppendTwoHop into
// scratch of their own.
func (t *Table) TwoHopSet(self mnet.Addr) map[mnet.Addr][]mnet.Addr {
	out := make(map[mnet.Addr][]mnet.Addr)
	for _, p := range t.AppendTwoHop(nil, self) {
		out[p.Dst] = append(out[p.Dst], p.Via)
	}
	return out
}

// AppendTwoHop appends the strict 2-hop neighbourhood to dst as a walk
// sorted by (Dst, Via): one pair for each report, by a symmetric neighbour,
// of a node that is neither self nor a non-lost neighbour (a neighbour
// reporting a node twice gives two pairs). The caller owns dst: a warm one
// takes no allocation.
func (t *Table) AppendTwoHop(dst []TwoHop, self mnet.Addr) []TwoHop {
	n := len(dst)
	t.mu.Lock()
	for i := range t.entries {
		e := &t.entries[i]
		if e.Status != StatusSymmetric {
			continue
		}
		for _, th := range e.TwoHop {
			if th == self {
				continue
			}
			if nb := t.find(th); nb != nil && nb.Status != StatusLost {
				continue // a 1-hop neighbour already
			}
			dst = append(dst, TwoHop{Dst: th, Via: e.Addr})
		}
	}
	t.mu.Unlock()
	slices.SortFunc(dst[n:], func(a, b TwoHop) int { return cmp.Or(a.Dst.Compare(b.Dst), a.Via.Compare(b.Via)) })
	return dst
}

// Len returns the number of tracked entries (including lost).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
