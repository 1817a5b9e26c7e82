// Package olsr implements the Optimized Link State Routing protocol as a
// MANETKit composition (§5.1, Fig 5): an OLSR ManetProtocol stacked on the
// MPR CF, from which it takes link sensing, relay selection and optimised
// flooding. The package also provides the paper's two OLSR variants —
// fisheye routing (a TC_OUT interposer) and power-aware routing (a residual
// power component plus the power-aware MPR calculator) — and the link
// hysteresis filter of Fig 5.
package olsr

import (
	"slices"
	"sort"
	"sync"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/route"
)

// origTopo is one originator's slice of the topology set: the destinations
// this last hop advertises, keyed by expiry, plus a lazily rebuilt sorted
// view that gives the shortest-path BFS a deterministic, allocation-free
// iteration order.
type origTopo struct {
	dests  map[mnet.Addr]time.Time
	sorted []mnet.Addr
	stale  bool // sorted needs rebuilding from dests
}

// ensureSorted rebuilds the sorted destination list after the key set
// changed. Steady state (expiry-only refreshes) never marks the list stale,
// so recomputes between topology changes pay nothing here.
//
//mk:allow hotalloc rebuild runs only after the destination set changed; steady-state recomputes see stale=false
func (ot *origTopo) ensureSorted() {
	if !ot.stale {
		return
	}
	ot.sorted = ot.sorted[:0]
	for d := range ot.dests {
		ot.sorted = append(ot.sorted, d)
	}
	sortAddrs(ot.sorted)
	ot.stale = false
}

func sortAddrs(a []mnet.Addr) { slices.SortFunc(a, mnet.Addr.Compare) }

// hnaAssoc pairs a learned gateway prefix with its association entry for
// the sorted install pass.
type hnaAssoc struct {
	p mnet.Prefix
	e hnaEntry
}

// spScratch is the reusable shortest-path working set. Addresses map to
// dense slots that stay stable across recomputes; per-slot arrays are
// generation-stamped so "visited this round" is one compare instead of a
// map clear. All slices are grown only in ensure/slotOf, so the BFS itself
// runs allocation-free once the network has been seen.
type spScratch struct {
	slot  map[mnet.Addr]int32 // addr → dense slot, monotonic
	addrs []mnet.Addr         // slot → addr
	dist  []int32             // slot → hop count this generation
	nhop  []mnet.Addr         // slot → canonical next hop this generation
	gen   []uint32            // slot → generation stamp
	cur   uint32              // current generation

	order   []int32 // slots in visit order (frontier by frontier)
	front   []int32
	next    []int32
	twoKeys []mnet.Addr
	desired []route.ProtoRoute
	hnaLive []hnaAssoc
}

// ensure grows the frontier and install buffers to hold at most bound
// visited nodes plus hnaN gateway prefixes.
//
//mk:allow hotalloc scratch growth is amortized: buffers are reused and grow only when the network outgrows every previous recompute
func (sc *spScratch) ensure(bound, hnaN int) {
	if sc.slot == nil {
		sc.slot = make(map[mnet.Addr]int32)
	}
	if cap(sc.order) < bound {
		sc.order = make([]int32, bound)
		sc.front = make([]int32, bound)
		sc.next = make([]int32, bound)
	} else {
		sc.order = sc.order[:cap(sc.order)]
		sc.front = sc.front[:cap(sc.front)]
		sc.next = sc.next[:cap(sc.next)]
	}
	if cap(sc.desired) < bound+hnaN {
		sc.desired = make([]route.ProtoRoute, bound+hnaN)
	} else {
		sc.desired = sc.desired[:cap(sc.desired)]
	}
}

// slotOf returns a's dense slot, creating one on first sight. New slots are
// the only allocating path of the BFS and appear once per distinct address.
//
//mk:allow hotalloc new-slot appends happen once per distinct address; the steady-state BFS never grows
func (sc *spScratch) slotOf(a mnet.Addr) int32 {
	if s, ok := sc.slot[a]; ok {
		return s
	}
	s := int32(len(sc.addrs))
	sc.slot[a] = s
	sc.addrs = append(sc.addrs, a)
	sc.dist = append(sc.dist, 0)
	sc.nhop = append(sc.nhop, mnet.Addr{})
	sc.gen = append(sc.gen, 0)
	return s
}

// resetGen invalidates every generation stamp after the uint32 counter
// wraps (once per ~4 billion recomputes).
func (sc *spScratch) resetGen() {
	for i := range sc.gen {
		sc.gen[i] = 0
	}
	sc.cur = 1
}

// State is the OLSR CF's S element: the topology set learned from TC
// messages (indexed per originator), per-originator ANSN bookkeeping,
// learned residual power, and the protocol's routing table.
type State struct {
	Routes *route.Table

	mu      sync.Mutex
	topo    map[mnet.Addr]*origTopo // advertised destinations per last hop
	tuples  int                     // live+expired tuple count across topo
	ansn    map[mnet.Addr]uint16    // freshest ANSN per originator
	power   map[mnet.Addr]float64
	ourANSN uint16
	msgSeq  uint16
	scratch spScratch

	// Power-aware variant state.
	powerAware bool
	ownPower   float64

	// HNA (gateway) state.
	attached map[mnet.Prefix]bool     // prefixes this node announces
	hna      map[mnet.Prefix]hnaEntry // learned gateway associations
}

// NewState returns an empty OLSR state whose routing table lives on clock
// time supplied by the table.
func NewState(routes *route.Table) *State {
	return &State{
		Routes:   routes,
		topo:     make(map[mnet.Addr]*origTopo),
		ansn:     make(map[mnet.Addr]uint16),
		power:    make(map[mnet.Addr]float64),
		ownPower: 1.0,
	}
}

// SetOwnPower records the node's own residual battery fraction.
func (s *State) SetOwnPower(frac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ownPower = frac
}

// OwnPower returns the node's own residual battery fraction.
func (s *State) OwnPower() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ownPower
}

// NextMsgSeq returns a fresh TC message sequence number.
func (s *State) NextMsgSeq() uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgSeq++
	return s.msgSeq
}

// ANSN returns the node's own advertised neighbour sequence number.
func (s *State) ANSN() uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ourANSN
}

// BumpANSN increments the node's ANSN (the advertised set changed).
func (s *State) BumpANSN() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ourANSN++
}

// RecordTC folds a TC message into the topology set: tuples (orig → dest)
// for each advertised address, expiring at expiry. Stale ANSNs are
// rejected; a fresher ANSN first flushes the originator's old tuples —
// O(degree) on the per-originator index, where the flat tuple set forced a
// full O(E) scan per fresher TC. It reports whether the topology changed.
func (s *State) RecordTC(orig mnet.Addr, ansn uint16, advertised []mnet.Addr, expiry time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, known := s.ansn[orig]
	if known && seqOlder(ansn, prev) {
		return false
	}
	ot := s.topo[orig]
	changed := false
	if (!known || seqOlder(prev, ansn)) && ot != nil && len(ot.dests) > 0 {
		s.tuples -= len(ot.dests)
		clear(ot.dests)
		ot.sorted = ot.sorted[:0]
		ot.stale = false
		changed = true
	}
	s.ansn[orig] = ansn
	for _, d := range advertised {
		if d == orig {
			continue
		}
		if ot == nil {
			ot = &origTopo{dests: make(map[mnet.Addr]time.Time, len(advertised))}
			s.topo[orig] = ot
		}
		if _, ok := ot.dests[d]; !ok {
			changed = true
			s.tuples++
			ot.stale = true
		}
		ot.dests[d] = expiry
	}
	return changed
}

// seqOlder reports whether a is older than b under 16-bit serial-number
// arithmetic (RFC 1982).
func seqOlder(a, b uint16) bool {
	return a != b && ((a < b && b-a < 0x8000) || (a > b && a-b > 0x8000))
}

// PurgeTopo drops expired tuples; it reports whether anything was removed.
func (s *State) PurgeTopo(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for orig, ot := range s.topo {
		for d, exp := range ot.dests {
			if !exp.After(now) {
				delete(ot.dests, d)
				s.tuples--
				ot.stale = true
				changed = true
			}
		}
		if len(ot.dests) == 0 {
			delete(s.topo, orig)
		}
	}
	return changed
}

// Edges returns the live topology tuples at time now, sorted.
func (s *State) Edges(now time.Time) [][2]mnet.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	origins := make([]mnet.Addr, 0, len(s.topo))
	for o := range s.topo {
		origins = append(origins, o)
	}
	sortAddrs(origins)
	out := make([][2]mnet.Addr, 0, s.tuples)
	for _, o := range origins {
		ot := s.topo[o]
		ot.ensureSorted()
		for _, d := range ot.sorted {
			if ot.dests[d].After(now) {
				out = append(out, [2]mnet.Addr{o, d})
			}
		}
	}
	return out
}

// SetPower records a node's advertised residual power (power-aware
// variant).
func (s *State) SetPower(n mnet.Addr, frac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.power[n] = frac
}

// Power returns a node's last advertised residual power (1.0 when
// unknown).
func (s *State) Power(n mnet.Addr) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.power[n]; ok {
		return f
	}
	return 1.0
}

// collectLiveHNA gathers the live gateway associations in sorted prefix
// order, expiring stale ones in passing. Called with s.mu held; uses the
// scratch buffer so repeat recomputes reuse one backing array.
//
//mk:allow hotalloc HNA scratch reuses one backing array; gateway sets are small and the sort closure rides that cold edge
func (s *State) collectLiveHNA(now time.Time) []hnaAssoc {
	if len(s.hna) == 0 {
		return nil
	}
	live := s.scratch.hnaLive[:0]
	for p, e := range s.hna {
		if e.expires.After(now) {
			live = append(live, hnaAssoc{p, e})
		} else {
			delete(s.hna, p)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].p.Addr != live[j].p.Addr {
			return live[i].p.Addr.Less(live[j].p.Addr)
		}
		return live[i].p.Bits < live[j].p.Bits
	})
	s.scratch.hnaLive = live
	return live
}

// sortedTwoHopKeys materialises the 2-hop destination set in sorted order
// into the reusable scratch key buffer. Called with s.mu held. Insertion
// sort rather than sort.Slice: the set is degree-bounded and this runs on
// every recompute, where sort.Slice's closure would allocate.
//
//mk:allow hotalloc key buffer is scratch-backed and grows amortized
func (s *State) sortedTwoHopKeys(twoHop map[mnet.Addr][]mnet.Addr) []mnet.Addr {
	keys := s.scratch.twoKeys[:0]
	for dst := range twoHop {
		//mk:allow maporder keys are insertion-sorted below before they are returned
		keys = append(keys, dst)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j].Less(keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	s.scratch.twoKeys = keys
	return keys
}

// ComputeRoutes rebuilds the routing table from the symmetric
// neighbourhood, the 2-hop set and the topology tuples — the RFC 3626 §10
// shortest-path calculation. With unit metrics BFS is exact Dijkstra, so
// the calculation runs as a layered frontier expansion over the
// per-originator index: seed the 1-hop neighbourhood at metric 1 and the
// strict 2-hop set at metric 2 (via its minimum sorted via), then expand
// level by level through each last hop's sorted destination list. Within a
// level, equal-cost discoveries min-merge the next hop, so every
// destination ends at the canonical (lexicographically smallest) next hop
// over all shortest paths — a deterministic function of the topology alone,
// independent of arrival order. Learned HNA prefixes resolve against the
// freshly visited gateway and install in the same batch.
//
// The result diff-installs into the routing table via ReplaceProto: only
// changed entries fire callbacks or touch the FIB, vanished ones are
// removed by mark generation, and a steady-state recompute is byte-free.
// Scratch buffers make the whole pass allocation-free once the network has
// been seen. Calls are serialized by the protocol's critical section; the
// method is not reentrant. Returns the number of reachable destinations.
//
//mk:hotpath
func (s *State) ComputeRoutes(self mnet.Addr, oneHop []mnet.Addr, twoHop map[mnet.Addr][]mnet.Addr, now time.Time, holdTime time.Duration, proto string) int {
	s.mu.Lock()
	sc := &s.scratch
	bound := len(oneHop) + len(twoHop) + s.tuples
	sc.ensure(bound, len(s.hna))
	sc.cur++
	if sc.cur == 0 {
		sc.resetGen()
	}
	cur := sc.cur

	norder, nfront, nnext := 0, 0, 0
	for _, nb := range oneHop {
		ns := sc.slotOf(nb)
		if sc.gen[ns] == cur {
			continue
		}
		sc.gen[ns] = cur
		sc.dist[ns] = 1
		sc.nhop[ns] = nb
		sc.order[norder] = ns
		norder++
		sc.front[nfront] = ns
		nfront++
	}
	for _, dst := range s.sortedTwoHopKeys(twoHop) {
		vias := twoHop[dst]
		if len(vias) == 0 {
			continue
		}
		ds := sc.slotOf(dst)
		if sc.gen[ds] == cur {
			continue // already a 1-hop neighbour
		}
		sc.gen[ds] = cur
		sc.dist[ds] = 2
		sc.nhop[ds] = vias[0]
		sc.order[norder] = ds
		norder++
		sc.next[nnext] = ds
		nnext++
	}

	front, next := sc.front, sc.next
	d := int32(1)
	if nfront == 0 {
		// No symmetric neighbours, but a 2-hop set was supplied: the BFS
		// starts at the dist-2 frontier (the historical relaxation expanded
		// from those seeds too).
		front, next = next, front
		nfront, nnext = nnext, 0
		d = 2
	}
	for ; nfront > 0; d++ {
		for fi := 0; fi < nfront; fi++ {
			us := front[fi]
			ot := s.topo[sc.addrs[us]]
			if ot == nil {
				continue
			}
			ot.ensureSorted()
			unh := sc.nhop[us]
			for _, dst := range ot.sorted {
				if dst == self || !ot.dests[dst].After(now) {
					continue
				}
				ds := sc.slotOf(dst)
				if sc.gen[ds] != cur {
					sc.gen[ds] = cur
					sc.dist[ds] = d + 1
					sc.nhop[ds] = unh
					sc.order[norder] = ds
					norder++
					next[nnext] = ds
					nnext++
				} else if sc.dist[ds] == d+1 && unh.Less(sc.nhop[ds]) {
					sc.nhop[ds] = unh
				}
			}
		}
		front, next = next, front
		nfront, nnext = nnext, 0
	}

	exp := now.Add(holdTime)
	nd := 0
	for i := 0; i < norder; i++ {
		slot := sc.order[i]
		sc.desired[nd] = route.ProtoRoute{
			Dst:     mnet.HostPrefix(sc.addrs[slot]),
			NextHop: sc.nhop[slot],
			Metric:  int(sc.dist[slot]),
			Expires: exp,
		}
		nd++
	}
	// Gateway prefixes route like their gateway, one hop beyond it; skip
	// associations whose gateway is unreachable this round.
	for _, a := range s.collectLiveHNA(now) {
		gs, ok := sc.slot[a.e.gateway]
		if !ok || sc.gen[gs] != cur {
			continue
		}
		sc.desired[nd] = route.ProtoRoute{
			Dst:     a.p,
			NextHop: sc.nhop[gs],
			Metric:  int(sc.dist[gs]) + 1,
			Expires: a.e.expires,
		}
		nd++
	}
	s.mu.Unlock()

	s.Routes.ReplaceProto(proto, sc.desired[:nd])
	return norder
}
