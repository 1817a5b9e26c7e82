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
	"manetkit/internal/packetbb"
	"manetkit/internal/route"
)

// topoEdge is one topology tuple (originator → dst): the destination, its
// slot in the State's address index, and the tuple's expiry.
type topoEdge struct {
	dst  mnet.Addr
	slot int32
	exp  time.Time
}

// origTopo is one originator's slice of the topology set, reached by the
// originator's slot: the ANSN its tuples were advertised under (RFC 3626's
// T_seq) and the destinations this last hop advertises, sorted by address
// so the shortest-path BFS walks them in a deterministic order. The record —
// and with it the ANSN memory — dies when its validity passes, like the
// tuples it stands for.
type origTopo struct {
	known bool      // a TC from this originator is on record
	ansn  uint16    // freshest ANSN seen; meaningful while known
	until time.Time // validity: the latest expiry any accepted TC carried
	edges []topoEdge
}

func sortAddrs(a []mnet.Addr) { slices.SortFunc(a, mnet.Addr.Compare) }

// hnaAssoc pairs a learned gateway prefix with its association entry for
// the sorted install pass.
type hnaAssoc struct {
	p mnet.Prefix
	e hnaEntry
}

// spScratch is the reusable shortest-path working set, indexed by the
// State's address slots. Per-slot arrays are generation-stamped so "visited
// this round" is one compare instead of a map clear. The per-slot arrays
// grow only in slotOf and the buffers only in ensure, so the BFS itself
// runs allocation-free once the network has been seen.
type spScratch struct {
	dist []int32     // slot → hop count this generation
	nhop []mnet.Addr // slot → canonical next hop this generation
	gen  []uint32    // slot → generation stamp
	cur  uint32      // current generation

	order   []int32 // slots in visit order (frontier by frontier)
	front   []int32
	next    []int32
	twoKeys []mnet.Addr
	desired []route.ProtoRoute
	hnaLive []hnaAssoc
}

// ensure grows the frontier and install buffers to hold at most bound
// visited nodes plus hnaN gateway prefixes. bound counts distinct addresses
// (every visited node owns a slot), and growth is geometric, so a cold
// start that learns the network one tuple at a time reallocates O(log n)
// times rather than once per recompute.
//
//mk:allow hotalloc scratch growth is amortized: buffers are reused and grow only when the network outgrows every previous recompute
func (sc *spScratch) ensure(bound, hnaN int) {
	if len(sc.order) < bound {
		n := max(bound, 2*len(sc.order))
		sc.order = make([]int32, n)
		sc.front = make([]int32, n)
		sc.next = make([]int32, n)
	}
	if len(sc.desired) < bound+hnaN {
		sc.desired = make([]route.ProtoRoute, max(bound+hnaN, 2*len(sc.desired)))
	}
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
// messages, learned residual power, and the protocol's routing table. One
// dense address index (slot ↔ addrs) serves both the topology set, whose
// per-originator records hang off it, and the shortest-path pass, whose
// per-node arrays are indexed by it.
type State struct {
	Routes *route.Table

	mu      sync.Mutex
	slot    map[mnet.Addr]int32 // addr → dense slot
	addrs   []mnet.Addr         // slot → addr
	topo    []origTopo          // slot → that originator's record
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
		slot:     make(map[mnet.Addr]int32),
		power:    make(map[mnet.Addr]float64),
		ownPower: 1.0,
	}
}

// slotOf returns a's dense slot, creating one on first sight: RecordTC
// assigns an originator's and a destination's slot when it first records
// them, ComputeRoutes a neighbour's. compactIndex reclaims slots nothing
// refers to any more. Called with s.mu held.
//
//mk:allow hotalloc new-slot appends happen once per distinct address; the steady-state BFS never grows
func (s *State) slotOf(a mnet.Addr) int32 {
	if sl, ok := s.slot[a]; ok {
		return sl
	}
	sl := int32(len(s.addrs))
	s.slot[a] = sl
	s.addrs = append(s.addrs, a)
	s.topo = append(s.topo, origTopo{})
	sc := &s.scratch
	sc.dist = append(sc.dist, 0)
	sc.nhop = append(sc.nhop, mnet.Addr{})
	sc.gen = append(sc.gen, 0)
	return sl
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
// O(degree) on the per-originator record. advertised is only read (it may
// be a received message's shared address block). It reports whether the
// topology changed.
func (s *State) RecordTC(orig mnet.Addr, ansn uint16, advertised []mnet.Addr, expiry time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	us := s.slotOf(orig)
	// Work on a copy of the record: slotOf below may move s.topo.
	rec := s.topo[us]
	if rec.known && packetbb.SeqNewer(rec.ansn, ansn) {
		return false
	}
	changed := false
	if rec.known && packetbb.SeqNewer(ansn, rec.ansn) && len(rec.edges) > 0 {
		rec.edges = rec.edges[:0]
		changed = true
	}
	rec.known, rec.ansn = true, ansn
	if expiry.After(rec.until) {
		rec.until = expiry
	}
	if cap(rec.edges) == 0 {
		// A first TC's edges in one allocation, not append's doublings.
		rec.edges = make([]topoEdge, 0, len(advertised))
	}
	for _, d := range advertised {
		if d == orig {
			continue
		}
		i, found := slices.BinarySearchFunc(rec.edges, d, func(e topoEdge, d mnet.Addr) int { return e.dst.Compare(d) })
		if found {
			rec.edges[i].exp = expiry
			continue
		}
		rec.edges = slices.Insert(rec.edges, i, topoEdge{dst: d, slot: s.slotOf(d), exp: expiry})
		changed = true
	}
	s.topo[us] = rec
	return changed
}

// PurgeTopo drops expired tuples, compacting each originator's edges in
// place, and forgets an originator (ANSN included) once its record's
// validity has passed. It reports whether any tuple was removed.
func (s *State) PurgeTopo(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for us := range s.topo {
		rec := &s.topo[us]
		if !rec.known {
			continue
		}
		if !rec.until.After(now) {
			// No tuple outlives the record's validity: all are expired.
			changed = changed || len(rec.edges) > 0
			*rec = origTopo{}
			continue
		}
		n := len(rec.edges)
		rec.edges = slices.DeleteFunc(rec.edges, func(e topoEdge) bool { return !e.exp.After(now) })
		changed = changed || len(rec.edges) < n
	}
	return changed
}

// compactIndex bounds the address index. A slot is live while it has a
// topology record, is the destination of some record's tuple, or was
// reached by the latest shortest-path pass (which covers the current 1- and
// 2-hop neighbours). When fewer than half the slots are live, the index is
// rebuilt from the live ones and every tuple's slot renumbered, so a TC
// storm from addresses that never return cannot grow the per-slot arrays
// without limit. Nothing observable depends on slot numbers — the BFS
// visits tuples in address order — so replay is unchanged.
func (s *State) compactIndex() {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := &s.scratch
	live := make([]bool, len(s.addrs))
	for us := range s.topo {
		if s.topo[us].known || (sc.cur != 0 && sc.gen[us] == sc.cur) {
			live[us] = true
		}
		for _, e := range s.topo[us].edges {
			live[e.slot] = true
		}
	}
	n := 0
	for _, l := range live {
		if l {
			n++
		}
	}
	if 2*n >= len(live) {
		return
	}
	// Live slots keep their order; remap[old] is a live slot's new number.
	remap := make([]int32, len(live))
	for old, next := 0, int32(0); old < len(live); old++ {
		if live[old] {
			remap[old] = next
			next++
		}
	}
	s.addrs = keepLive(s.addrs, live, n)
	s.topo = keepLive(s.topo, live, n)
	sc.dist = keepLive(sc.dist, live, n)
	sc.nhop = keepLive(sc.nhop, live, n)
	sc.gen = keepLive(sc.gen, live, n)
	s.slot = make(map[mnet.Addr]int32, n)
	for us, a := range s.addrs {
		s.slot[a] = int32(us)
		edges := s.topo[us].edges
		for i := range edges {
			edges[i].slot = remap[edges[i].slot]
		}
	}
}

// keepLive returns a fresh slice of the n live elements of xs in their old
// order, so the dead slots' memory is released with the old backing array.
func keepLive[T any](xs []T, live []bool, n int) []T {
	out := make([]T, 0, n)
	for old, x := range xs {
		if live[old] {
			out = append(out, x)
		}
	}
	return out
}

// Edges returns the live topology tuples at time now, sorted.
func (s *State) Edges(now time.Time) [][2]mnet.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	origins := make([]mnet.Addr, 0, len(s.topo))
	for us := range s.topo {
		if len(s.topo[us].edges) > 0 {
			origins = append(origins, s.addrs[us])
		}
	}
	sortAddrs(origins)
	var out [][2]mnet.Addr
	for _, o := range origins {
		for _, e := range s.topo[s.slot[o]].edges {
			if e.exp.After(now) {
				out = append(out, [2]mnet.Addr{o, e.dst})
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
// level by level through each last hop's sorted edge list, reading a
// destination's slot and expiry straight from the edge. Within a
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
	// Every visited node owns a slot, and only the seeds can add slots.
	sc.ensure(len(s.addrs)+len(oneHop)+len(twoHop), len(s.hna))
	sc.cur++
	if sc.cur == 0 {
		sc.resetGen()
	}
	cur := sc.cur

	norder, nfront, nnext := 0, 0, 0
	for _, nb := range oneHop {
		ns := s.slotOf(nb)
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
		ds := s.slotOf(dst)
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
			unh := sc.nhop[us]
			edges := s.topo[us].edges
			for i := range edges {
				e := &edges[i]
				if e.dst == self || !e.exp.After(now) {
					continue
				}
				ds := e.slot
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
			Dst:     mnet.HostPrefix(s.addrs[slot]),
			NextHop: sc.nhop[slot],
			Metric:  int(sc.dist[slot]),
			Expires: exp,
		}
		nd++
	}
	// Gateway prefixes route like their gateway, one hop beyond it; skip
	// associations whose gateway is unreachable this round.
	for _, a := range s.collectLiveHNA(now) {
		gs, ok := s.slot[a.e.gateway]
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
