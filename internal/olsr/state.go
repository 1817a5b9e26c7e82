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
	"sync/atomic"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/route"
)

// topoEdge is one topology tuple (originator → dst): the destination, its
// slot in the State's address index, and the tuple's expiry as nanoseconds
// past the State's time base — 16 bytes, so the BFS compares integers.
type topoEdge struct {
	dst  mnet.Addr
	slot int32
	exp  int64
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

// spSlot is one address slot's shortest-path state. dist, nhop and gen are
// the current pass's, generation-stamped so "visited this round" is one
// compare instead of a clear. instDist and instNhop record the host route
// the routing table holds for the slot, which is what lets a pass hand the
// table only what it changed. instDist is 0 when there is none and
// reinstall when a gateway route overwrote it; only slots the last pass
// reached have one.
type spSlot struct {
	dist     int32     // hop count this generation
	gen      uint32    // generation stamp
	nhop     mnet.Addr // canonical next hop this generation
	instDist int32     // metric of the installed host route
	instNhop mnet.Addr // next hop of the installed host route
}

// reinstall marks a slot's host route as overwritten in the table: the next
// pass that reaches the slot sets it again, one that does not removes it.
const reinstall = -1

// spScratch is the reusable shortest-path working set, indexed by the
// State's address slots. The per-slot records grow only in slotOf and the
// buffers only in ensure, so the BFS and the install diff run
// allocation-free once the network has been seen.
type spScratch struct {
	slots []spSlot // slot → pass and installed-route state
	cur   uint32   // current generation

	order   []int32 // slots in visit order (frontier by frontier)
	front   []int32
	next    []int32
	twoKeys []mnet.Addr
	set     []route.ProtoRoute // new or changed routes, in visit order
	del     []mnet.Prefix      // installed destinations this pass lost
	hnaLive []hnaAssoc
	hnaInst []mnet.Prefix // gateway prefixes the previous pass installed, sorted
	hnaNext []mnet.Prefix
	live    []bool // compactIndex's liveness marks
}

// ensure grows the frontier and install buffers to hold at most bound
// visited nodes plus hnaN gateway prefixes. bound counts distinct addresses
// (every visited node owns a slot), and growth is geometric, so a cold
// start that learns the network one tuple at a time reallocates O(log n)
// times rather than once per recompute.
func (sc *spScratch) ensure(bound, hnaN int) {
	if len(sc.order) < bound {
		n := max(bound, 2*len(sc.order))
		sc.order = make([]int32, n)
		sc.front = make([]int32, n)
		sc.next = make([]int32, n)
	}
	if len(sc.set) < bound+hnaN {
		n := max(bound+hnaN, 2*len(sc.set))
		sc.set = make([]route.ProtoRoute, n)
		sc.del = make([]mnet.Prefix, n)
	}
}

// resetGen invalidates every generation stamp after the uint32 counter
// wraps (once per ~4 billion recomputes).
func (sc *spScratch) resetGen() {
	for i := range sc.slots {
		sc.slots[i].gen = 0
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

	// base anchors topoEdge.exp, which is the expiry minus base (taken with
	// Sub, so a clock's monotonic reading is kept). The first RecordTC
	// fixes it.
	base    time.Time
	baseSet bool

	// Power-aware variant state.
	powerAware bool
	ownPower   float64

	// HNA (gateway) state.
	attached map[mnet.Prefix]bool     // prefixes this node announces
	hna      map[mnet.Prefix]hnaEntry // learned gateway associations

	tcTx, tcRx, tcFwd, mprChanges atomic.Uint64
}

// Stats counts OLSR activity.
type Stats struct {
	TCTx       uint64 // TC emissions, periodic and triggered
	TCRx       uint64 // TCs accepted from symmetric neighbours
	TCFwd      uint64 // MPR-optimised flood forwards
	MPRChanges uint64 // triggered advertised-set changes
}

// Stats returns a snapshot of the protocol counters.
func (s *State) Stats() Stats {
	return Stats{
		TCTx: s.tcTx.Load(), TCRx: s.tcRx.Load(),
		TCFwd: s.tcFwd.Load(), MPRChanges: s.mprChanges.Load(),
	}
}

// readMetrics reports the counters behind olsr_* to a metrics registry.
func (s *State) readMetrics(emit func(name string, v uint64)) {
	st := s.Stats()
	emit("olsr_tc_tx", st.TCTx)
	emit("olsr_tc_rx", st.TCRx)
	emit("olsr_tc_fwd", st.TCFwd)
	emit("olsr_mpr_changes", st.MPRChanges)
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
func (s *State) slotOf(a mnet.Addr) int32 {
	if sl, ok := s.slot[a]; ok {
		return sl
	}
	sl := int32(len(s.addrs))
	s.slot[a] = sl
	s.addrs = append(s.addrs, a)
	s.topo = append(s.topo, origTopo{})
	s.scratch.slots = append(s.scratch.slots, spSlot{})
	return sl
}

// since converts t to the int64 form topoEdge.exp is kept in.
func (s *State) since(t time.Time) int64 { return int64(t.Sub(s.base)) }

// SetOwnPower records the node's own residual battery fraction.
func (s *State) SetOwnPower(frac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ownPower = frac
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
	if !s.baseSet {
		s.base, s.baseSet = expiry, true
	}
	exp := s.since(expiry)
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
			rec.edges[i].exp = exp
			continue
		}
		rec.edges = slices.Insert(rec.edges, i, topoEdge{dst: d, slot: s.slotOf(d), exp: exp})
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
	nowK := s.since(now)
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
		rec.edges = slices.DeleteFunc(rec.edges, func(e topoEdge) bool { return e.exp <= nowK })
		changed = changed || len(rec.edges) < n
	}
	return changed
}

// compactIndex bounds the address index. A slot is live while it has a
// topology record, is the destination of some record's tuple, or was
// reached by the latest shortest-path pass (which covers the current 1- and
// 2-hop neighbours and every slot with an installed route). When fewer than
// half the slots are live, the index is rebuilt from the live ones and
// every tuple's slot renumbered, so a TC storm from addresses that never
// return cannot grow the per-slot arrays without limit. Nothing observable
// depends on slot numbers — the BFS visits tuples in address order — so
// replay is unchanged. The installed routes move with their slots. A sweep
// that does not compact allocates nothing.
func (s *State) compactIndex() {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := &s.scratch
	live := slices.Grow(sc.live[:0], len(s.addrs))[:len(s.addrs)]
	clear(live)
	sc.live = live
	for us := range s.topo {
		if s.topo[us].known || (sc.cur != 0 && sc.slots[us].gen == sc.cur) {
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
	sc.slots = keepLive(sc.slots, live, n)
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
	nowK := s.since(now)
	var out [][2]mnet.Addr
	for _, o := range origins {
		for _, e := range s.topo[s.slot[o]].edges {
			if e.exp > nowK {
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

// hnaRoutes appends to set the gateway routes this pass installs — every
// live association whose gateway the pass reached, one hop beyond it, in
// sorted prefix order and with the association's expiry — and to del the
// prefixes the previous pass installed that are not among them. Expired
// associations are dropped in passing. A gateway route for a host prefix
// overwrites that host's route in the table, so a reached host's record
// becomes reinstall and the next pass sets it again, as a full install
// would. Called with s.mu held, after the host diff; set and del have room
// for every live association and every prefix of the previous pass.
func (s *State) hnaRoutes(now time.Time, set []route.ProtoRoute, del []mnet.Prefix) ([]route.ProtoRoute, []mnet.Prefix) {
	sc := &s.scratch
	if len(s.hna) == 0 && len(sc.hnaInst) == 0 {
		return set, del
	}
	live := sc.hnaLive[:0]
	for p, e := range s.hna {
		if e.expires.After(now) {
			live = append(live, hnaAssoc{p, e})
		} else {
			delete(s.hna, p)
		}
	}
	sort.Slice(live, func(i, j int) bool { return prefixLess(live[i].p, live[j].p) })
	sc.hnaLive = live
	inst := sc.hnaNext[:0]
	for _, a := range live {
		gs, ok := s.slot[a.e.gateway]
		if !ok || sc.slots[gs].gen != sc.cur {
			continue // gateway unreachable this round
		}
		g := &sc.slots[gs]
		set = append(set, route.ProtoRoute{Dst: a.p, NextHop: g.nhop, Metric: int(g.dist) + 1, Expires: a.e.expires})
		inst = append(inst, a.p)
		if hs, ok := s.slot[a.p.Addr]; ok && a.p.Bits == 8*mnet.AddrLen && sc.slots[hs].gen == sc.cur {
			sc.slots[hs].instDist = reinstall
		}
	}
	// Both lists are sorted: one merge finds the vanished prefixes.
	j := 0
	for _, p := range sc.hnaInst {
		for j < len(inst) && prefixLess(inst[j], p) {
			j++
		}
		if j == len(inst) || inst[j] != p {
			del = append(del, p)
		}
	}
	sc.hnaInst, sc.hnaNext = inst, sc.hnaInst[:0]
	return set, del
}

// prefixLess orders prefixes by (address, length), the routing table's order.
func prefixLess(a, b mnet.Prefix) bool {
	if a.Addr != b.Addr {
		return a.Addr.Less(b.Addr)
	}
	return a.Bits < b.Bits
}

// ClearRoutes empties the routing table and forgets what the shortest-path
// passes installed, so the next pass installs every route afresh (protocol
// stop).
func (s *State) ClearRoutes() {
	s.mu.Lock()
	sc := &s.scratch
	for i := range sc.slots {
		sc.slots[i].instDist = 0
	}
	sc.hnaInst = sc.hnaInst[:0]
	s.mu.Unlock()
	s.Routes.Clear()
}

// sortedTwoHopKeys materialises the 2-hop destination set in sorted order
// into the reusable scratch key buffer. Called with s.mu held. Insertion
// sort rather than sort.Slice: the set is degree-bounded and this runs on
// every recompute, where sort.Slice's closure would allocate.
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
// The install is a diff against what the previous pass installed: the
// table's ApplyProto gets the host routes whose (metric, next hop) is new
// or changed, in visit order, then the live gateway routes, and as
// removals the installed hosts this pass did not reach and the vanished
// gateway prefixes. Host routes carry no lifetime (RFC 3626 §10): they stay
// until a pass removes them. A pass that changes nothing hands the table
// two empty lists. Scratch buffers make the whole pass allocation-free once
// the network has been seen. Calls are serialized by the protocol's
// critical section; the method is not reentrant. holdTime is unused and
// kept for the signature's callers. Returns the number of reachable
// destinations.
func (s *State) ComputeRoutes(self mnet.Addr, oneHop []mnet.Addr, twoHop map[mnet.Addr][]mnet.Addr, now time.Time, holdTime time.Duration, proto string) int {
	set, del, n := s.routeDelta(self, oneHop, twoHop, now)
	s.Routes.ApplyProto(proto, set, del)
	return n
}

// routeDelta is ComputeRoutes' shortest-path pass: it records the pass's
// routes as installed and returns what the table must change to hold them
// (scratch slices, valid until the next pass) and the number of reachable
// destinations.
func (s *State) routeDelta(self mnet.Addr, oneHop []mnet.Addr, twoHop map[mnet.Addr][]mnet.Addr, now time.Time) (set []route.ProtoRoute, del []mnet.Prefix, reached int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := &s.scratch
	// Every visited node owns a slot, and only the seeds can add slots.
	sc.ensure(len(s.addrs)+len(oneHop)+len(twoHop), len(s.hna)+len(sc.hnaInst))
	sc.cur++
	if sc.cur == 0 {
		sc.resetGen()
	}
	cur := sc.cur

	norder, nfront, nnext := 0, 0, 0
	for _, nb := range oneHop {
		ns := s.slotOf(nb)
		sl := &sc.slots[ns]
		if sl.gen == cur {
			continue
		}
		sl.gen, sl.dist, sl.nhop = cur, 1, nb
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
		sl := &sc.slots[ds]
		if sl.gen == cur {
			continue // already a 1-hop neighbour
		}
		sl.gen, sl.dist, sl.nhop = cur, 2, vias[0]
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
	nowK := s.since(now)
	slots := sc.slots
	for ; nfront > 0; d++ {
		for fi := 0; fi < nfront; fi++ {
			us := front[fi]
			unh := slots[us].nhop
			edges := s.topo[us].edges
			for i := range edges {
				e := &edges[i]
				if e.dst == self || e.exp <= nowK {
					continue
				}
				sl := &slots[e.slot]
				if sl.gen != cur {
					sl.gen, sl.dist, sl.nhop = cur, d+1, unh
					sc.order[norder] = e.slot
					norder++
					next[nnext] = e.slot
					nnext++
				} else if sl.dist == d+1 && unh.Less(sl.nhop) {
					sl.nhop = unh
				}
			}
		}
		front, next = next, front
		nfront, nnext = nnext, 0
	}

	nset := 0
	for _, slot := range sc.order[:norder] {
		sl := &slots[slot]
		if sl.instDist == sl.dist && sl.instNhop == sl.nhop {
			continue
		}
		sl.instDist, sl.instNhop = sl.dist, sl.nhop
		sc.set[nset] = route.ProtoRoute{Dst: mnet.HostPrefix(s.addrs[slot]), NextHop: sl.nhop, Metric: int(sl.dist)}
		nset++
	}
	// Only the last pass's slots have a route installed; those this pass
	// did not reach lose it.
	ndel := 0
	for slot := range slots {
		sl := &slots[slot]
		if sl.instDist == 0 || sl.gen == cur {
			continue
		}
		sl.instDist = 0
		sc.del[ndel] = mnet.HostPrefix(s.addrs[slot])
		ndel++
	}
	set, del = s.hnaRoutes(now, sc.set[:nset], sc.del[:ndel])
	return set, del, norder
}
