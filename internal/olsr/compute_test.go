package olsr

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/route"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

func sortAddrs(a []mnet.Addr) { slices.SortFunc(a, mnet.Addr.Compare) }

type hopRef struct {
	nextHop mnet.Addr
	metric  int
}

// referenceRoutes is the pre-index shortest-path calculation — the
// O(E×diameter) fixpoint relaxation ComputeRoutes replaced — kept here as
// the differential-test oracle. The only addition over the historical code
// is the equal-metric tie-break towards the smaller next hop, which is the
// canonical solution the BFS min-merge converges to; metrics and the
// reachable set are exactly the historical ones.
func referenceRoutes(s *State, self mnet.Addr, oneHop []mnet.Addr, twoHop map[mnet.Addr][]mnet.Addr, now time.Time) map[mnet.Addr]hopRef {
	best := make(map[mnet.Addr]hopRef)
	for _, nb := range oneHop {
		best[nb] = hopRef{nextHop: nb, metric: 1}
	}
	for dst, vias := range twoHop {
		if _, ok := best[dst]; ok || len(vias) == 0 {
			continue
		}
		best[dst] = hopRef{nextHop: vias[0], metric: 2}
	}
	edges := s.Edges(now)
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			last, dest := e[0], e[1]
			if dest == self {
				continue
			}
			le, ok := best[last]
			if !ok {
				continue
			}
			cand := hopRef{nextHop: le.nextHop, metric: le.metric + 1}
			cur, ok := best[dest]
			if !ok || cand.metric < cur.metric ||
				(cand.metric == cur.metric && cand.nextHop.Less(cur.nextHop)) {
				best[dest] = cand
				changed = true
			}
		}
	}
	return best
}

// modelTopo is a naive flat tuple set mirroring the semantics the
// slot-indexed records must preserve: ANSN gating, fresher-ANSN flush,
// per-tuple expiry, and an ANSN memory that dies with the validity of the
// last TC accepted from its originator.
type modelTopo struct {
	tuples map[[2]mnet.Addr]time.Time
	ansn   map[mnet.Addr]modelANSN
}

type modelANSN struct {
	ansn  uint16
	until time.Time
}

func newModelTopo() *modelTopo {
	return &modelTopo{tuples: make(map[[2]mnet.Addr]time.Time), ansn: make(map[mnet.Addr]modelANSN)}
}

func (m *modelTopo) recordTC(orig mnet.Addr, ansn uint16, advertised []mnet.Addr, expiry time.Time) (changed bool) {
	prev, known := m.ansn[orig]
	if known && packetbb.SeqNewer(prev.ansn, ansn) {
		return false
	}
	if !known || packetbb.SeqNewer(ansn, prev.ansn) {
		for e := range m.tuples {
			if e[0] == orig {
				delete(m.tuples, e)
				changed = true
			}
		}
	}
	if expiry.After(prev.until) {
		prev.until = expiry
	}
	m.ansn[orig] = modelANSN{ansn: ansn, until: prev.until}
	for _, d := range advertised {
		if d == orig {
			continue
		}
		if _, ok := m.tuples[[2]mnet.Addr{orig, d}]; !ok {
			changed = true
		}
		m.tuples[[2]mnet.Addr{orig, d}] = expiry
	}
	return changed
}

func (m *modelTopo) purge(now time.Time) (changed bool) {
	for e, exp := range m.tuples {
		if !exp.After(now) {
			delete(m.tuples, e)
			changed = true
		}
	}
	for o, a := range m.ansn {
		if !a.until.After(now) {
			delete(m.ansn, o)
		}
	}
	return changed
}

// advertisedBy returns what orig currently advertises in the model, sorted.
func (m *modelTopo) advertisedBy(orig mnet.Addr) []mnet.Addr {
	var out []mnet.Addr
	for e := range m.tuples {
		if e[0] == orig {
			out = append(out, e[1])
		}
	}
	sortAddrs(out)
	return out
}

func (m *modelTopo) edges(now time.Time) [][2]mnet.Addr {
	out := make([][2]mnet.Addr, 0, len(m.tuples))
	for e, exp := range m.tuples {
		if exp.After(now) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0].Less(out[j][0])
		}
		return out[i][1].Less(out[j][1])
	})
	return out
}

func nodeAddr(i int) mnet.Addr {
	return mnet.AddrFrom(0x0a000001 + uint32(i))
}

// TestComputeRoutesMatchesReference drives the indexed BFS and the fixpoint
// oracle over randomized topology histories — stale-ANSN interleavings,
// ANSN steps across the serial-number boundaries (0x7fff, 0x8000,
// 0xffff→0), self-loop advertisements, several address blocks in one TC
// (unsorted, with repeats), expiry-only refreshes, expiry purges down to
// nothing followed by a return, index compaction between steps,
// disconnected components — and requires the slot-indexed records to match
// a naive flat tuple model and the installed route table to match the
// oracle exactly.
func TestComputeRoutesMatchesReference(t *testing.T) {
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		clk := vclock.NewVirtual(testbed.Epoch)
		s := NewState(route.NewTable(clk))
		model := newModelTopo()
		n := 4 + rng.Intn(12)
		self := nodeAddr(0)
		// Where this trial's ANSNs start: mid-range, or just short of the
		// half-range and wrap boundaries so small steps cross them.
		ansnBase := []uint16{0, 0x7ffc, 0xfffc}[trial%3]
		lastANSN := make(map[mnet.Addr]uint16)

		randomCompute := func() {
			// Random neighbourhood inputs: a sorted symmetric set (never
			// self) and a 2-hop map with sorted vias.
			var oneHop []mnet.Addr
			for i := 1; i < n; i++ {
				if rng.Intn(3) == 0 {
					oneHop = append(oneHop, nodeAddr(i))
				}
			}
			twoHop := make(map[mnet.Addr][]mnet.Addr)
			for i := 1; i < n; i++ {
				if rng.Intn(4) != 0 {
					continue
				}
				var vias []mnet.Addr
				for v := 1; v < n; v++ {
					if rng.Intn(5) == 0 {
						vias = append(vias, nodeAddr(v))
					}
				}
				twoHop[nodeAddr(i)] = vias // sometimes empty: must be skipped
			}
			now := clk.Now()
			got := s.ComputeRoutes(self, oneHop, twoHop, now, time.Minute, "olsr")
			want := referenceRoutes(s, self, oneHop, twoHop, now)
			if got != len(want) {
				t.Fatalf("trial %d: ComputeRoutes = %d destinations, reference = %d", trial, got, len(want))
			}
			entries := s.Routes.Entries()
			if len(entries) != len(want) {
				t.Fatalf("trial %d: table has %d entries, reference %d", trial, len(entries), len(want))
			}
			for _, e := range entries {
				ref, ok := want[e.Dst.Addr]
				if !ok {
					t.Fatalf("trial %d: table has unexpected destination %v", trial, e.Dst)
				}
				if !e.Valid || e.Proto != "olsr" || len(e.Paths) != 1 {
					t.Fatalf("trial %d: malformed entry %+v", trial, e)
				}
				if e.Paths[0].NextHop != ref.nextHop || e.Paths[0].Metric != ref.metric {
					t.Fatalf("trial %d: route to %v = via %v metric %d, reference via %v metric %d",
						trial, e.Dst.Addr, e.Paths[0].NextHop, e.Paths[0].Metric, ref.nextHop, ref.metric)
				}
			}
		}
		record := func(op int, orig mnet.Addr, ansn uint16, adv []mnet.Addr, expiry time.Time) {
			lastANSN[orig] = ansn
			sent := slices.Clone(adv)
			got, want := s.RecordTC(orig, ansn, adv, expiry), model.recordTC(orig, ansn, adv, expiry)
			if got != want {
				t.Fatalf("trial %d op %d: RecordTC(%v, %d, %v) changed = %v, model %v", trial, op, orig, ansn, adv, got, want)
			}
			if !slices.Equal(adv, sent) {
				t.Fatalf("trial %d op %d: RecordTC wrote through its advertised argument: %v, was %v", trial, op, adv, sent)
			}
		}
		purge := func() {
			now := clk.Now()
			if got, want := s.PurgeTopo(now), model.purge(now); got != want {
				t.Fatalf("trial %d: PurgeTopo changed = %v, model %v", trial, got, want)
			}
		}

		ops := 10 + rng.Intn(60)
		for op := 0; op < ops; op++ {
			switch rng.Intn(18) {
			case 0:
				purge()
			case 1:
				clk.Advance(time.Duration(1+rng.Intn(3)) * time.Second)
			case 2:
				randomCompute() // interleaved: exercises diff-install removal
			case 3:
				// Every tuple and every ANSN memory times out; whoever
				// returns afterwards starts from nothing.
				clk.Advance(6 * time.Second)
				purge()
				if e := s.Edges(clk.Now()); len(e) != 0 {
					t.Fatalf("trial %d op %d: %d edges survive a purge past every expiry", trial, op, len(e))
				}
			case 4:
				s.compactIndex() // slot numbers move, nothing observable may
			case 5:
				// Expiry-only refresh: same ANSN, same set, later expiry.
				orig := nodeAddr(rng.Intn(n))
				if a, ok := model.ansn[orig]; ok {
					record(op, orig, a.ansn, model.advertisedBy(orig), clk.Now().Add(6*time.Second))
				}
			case 6:
				// A step of about half the number space from the last ANSN
				// sent: 0x7fff is the largest step still fresher, 0x8000 is
				// neither older nor fresher, 0x8001 is older.
				orig := nodeAddr(rng.Intn(n))
				step := []uint16{0x7fff, 0x8000, 0x8001}[rng.Intn(3)]
				record(op, orig, lastANSN[orig]+step, []mnet.Addr{nodeAddr(rng.Intn(n))}, clk.Now().Add(3*time.Second))
			default:
				orig := nodeAddr(rng.Intn(n))
				ansn := ansnBase + uint16(rng.Intn(8)) // small range forces stale interleavings
				adv := make([]mnet.Addr, 0, 10)
				if rng.Intn(4) == 0 {
					adv = append(adv, orig) // self-loop: must be ignored
				}
				// One to three address blocks, concatenated as onTC does:
				// unsorted across blocks, and an address may repeat.
				for blocks := 1 + rng.Intn(3); blocks > 0; blocks-- {
					for k := rng.Intn(4); k > 0; k-- {
						adv = append(adv, nodeAddr(rng.Intn(n)))
					}
				}
				record(op, orig, ansn, adv, clk.Now().Add(time.Duration(1+rng.Intn(5))*time.Second))
			}
			gotE, wantE := s.Edges(clk.Now()), model.edges(clk.Now())
			if len(gotE) != len(wantE) {
				t.Fatalf("trial %d op %d: index has %d edges, model %d", trial, op, len(gotE), len(wantE))
			}
			for i := range gotE {
				if gotE[i] != wantE[i] {
					t.Fatalf("trial %d op %d: edge[%d] = %v, model %v", trial, op, i, gotE[i], wantE[i])
				}
			}
		}
		randomCompute()
	}
}

// TestComputeRoutesCanonicalTieBreak pins the equal-cost rule: when a
// destination is reachable over several shortest paths, the installed next
// hop is the lexicographically smallest one.
func TestComputeRoutesCanonicalTieBreak(t *testing.T) {
	s, clk := newState()
	self := addr("10.0.0.1")
	a, b, d := addr("10.0.0.2"), addr("10.0.0.3"), addr("10.0.0.9")
	exp := clk.Now().Add(time.Minute)
	// Diamond: both neighbours advertise d — two equal-cost 2-hop paths.
	s.RecordTC(b, 1, []mnet.Addr{d}, exp) // deliberately record the larger hop first
	s.RecordTC(a, 1, []mnet.Addr{d}, exp)
	s.ComputeRoutes(self, []mnet.Addr{a, b}, nil, clk.Now(), time.Minute, "olsr")
	e, ok := s.Routes.Get(d)
	if !ok || e.Paths[0].NextHop != a || e.Paths[0].Metric != 2 {
		t.Fatalf("diamond route = %+v, want via %v metric 2", e, a)
	}
}

// ringNeighbours is what node i of a 4-regular ring of n advertises.
func ringNeighbours(i, n int) []mnet.Addr {
	return []mnet.Addr{
		nodeAddr((i + 1) % n),
		nodeAddr((i + 2) % n),
		nodeAddr((i - 1 + n) % n),
		nodeAddr((i - 2 + n) % n),
	}
}

// buildRing records a 4-regular ring topology of n originators (4n tuples)
// so benchmark sizes scale by edge count while staying fully connected.
func buildRing(s *State, n int, expiry time.Time) {
	for i := 0; i < n; i++ {
		s.RecordTC(nodeAddr(i), 1, ringNeighbours(i, n), expiry)
	}
}

// TestComputeRoutesSteadyStateAllocs pins the acceptance criterion: a
// steady-state recompute at 1000 topology edges allocates nothing, touches
// no FIB entry, and hands ApplyProto empty lists — the scratch buffers and
// the installed record are warm after the first pass.
func TestComputeRoutesSteadyStateAllocs(t *testing.T) {
	s, clk := newState()
	fib := route.NewFIB()
	s.Routes.SyncFIB(fib, "wlan0")
	n := 250 // 4n = 1000 topology tuples
	buildRing(s, n, clk.Now().Add(time.Hour))
	self := nodeAddr(0)
	oneHop := []mnet.Addr{nodeAddr(1), nodeAddr(n - 1)}
	twoHop := map[mnet.Addr][]mnet.Addr{
		nodeAddr(2):     {nodeAddr(1)},
		nodeAddr(n - 2): {nodeAddr(n - 1)},
	}
	now := clk.Now()
	s.ComputeRoutes(self, oneHop, twoHop, now, time.Hour, "olsr")
	s.ComputeRoutes(self, oneHop, twoHop, now, time.Hour, "olsr")
	ops := fib.Ops()
	allocs := testing.AllocsPerRun(20, func() {
		s.ComputeRoutes(self, oneHop, twoHop, now, time.Hour, "olsr")
	})
	if allocs != 0 {
		t.Fatalf("steady-state ComputeRoutes at 1000 edges allocates %.1f times per run, want 0", allocs)
	}
	if got := fib.Ops(); got != ops {
		t.Fatalf("21 steady-state recomputes made %d FIB ops, want 0", got-ops)
	}
	set, del, reached := s.routeDelta(self, oneHop, s.scratch.walk, now) // the walk ComputeRoutes laid out
	if len(set) != 0 || len(del) != 0 || reached != n-1 {
		t.Fatalf("steady-state pass: %d routes to set, %d to delete, %d reached; want 0, 0, %d", len(set), len(del), reached, n-1)
	}
}

// TestOLSRRouteHasNoLifetime: as in RFC 3626 §10, an installed OLSR host
// route carries no expiry. It stays usable however long no pass runs, and
// goes when a pass no longer reaches its destination.
func TestOLSRRouteHasNoLifetime(t *testing.T) {
	s, clk := newState()
	self, nb, far := addr("10.0.0.1"), addr("10.0.0.2"), addr("10.0.0.3")
	s.RecordTC(nb, 1, []mnet.Addr{far}, clk.Now().Add(15*time.Second))
	s.ComputeRoutes(self, []mnet.Addr{nb}, nil, clk.Now(), 15*time.Second, "olsr")
	for _, dst := range []mnet.Addr{nb, far} {
		e, ok := s.Routes.Get(dst)
		if !ok || len(e.Paths) != 1 || !e.Paths[0].Expires.IsZero() {
			t.Fatalf("route to %v = %+v (ok=%v), want one path with a zero Expires", dst, e, ok)
		}
	}
	clk.Advance(time.Hour)
	if _, p, err := s.Routes.Lookup(far); err != nil || p.NextHop != nb {
		t.Fatalf("an hour without a pass: Lookup(%v) = %+v, %v; want the route via %v", far, p, err, nb)
	}
	s.PurgeTopo(clk.Now())
	s.ComputeRoutes(self, []mnet.Addr{nb}, nil, clk.Now(), 15*time.Second, "olsr")
	if _, _, err := s.Routes.Lookup(far); err == nil {
		t.Fatalf("the route to %v survived the pass after its tuple expired", far)
	}
	if _, _, err := s.Routes.Lookup(nb); err != nil {
		t.Fatalf("the neighbour's route went: %v", err)
	}
}

// TestSweepWithoutCompactionAllocs: a periodic sweep — purge, index
// compaction check, recompute — that finds nothing to compact allocates
// nothing.
func TestSweepWithoutCompactionAllocs(t *testing.T) {
	s, clk := newState()
	n := 250
	buildRing(s, n, clk.Now().Add(time.Hour))
	self := nodeAddr(0)
	oneHop := []mnet.Addr{nodeAddr(1), nodeAddr(n - 1)}
	sweep := func() {
		s.PurgeTopo(clk.Now())
		s.compactIndex()
		s.ComputeRoutes(self, oneHop, nil, clk.Now(), time.Hour, "olsr")
	}
	sweep()
	slots := len(s.addrs)
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Fatalf("a sweep that does not compact allocates %.1f times, want 0", allocs)
	}
	if len(s.addrs) != slots {
		t.Fatalf("the index went from %d to %d slots: the sweep compacted", slots, len(s.addrs))
	}
}

func BenchmarkComputeRoutes(b *testing.B) {
	for _, edges := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			s, clk := newState()
			n := edges / 4
			buildRing(s, n, clk.Now().Add(time.Hour))
			self := nodeAddr(0)
			oneHop := []mnet.Addr{nodeAddr(1), nodeAddr(n - 1)}
			twoHop := map[mnet.Addr][]mnet.Addr{
				nodeAddr(2):     {nodeAddr(1)},
				nodeAddr(n - 2): {nodeAddr(n - 1)},
			}
			now := clk.Now()
			s.ComputeRoutes(self, oneHop, twoHop, now, time.Hour, "olsr")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ComputeRoutes(self, oneHop, twoHop, now, time.Hour, "olsr")
			}
		})
	}
}

// coldStart learns a 4-regular ring of n originators one TC at a time with a
// recompute after each — what a node does while the first TC floods reach
// it, and the case where the working set must not be rebuilt per tuple.
func coldStart(s *State, n int, now time.Time) {
	self := nodeAddr(0)
	oneHop := []mnet.Addr{nodeAddr(1), nodeAddr(n - 1)}
	expiry := now.Add(time.Hour)
	for i := 0; i < n; i++ {
		s.RecordTC(nodeAddr(i), 1, ringNeighbours(i, n), expiry)
		s.ComputeRoutes(self, oneHop, nil, now, time.Hour, "olsr")
	}
}

// TestRecomputeWhileTopologyGrows pins the working set's growth: 200
// recomputes on a warm 1000-tuple topology, each after one new tuple
// between nodes already known, allocate next to nothing — the per-slot
// arrays do not move and the frontier buffers are sized by addresses, not
// tuples. (Sized by tuples and re-made at exact size, the same run
// allocated 15 MB.)
func TestRecomputeWhileTopologyGrows(t *testing.T) {
	s, clk := newState()
	n := 250
	expiry := clk.Now().Add(time.Hour)
	buildRing(s, n, expiry)
	self := nodeAddr(0)
	oneHop := []mnet.Addr{nodeAddr(1), nodeAddr(n - 1)}
	now := clk.Now()
	s.ComputeRoutes(self, oneHop, nil, now, time.Hour, "olsr")
	s.ComputeRoutes(self, oneHop, nil, now, time.Hour, "olsr")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		// Same ANSN, one more destination: a chord across the far side of
		// the ring, so no route changes and the install stays quiet.
		if !s.RecordTC(nodeAddr(100+i%50), 1, []mnet.Addr{nodeAddr(110 + i/50 + i%50)}, expiry) {
			t.Fatalf("step %d: the new tuple was not new", i)
		}
		s.ComputeRoutes(self, oneHop, nil, now, time.Hour, "olsr")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 {
		t.Fatalf("200 recomputes with one new tuple each allocated %d KiB, want <= 128", got>>10)
	}
}

// BenchmarkComputeRoutesGrowing times a whole cold start: one op learns the
// ring TC by TC, recomputing after each.
func BenchmarkComputeRoutesGrowing(b *testing.B) {
	for _, edges := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			clk := vclock.NewVirtual(testbed.Epoch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coldStart(NewState(route.NewTable(clk)), edges/4, clk.Now())
			}
		})
	}
}

// forgedStorm runs ten hold times of a TC storm — 10 000 originators that
// each send one TC advertising an address of their own and never return —
// against a node that also hears a steady 20-node ring, sweeping once a
// second as the protocol does. It returns a hash of the routes after every
// sweep, the
// index size after every hold time, and the live heap after hold times 4
// and 10.
func forgedStorm(t *testing.T, compact bool) (routes []uint64, indexLen []int, heap [2]uint64) {
	const (
		hold    = 15 * time.Second
		ringN   = 20
		perSec  = 10000 / (10 * 15)
		forged0 = 0x0b000000
	)
	s, clk := newState()
	self := nodeAddr(0)
	oneHop := []mnet.Addr{nodeAddr(1), nodeAddr(ringN - 1)}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	forged := uint32(forged0)
	for sec := 1; sec <= 10*int(hold/time.Second); sec++ {
		now := clk.Now()
		buildRing(s, ringN, now.Add(hold)) // expiry-only refresh after the first
		// A ring node relays the storm's newest originators, so the BFS
		// walks forged records too.
		relayed := []mnet.Addr{nodeAddr(4), nodeAddr(6)}
		for k := 0; k < perSec+1; k++ {
			orig := mnet.AddrFrom(forged)
			s.RecordTC(orig, uint16(forged), []mnet.Addr{mnet.AddrFrom(forged + 0x01000000)}, now.Add(hold))
			relayed = append(relayed, orig)
			forged++
		}
		s.RecordTC(nodeAddr(5), uint16(1+sec), relayed, now.Add(hold))

		clk.Advance(time.Second)
		s.PurgeTopo(clk.Now())
		if compact {
			s.compactIndex()
		}
		s.ComputeRoutes(self, oneHop, nil, clk.Now(), hold, "olsr")
		h := fnv.New64a()
		fmt.Fprint(h, s.Routes.Entries())
		routes = append(routes, h.Sum64())
		if sec%int(hold/time.Second) == 0 {
			indexLen = append(indexLen, len(s.addrs))
			switch sec / int(hold/time.Second) {
			case 4:
				heap[0] = liveHeap()
			case 10:
				heap[1] = liveHeap()
			}
		}
	}
	if forged-forged0 < 10000 {
		t.Fatalf("storm sent only %d forged originators", forged-forged0)
	}
	runtime.KeepAlive(s)
	return routes, indexLen, heap
}

// TestForgedOriginatorStormPlateaus pins the bound on the address index:
// under a storm of originators that never return, the index and the heap
// behind it level off at about what one hold time keeps alive, and the
// routes are those of a twin that never compacts (and grows without limit).
func TestForgedOriginatorStormPlateaus(t *testing.T) {
	routes, indexLen, heap := forgedStorm(t, true)
	twinRoutes, twinLen, _ := forgedStorm(t, false)
	for i := range routes {
		if routes[i] != twinRoutes[i] {
			t.Fatalf("sweep %d: routes differ from the uncompacted twin", i)
		}
	}
	// One hold time keeps ~1000 originators and as many destinations alive;
	// compaction runs when half the slots are dead.
	for i, n := range indexLen {
		if n > 2*2*1100 {
			t.Fatalf("after hold time %d the index holds %d slots; it should plateau near 2x the ~2000 live addresses (all: %v)", i+1, n, indexLen)
		}
	}
	if last := twinLen[len(twinLen)-1]; last < 20000 {
		t.Fatalf("the uncompacted twin holds only %d slots: the storm is not exercising the bound", last)
	}
	if heap[1] > heap[0]+heap[0]/4+(256<<10) {
		t.Fatalf("live heap grew from %d KiB after 4 hold times to %d KiB after 10", heap[0]>>10, heap[1]>>10)
	}
	t.Logf("index slots per hold time: %v (twin %v); live heap %d -> %d KiB", indexLen, twinLen, heap[0]>>10, heap[1]>>10)
}

// TestANSNMemoryExpiresWithRecord: an originator's ANSN is remembered only
// as long as the topology record it arrived in (RFC 3626 §9.5 keeps T_seq
// in the tuple). A node whose OLSR restarts — ANSN back at 0 — is heard
// again once its old tuples have timed out, not ignored until its counter
// passes the value the neighbours remember.
func TestANSNMemoryExpiresWithRecord(t *testing.T) {
	s, clk := newState()
	orig, d1, d2 := addr("10.0.0.2"), addr("10.0.0.3"), addr("10.0.0.4")
	hold := 15 * time.Second
	if !s.RecordTC(orig, 17, []mnet.Addr{d1}, clk.Now().Add(hold)) {
		t.Fatal("first TC reported unchanged")
	}
	// Inside the hold time the restarted counter is still a stale ANSN,
	// whether or not a sweep has run.
	clk.Advance(hold - time.Second)
	s.PurgeTopo(clk.Now())
	if s.RecordTC(orig, 0, []mnet.Addr{d2}, clk.Now().Add(hold)) {
		t.Fatal("ANSN 0 accepted while the ANSN-17 record is still valid")
	}
	clk.Advance(2 * time.Second)
	if !s.PurgeTopo(clk.Now()) {
		t.Fatal("expired tuple not purged")
	}
	if !s.RecordTC(orig, 0, []mnet.Addr{d2}, clk.Now().Add(hold)) {
		t.Fatal("ANSN 0 rejected after the ANSN-17 record timed out")
	}
	if e := s.Edges(clk.Now()); len(e) != 1 || e[0] != [2]mnet.Addr{orig, d2} {
		t.Fatalf("edges = %v, want the restarted originator's tuple", e)
	}
}

// TestRecordValidityBeforeBase: a record's validity is its own TC's expiry
// even when that falls before the time base another originator's TC fixed,
// so the record, ANSN memory included, dies with its tuples.
func TestRecordValidityBeforeBase(t *testing.T) {
	s, clk := newState()
	early, late, d := addr("10.0.0.2"), addr("10.0.0.3"), addr("10.0.0.4")
	s.RecordTC(late, 1, []mnet.Addr{d}, clk.Now().Add(10*time.Second))
	s.RecordTC(early, 17, []mnet.Addr{d}, clk.Now().Add(5*time.Second))
	clk.Advance(7 * time.Second)
	if !s.PurgeTopo(clk.Now()) {
		t.Fatal("the early originator's tuple was not purged")
	}
	if !s.RecordTC(early, 0, []mnet.Addr{d}, clk.Now().Add(5*time.Second)) {
		t.Fatal("ANSN 0 rejected after the early ANSN-17 record timed out")
	}
}

// gridNeighbours returns node i's 4-neighbourhood on a side×side grid.
func gridNeighbours(i, side int) []mnet.Addr {
	var out []mnet.Addr
	r, c := i/side, i%side
	for _, d := range [][2]int{{-1, 0}, {0, -1}, {0, 1}, {1, 0}} {
		if rr, cc := r+d[0], c+d[1]; rr >= 0 && rr < side && cc >= 0 && cc < side {
			out = append(out, nodeAddr(rr*side+cc))
		}
	}
	return out
}

// TestStateBytesPerDestination pins what one node of a 12×12 OLSR grid
// holds for its topology and routes: every node's TC recorded, then one
// shortest-path pass installed. Four states are built so the heap's
// background noise is spread thin.
func TestStateBytesPerDestination(t *testing.T) {
	const side, limit = 12, 360
	n := side * side
	clk := vclock.NewVirtual(testbed.Epoch)
	self := nodeAddr(0)
	oneHop := gridNeighbours(0, side)
	twoHop := map[mnet.Addr][]mnet.Addr{}
	for _, nb := range oneHop {
		for _, th := range gridNeighbours(int(nb.Uint32()-nodeAddr(0).Uint32()), side) {
			if th != self && !slices.Contains(oneHop, th) {
				twoHop[th] = append(twoHop[th], nb)
			}
		}
	}
	advertised := make([][]mnet.Addr, n)
	for i := range advertised {
		advertised[i] = gridNeighbours(i, side)
	}
	expiry := clk.Now().Add(time.Minute)
	before := liveHeap()
	var states [4]*State
	for j := range states {
		states[j] = NewState(route.NewTable(clk))
		for i := 0; i < n; i++ {
			states[j].RecordTC(nodeAddr(i), 1, advertised[i], expiry)
		}
		if got := states[j].ComputeRoutes(self, oneHop, twoHop, clk.Now(), time.Minute, "olsr"); got != n-1 {
			t.Fatalf("the pass reached %d destinations, want %d", got, n-1)
		}
	}
	per := float64(liveHeap()-before) / float64((n-1)*len(states))
	runtime.KeepAlive(&states)
	t.Logf("%d destinations: %.1f B each", n-1, per)
	if per > limit {
		t.Fatalf("%d destinations cost %.1f B each, want at most %d", n-1, per, limit)
	}
}

// liveHeap returns the bytes in use on the heap after two full collections;
// the second frees what the first only moved to sync.Pool victim caches.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestForgedAddressesKeepProbeChainsShort: 4 096 forged addresses of each
// shape an attacker might pick against the address index (a shared low 20
// bits, multiples of 2^16, sequential) keep every look-up in it to a short
// probe chain. The table is half full; the three shapes read 16 to 21
// slots, about what random keys give.
func TestForgedAddressesKeepProbeChainsShort(t *testing.T) {
	const n, limit = 4096, 24
	shapes := map[string]func(i uint32) uint32{
		"shared low 20 bits": func(i uint32) uint32 { return i<<20 | 0x0abcd },
		"multiples of 2^16":  func(i uint32) uint32 { return i << 16 },
		"sequential":         func(i uint32) uint32 { return 0x0a000000 + i },
	}
	for shape, forge := range shapes {
		s, _ := newState()
		s.mu.Lock()
		for i := uint32(0); i < n; i++ {
			s.slotOf(mnet.AddrFrom(forge(i)))
		}
		got := s.slot.LongestChain()
		s.mu.Unlock()
		if len(s.addrs) != n {
			t.Fatalf("%s: %d slots, want %d", shape, len(s.addrs), n)
		}
		t.Logf("%s: longest probe chain %d", shape, got)
		if got > limit {
			t.Errorf("%s: a look-up probes up to %d slots, want at most %d", shape, got, limit)
		}
	}
}
