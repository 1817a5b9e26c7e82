package olsr

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/route"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

// deltaRig runs one program against two route tables: the State's own,
// which ComputeRoutes diff-installs through ApplyProto, and a reference
// that receives every pass's full desired set through ReplaceProto — the
// install rule the diff replaces. Both mirror into a FIB.
type deltaRig struct {
	t      *testing.T
	clk    *vclock.Virtual
	s      *State
	ref    *route.Table
	fib    *route.FIB
	refFIB *route.FIB
	n      int    // node addresses nodeAddr(0..n-1); node 0 is self
	forged uint32 // next never-returning originator of a storm
	hold   time.Duration
}

func newDeltaRig(t *testing.T) *deltaRig {
	clk := vclock.NewVirtual(testbed.Epoch)
	r := &deltaRig{
		t:      t,
		clk:    clk,
		s:      NewState(route.NewTable(clk)),
		ref:    route.NewTable(clk),
		fib:    route.NewFIB(),
		refFIB: route.NewFIB(),
		n:      9,
		forged: 0x0b000000,
		hold:   15 * time.Second,
	}
	r.s.Routes.SyncFIB(r.fib, "wlan0")
	r.ref.SyncFIB(r.refFIB, "wlan0")
	return r
}

// fullDesired is the desired set a full install hands ReplaceProto after
// the pass ComputeRoutes just ran, which reached reached destinations:
// every visited host in visit order with a hold-time lifetime.
func (r *deltaRig) fullDesired(now time.Time, reached int) []route.ProtoRoute {
	s, sc := r.s, &r.s.scratch
	var out []route.ProtoRoute
	for _, slot := range sc.order[:reached] {
		sl := sc.slots[slot]
		out = append(out, route.ProtoRoute{
			Dst: mnet.HostPrefix(s.addrs[slot]), NextHop: sl.nhop, Metric: int(sl.dist), Expires: now.Add(r.hold),
		})
	}
	return out
}

func (r *deltaRig) compute(step int, oneHop []mnet.Addr, twoHop map[mnet.Addr][]mnet.Addr) {
	now := r.clk.Now()
	reached := r.s.ComputeRoutes(nodeAddr(0), oneHop, twoHop, now, r.hold, "olsr")
	r.ref.ReplaceProto("olsr", r.fullDesired(now, reached))
	r.check(step)
}

func (r *deltaRig) check(step int) {
	t := r.t
	t.Helper()
	got, want := r.s.Routes.Entries(), r.ref.Entries()
	if len(got) != len(want) {
		t.Fatalf("step %d: diff-installed table has %d entries, reference %d\ngot  %v\nwant %v", step, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Dst != w.Dst || g.Valid != w.Valid || g.Proto != w.Proto || len(g.Paths) != len(w.Paths) {
			t.Fatalf("step %d: entry %d = %+v, reference %+v", step, i, g, w)
		}
		for k := range g.Paths {
			if g.Paths[k].NextHop != w.Paths[k].NextHop || g.Paths[k].Metric != w.Paths[k].Metric {
				t.Fatalf("step %d: entry %v path %d = %+v, reference %+v", step, g.Dst, k, g.Paths[k], w.Paths[k])
			}
		}
	}
	if g, w := r.fib.List(), r.refFIB.List(); !slices.Equal(g, w) {
		t.Fatalf("step %d: FIB = %v, reference %v", step, g, w)
	}
	if g, w := r.fib.Ops(), r.refFIB.Ops(); g != w {
		t.Fatalf("step %d: %d FIB ops, reference %d", step, g, w)
	}
}

// progReader hands out a program's bytes, zeros once it is exhausted.
type progReader struct {
	b []byte
	i int
}

func (p *progReader) next() byte {
	if p.i >= len(p.b) {
		return 0
	}
	p.i++
	return p.b[p.i-1]
}

// runDeltaProgram interprets prog as a sequence of operations on one node's
// OLSR state: TCs with fresh, stale and equal ANSNs over growing and
// shrinking sets, storms of originators that never return, clock steps,
// purges followed by index compaction, TCs that list their own originator
// and this node, stops, and recomputes over changing 1- and 2-hop seeds.
// After every recompute and every stop both tables must agree.
func runDeltaProgram(t *testing.T, prog []byte) {
	r := newDeltaRig(t)
	p := &progReader{b: prog}
	node := func(b byte) mnet.Addr { return nodeAddr(int(b) % r.n) }
	ansn := make(map[mnet.Addr]uint16)
	for step := 0; p.i < len(p.b); step++ {
		now := r.clk.Now()
		switch op := p.next() % 10; op {
		case 0, 1, 2:
			// A TC: the ANSN steps back, stays or moves on, and the
			// advertised set is a bitmask over the node addresses.
			orig := node(p.next())
			a := ansn[orig] + uint16(int(p.next()%4)-1)
			ansn[orig] = a
			mask := uint16(p.next()) | uint16(p.next()&1)<<8
			var adv []mnet.Addr
			for i := 0; i < r.n; i++ {
				if mask&(1<<i) != 0 {
					adv = append(adv, nodeAddr(i))
				}
			}
			r.s.RecordTC(orig, a, adv, now.Add(time.Duration(1+p.next()%6)*time.Second))
		case 3:
			r.clk.Advance(time.Duration(1+p.next()%3) * time.Second)
		case 4:
			// A storm relayed by a real node: originators that each
			// advertise one address of their own and never return, so a
			// later purge leaves most slots dead and compaction renumbers.
			relay := node(p.next())
			var relayed []mnet.Addr
			for k := 2 + int(p.next()%24); k > 0; k-- {
				orig := mnet.AddrFrom(r.forged)
				r.s.RecordTC(orig, 1, []mnet.Addr{mnet.AddrFrom(r.forged + 0x01000000)}, now.Add(time.Second))
				relayed = append(relayed, orig)
				r.forged++
			}
			ansn[relay]++
			r.s.RecordTC(relay, ansn[relay], relayed, now.Add(time.Second))
		case 5:
			r.s.PurgeTopo(now)
			r.s.compactIndex()
		case 6:
			// A TC at the originator's current ANSN that lists the
			// originator itself and this node beside one other node: the
			// first is dropped on record, the second by the pass.
			orig, x := node(p.next()), node(p.next())
			adv := []mnet.Addr{orig, nodeAddr(0), x}
			r.s.RecordTC(orig, ansn[orig], adv, now.Add(time.Duration(1+p.next()%4)*time.Second))
		case 7:
			// The protocol stops and is started again.
			r.s.ClearRoutes()
			r.ref.Clear()
			r.check(step)
		default:
			var oneHop []mnet.Addr
			mask := p.next()
			for i := 1; i < r.n; i++ {
				if mask&(1<<(i-1)) != 0 {
					oneHop = append(oneHop, nodeAddr(i))
				}
			}
			twoHop := make(map[mnet.Addr][]mnet.Addr)
			for k := int(p.next() % 3); k > 0; k-- {
				dst, via := node(p.next()), node(p.next())
				twoHop[dst] = append(twoHop[dst], via)
			}
			for _, vias := range twoHop {
				sortAddrs(vias)
			}
			r.compute(step, oneHop, twoHop)
		}
	}
}

// deltaSeeds is the fuzz target's seed corpus: random programs, long
// enough that each shrinks, stops, compacts and renumbers several times.
func deltaSeeds() [][]byte {
	rng := rand.New(rand.NewSource(27))
	var out [][]byte
	for i := 0; i < 48; i++ {
		prog := make([]byte, 200+rng.Intn(600))
		rng.Read(prog)
		out = append(out, prog)
	}
	return out
}

// FuzzComputeRoutesDelta requires ComputeRoutes' diff install to leave the
// routing table and the FIB (contents and cumulative operation count)
// exactly where installing each pass's full desired set through
// ReplaceProto leaves them.
func FuzzComputeRoutesDelta(f *testing.F) {
	for _, prog := range deltaSeeds() {
		f.Add(prog)
	}
	f.Fuzz(runDeltaProgram)
}
