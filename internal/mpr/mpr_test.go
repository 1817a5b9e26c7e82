package mpr

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
	"manetkit/internal/packetbb"
	"manetkit/internal/reactive"
	"manetkit/internal/testbed"
)

func addr(s string) mnet.Addr { return mnet.MustParseAddr(s) }

// buildLinks constructs a link table for MPR selection unit tests: self's
// symmetric neighbours and, per neighbour, the 2-hop nodes it reaches.
func buildLinks(nbs map[string][]string, wills map[string]uint8) *neighbor.Table {
	t := neighbor.NewTable()
	for nb, reaches := range nbs {
		var two []mnet.Addr
		for _, r := range reaches {
			two = append(two, addr(r))
		}
		w := uint8(3)
		if wills != nil {
			if v, ok := wills[nb]; ok {
				w = v
			}
		}
		t.Observe(addr(nb), true, w, two, testbed.Epoch)
	}
	return t
}

func TestGreedyCoversAllTwoHop(t *testing.T) {
	self := addr("10.0.0.1")
	links := buildLinks(map[string][]string{
		"10.0.0.2": {"10.0.1.1", "10.0.1.2"},
		"10.0.0.3": {"10.0.1.2", "10.0.1.3"},
		"10.0.0.4": {"10.0.1.3"},
	}, nil)
	sel := NewGreedyCalculator().Select(self, links)
	covered := make(map[mnet.Addr]bool)
	th := links.TwoHopSet(self)
	for _, s := range sel {
		for dst, vias := range th {
			for _, v := range vias {
				if v == s {
					covered[dst] = true
				}
			}
		}
	}
	if len(covered) != len(th) {
		t.Fatalf("selection %v covers %d/%d 2-hop nodes", sel, len(covered), len(th))
	}
}

func TestGreedyPicksSoleVia(t *testing.T) {
	self := addr("10.0.0.1")
	links := buildLinks(map[string][]string{
		"10.0.0.2": {"10.0.1.1"},
		"10.0.0.3": {"10.0.1.1", "10.0.1.2"}, // 10.0.1.2 only via n3
	}, nil)
	sel := NewGreedyCalculator().Select(self, links)
	found := false
	for _, s := range sel {
		if s == addr("10.0.0.3") {
			found = true
		}
	}
	if !found {
		t.Fatalf("sole-via neighbour not selected: %v", sel)
	}
}

func TestGreedySkipsWillNever(t *testing.T) {
	self := addr("10.0.0.1")
	links := buildLinks(map[string][]string{
		"10.0.0.2": {"10.0.1.1"},
		"10.0.0.3": {"10.0.1.1"},
	}, map[string]uint8{"10.0.0.2": 0})
	sel := NewGreedyCalculator().Select(self, links)
	if len(sel) != 1 || sel[0] != addr("10.0.0.3") {
		t.Fatalf("selection = %v (must avoid WILL_NEVER)", sel)
	}
}

func TestGreedySelectionIsMinimalish(t *testing.T) {
	// A star where one neighbour covers everything: selection should be 1.
	self := addr("10.0.0.1")
	links := buildLinks(map[string][]string{
		"10.0.0.2": {"10.0.1.1", "10.0.1.2", "10.0.1.3"},
		"10.0.0.3": {"10.0.1.1"},
		"10.0.0.4": {"10.0.1.2"},
	}, nil)
	sel := NewGreedyCalculator().Select(self, links)
	if len(sel) != 1 || sel[0] != addr("10.0.0.2") {
		t.Fatalf("selection = %v, want just the hub", sel)
	}
}

func TestPowerAwarePrefersHighBattery(t *testing.T) {
	self := addr("10.0.0.1")
	links := buildLinks(map[string][]string{
		"10.0.0.2": {"10.0.1.1", "10.0.1.2"}, // big coverage, low battery
		"10.0.0.3": {"10.0.1.1"},             // high battery
		"10.0.0.4": {"10.0.1.2"},             // high battery
	}, map[string]uint8{"10.0.0.2": 1, "10.0.0.3": 7, "10.0.0.4": 7})
	greedy := NewGreedyCalculator().Select(self, links)
	power := NewPowerAwareCalculator().Select(self, links)
	if len(greedy) != 1 || greedy[0] != addr("10.0.0.2") {
		t.Fatalf("greedy = %v", greedy)
	}
	if len(power) != 2 {
		t.Fatalf("power-aware = %v, want the two high-battery relays", power)
	}
	for _, a := range power {
		if a == addr("10.0.0.2") {
			t.Fatalf("power-aware picked the drained relay: %v", power)
		}
	}
}

func TestSelectionCoverageProperty(t *testing.T) {
	// For random 2-hop topologies, the greedy selection always covers every
	// 2-hop node reachable via a willing relay.
	f := func(seed int64) bool {
		rng := newRand(seed)
		links := neighbor.NewTable()
		self := addr("10.0.0.1")
		nNbs := 2 + rng.Intn(6)
		for i := 0; i < nNbs; i++ {
			nb := mnet.AddrFrom(0x0a000002 + uint32(i))
			var two []mnet.Addr
			for j := 0; j < rng.Intn(5); j++ {
				two = append(two, mnet.AddrFrom(0x0a000100+uint32(rng.Intn(8))))
			}
			links.Observe(nb, true, uint8(1+rng.Intn(7)), two, testbed.Epoch)
		}
		sel := NewGreedyCalculator().Select(self, links)
		selSet := make(map[mnet.Addr]bool)
		for _, s := range sel {
			selSet[s] = true
		}
		for dst, vias := range links.TwoHopSet(self) {
			covered := false
			for _, v := range vias {
				if selSet[v] {
					covered = true
					break
				}
			}
			if !covered {
				_ = dst
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// deployMPRs builds a cluster with an MPR CF per node.
func deployMPRs(t *testing.T, n int) (*testbed.Cluster, []*MPR) {
	t.Helper()
	c, err := testbed.New(n, testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ms := make([]*MPR, n)
	for i, node := range c.Nodes {
		ms[i] = New("")
		if err := node.Mgr.Deploy(ms[i].Protocol()); err != nil {
			t.Fatal(err)
		}
		if err := ms[i].Protocol().Start(); err != nil {
			t.Fatal(err)
		}
	}
	return c, ms
}

func TestMPRConvergenceOnLine(t *testing.T) {
	c, ms := deployMPRs(t, 3)
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(16 * time.Second)

	// Ends select the middle node as their (only possible) relay.
	for _, i := range []int{0, 2} {
		sel := ms[i].State().Selected()
		if len(sel) != 1 || sel[0] != c.Nodes[1].Addr {
			t.Fatalf("node %d selected %v", i, sel)
		}
	}
	// Middle node knows both ends selected it.
	selectors := ms[1].State().Selectors()
	if len(selectors) != 2 {
		t.Fatalf("middle selectors = %v", selectors)
	}
	// Middle node has no 2-hop nodes (line of 3), so selects nobody.
	if sel := ms[1].State().Selected(); len(sel) != 0 {
		t.Fatalf("middle selected %v", sel)
	}
}

func TestMPRChangeEventEmitted(t *testing.T) {
	c, _ := deployMPRs(t, 3)
	var mu sync.Mutex
	var payloads []*event.MPRPayload
	c.Nodes[0].Mgr.SubscribeContext(event.MPRChange, func(ev *event.Event) {
		mu.Lock()
		payloads = append(payloads, ev.MPR)
		mu.Unlock()
	})
	if err := c.Line(); err != nil {
		t.Fatal(err)
	}
	c.Run(16 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(payloads) == 0 {
		t.Fatal("no MPR_CHANGE emitted")
	}
	last := payloads[len(payloads)-1]
	if len(last.Selected) != 1 || last.Selected[0] != c.Nodes[1].Addr {
		t.Fatalf("final MPR payload = %+v", last)
	}
}

func TestFlooderDedupAndSelectorGate(t *testing.T) {
	m := New("")
	f := m.Flooder()
	orig := addr("10.0.0.9")
	prev := addr("10.0.0.2")
	now := testbed.Epoch

	// prev has not selected us: no forwarding.
	if f.ShouldForward(orig, 1, prev, now) {
		t.Fatal("forwarded without being prev's MPR")
	}
	// Mark prev as a selector.
	m.State().mu.Lock()
	m.State().selectors = []mnet.Addr{prev}
	m.State().mu.Unlock()
	if !f.ShouldForward(orig, 2, prev, now) {
		t.Fatal("selector's flood not forwarded")
	}
	// Duplicate suppressed.
	if f.ShouldForward(orig, 2, prev, now) {
		t.Fatal("duplicate forwarded")
	}
	// Seen() pre-marks our own floods.
	f.Seen(orig, 3, now)
	if f.ShouldForward(orig, 3, prev, now) {
		t.Fatal("own flood forwarded back")
	}
}

// TestFloodDupSetPlateaus floods one node's Flooder with TCs from a new
// forged originator every tick while the expiry sweep runs every
// HelloInterval/2. The duplicate set holds each entry for reactive.DupHold,
// so it plateaus at rate × (DupHold + sweep period) entries, and the live
// heap stops growing with it. A Go map reclaims deleted slots only when it
// rehashes, so under this churn the table doubles once within the first few
// hold times; the heap is compared over the second half of a sixteen-hold
// storm, after that. A set that kept every entry would grow by at least
// 16 B × 4 800 entries ≈ 75 KiB there; the limit leaves room for one more
// doubling and for what the package's other tests leave behind.
func TestFloodDupSetPlateaus(t *testing.T) {
	c, ms := deployMPRs(t, 1)
	m := ms[0]
	f := m.Flooder()
	const tick, holds = 50 * time.Millisecond, 16
	period := neighbor.HelloInterval / 2
	bound := int((reactive.DupHold + period) / tick)
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var s runtime.MemStats
		runtime.ReadMemStats(&s)
		return int64(s.HeapAlloc)
	}
	// Stay off the sweep grid so no entry sits exactly on a boundary.
	c.Run(tick / 2)
	var half int64
	peak, last := 0, 0
	for i := 0; time.Duration(i)*tick < holds*reactive.DupHold; i++ {
		if time.Duration(i)*tick == holds/2*reactive.DupHold {
			half = liveHeap()
		}
		orig := mnet.AddrFrom(0x0a100000 + uint32(i))
		f.ShouldForward(orig, uint16(i), orig, c.Clock.Now())
		c.Run(tick)
		st := m.State()
		st.mu.Lock()
		last = st.dupes.Len()
		st.mu.Unlock()
		peak = max(peak, last)
	}
	growth := liveHeap() - half
	t.Logf("duplicate set: peak %d, final %d, bound %d; live heap grew %d B over the second half", peak, last, bound, growth)
	if peak > bound {
		t.Fatalf("duplicate set peaked at %d entries, bound %d", peak, bound)
	}
	if floor := int(reactive.DupHold / tick); last < floor {
		t.Fatalf("duplicate set holds %d entries at the end, want at least %d (one hold time)", last, floor)
	}
	if growth > 32<<10 {
		t.Fatalf("live heap grew %d B over the second half of a steady storm", growth)
	}
}

func TestWillingnessFollowsBattery(t *testing.T) {
	c, ms := deployMPRs(t, 1)
	node := c.Nodes[0]
	// Fake POWER_STATUS events through a co-deployed sensor protocol.
	sensor := newSensorProto(t, node)
	sensor.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 1.0}})
	if w := ms[0].State().Willingness(); w != 7 {
		t.Fatalf("willingness at full battery = %d", w)
	}
	sensor.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.5}})
	if w := ms[0].State().Willingness(); w != 4 {
		t.Fatalf("willingness at half battery = %d", w)
	}
	sensor.Emit(&event.Event{Type: event.PowerStatus, Power: &event.PowerPayload{Fraction: 0.01}})
	if w := ms[0].State().Willingness(); w != 0 {
		t.Fatalf("willingness when flat = %d", w)
	}
}

func TestSetCalculatorSwapsComponent(t *testing.T) {
	c, ms := deployMPRs(t, 1)
	_ = c
	m := ms[0]
	if m.CalculatorName() != "mpr-calculator" {
		t.Fatalf("initial calculator = %q", m.CalculatorName())
	}
	if err := m.SetCalculator(NewPowerAwareCalculator()); err != nil {
		t.Fatal(err)
	}
	if m.CalculatorName() != "mpr-calculator-power" {
		t.Fatalf("calculator after swap = %q", m.CalculatorName())
	}
	// The CF reflects the swap.
	if _, ok := m.Protocol().CF().Plug("mpr-calculator-power"); !ok {
		t.Fatal("new calculator not plugged into CF")
	}
	if _, ok := m.Protocol().CF().Plug("mpr-calculator"); ok {
		t.Fatal("old calculator still plugged")
	}
}

// newSensorProto deploys a minimal unit providing POWER_STATUS on the node.
func newSensorProto(t *testing.T, node *testbed.Node) *core.Protocol {
	t.Helper()
	p := core.NewProtocol("fake-sensor")
	p.SetTuple(event.Tuple{Provided: []event.Type{event.PowerStatus}})
	if err := node.Mgr.Deploy(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestGreedySelectionTable pins the selection heuristic's edge cases:
// deterministic tie-breaking, isolated neighbourhoods and willingness
// filtering interacting with the mandatory sole-via step.
func TestGreedySelectionTable(t *testing.T) {
	cases := []struct {
		name  string
		nbs   map[string][]string
		wills map[string]uint8
		want  []string
	}{
		{
			name: "equal score breaks ties by lowest address",
			nbs: map[string][]string{
				"10.0.0.9": {"10.0.1.1"},
				"10.0.0.2": {"10.0.1.1"},
				"10.0.0.5": {"10.0.1.1"},
			},
			want: []string{"10.0.0.2"},
		},
		{
			name: "equal coverage prefers higher willingness",
			nbs: map[string][]string{
				"10.0.0.2": {"10.0.1.1"},
				"10.0.0.3": {"10.0.1.1"},
			},
			wills: map[string]uint8{"10.0.0.2": 3, "10.0.0.3": 6},
			want:  []string{"10.0.0.3"},
		},
		{
			name: "coverage dominates willingness in the default scorer",
			nbs: map[string][]string{
				"10.0.0.2": {"10.0.1.1", "10.0.1.2"},
				"10.0.0.3": {"10.0.1.1"},
			},
			wills: map[string]uint8{"10.0.0.2": 1, "10.0.0.3": 7},
			want:  []string{"10.0.0.2"},
		},
		{
			name: "isolated neighbours need no relays",
			nbs: map[string][]string{
				"10.0.0.2": {},
				"10.0.0.3": {},
			},
			want: []string{},
		},
		{
			name: "no selection at all without neighbours",
			nbs:  map[string][]string{},
			want: []string{},
		},
		{
			name: "two-hop node reachable only via unwilling relays is skipped",
			nbs: map[string][]string{
				"10.0.0.2": {"10.0.1.1"},
				"10.0.0.3": {"10.0.1.1"},
			},
			wills: map[string]uint8{"10.0.0.2": 0, "10.0.0.3": 0},
			want:  []string{},
		},
		{
			name: "sole-via step ignores WILL_NEVER alternatives",
			nbs: map[string][]string{
				"10.0.0.2": {"10.0.1.1"},
				"10.0.0.3": {"10.0.1.1"},
			},
			wills: map[string]uint8{"10.0.0.2": 0, "10.0.0.3": 3},
			want:  []string{"10.0.0.3"},
		},
		{
			name: "mandatory sole-via beats a better-scoring rival",
			nbs: map[string][]string{
				"10.0.0.2": {"10.0.1.1", "10.0.1.2", "10.0.1.3"},
				"10.0.0.3": {"10.0.1.4"},
			},
			wills: map[string]uint8{"10.0.0.2": 7, "10.0.0.3": 1},
			want:  []string{"10.0.0.2", "10.0.0.3"},
		},
	}
	self := addr("10.0.0.1")
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sel := NewGreedyCalculator().Select(self, buildLinks(tc.nbs, tc.wills))
			got := make([]string, len(sel))
			for i, a := range sel {
				got[i] = a.String()
			}
			want := tc.want
			if len(got) != len(want) {
				t.Fatalf("Select() = %v, want %v", got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Select() = %v, want %v", got, want)
				}
			}
		})
	}
}

// TestAcceptedHelloAllocs pins an accepted HELLO at no allocation once the
// neighbourhood has been seen: the sensor parses it into its scratch, the
// link set keeps its record's storage, and the relay selection it triggers
// borrows a warm working set and changes nothing.
func TestAcceptedHelloAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the relay selection's pooled working set is dropped at random under the race detector")
	}
	c, m, rx := deployWithReceiver(t)
	self := c.Nodes[0].Addr
	sym := packetbb.LinkStatusSymmetric
	var hellos []*event.Event
	for i := uint32(0); i < 6; i++ {
		nb := mnet.AddrFrom(0x0a010001 + i)
		listed := []listing{{self, sym, i%2 == 0}}
		for j := uint32(0); j < 4; j++ {
			listed = append(listed, listing{mnet.AddrFrom(0x0a020000 + (i*2+j)%10), sym, false})
		}
		hellos = append(hellos, &event.Event{Type: event.HelloIn, Msg: helloFrom(nb, listed...), Src: nb})
	}
	for range 3 {
		for _, ev := range hellos {
			if err := rx.Emit(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	rx0 := m.State().Stats().HelloRx
	i := 0
	if got := testing.AllocsPerRun(100, func() {
		_ = rx.Emit(hellos[i%len(hellos)])
		i++
	}); got != 0 {
		t.Fatalf("an accepted HELLO = %.1f allocs, want 0", got)
	}
	if n := m.State().Stats().HelloRx - rx0; n != 101 {
		t.Fatalf("%d of 101 HELLOs accepted", n)
	}
	if sel := m.State().Selected(); len(sel) == 0 {
		t.Fatal("no relay selected: the recompute did no work")
	}
}
