package harness

import (
	"fmt"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/mono"
	"manetkit/internal/packetbb"
)

// Table1 holds the measurements of the paper's Table 1.
type Table1 struct {
	// Time to Process Message (mean per message).
	ProcOLSRMono time.Duration // Unik-olsrd analogue, TC message
	ProcOLSRKit  time.Duration // MANETKit OLSR, TC message
	ProcDYMOMono time.Duration // DYMOUM analogue, RREQ
	ProcDYMOKit  time.Duration // MANETKit DYMO, RREQ

	// Route Establishment Delay (simulated time).
	RouteOLSRMono time.Duration
	RouteOLSRKit  time.Duration
	RouteDYMOMono time.Duration
	RouteDYMOKit  time.Duration
}

// Print renders the table in the paper's layout.
func (t Table1) Print() {
	fmt.Println("Table 1. Comparative Performance of MANETKit Protocols")
	fmt.Printf("%-32s %12s %12s %14s %12s\n", "", "Mono-olsr", "MKit-OLSR", "Mono-dymo", "MKit-DYMO")
	fmt.Printf("%-32s %12s %12s %14s %12s\n", "Time to Process Message (ms)",
		fms(t.ProcOLSRMono), fms(t.ProcOLSRKit), fms(t.ProcDYMOMono), fms(t.ProcDYMOKit))
	fmt.Printf("%-32s %12s %12s %14s %12s\n", "Route Establishment Delay (ms)",
		fms(t.RouteOLSRMono), fms(t.RouteOLSRKit), fms(t.RouteDYMOMono), fms(t.RouteDYMOKit))
}

func fms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// MeasureTable1 runs all four measurements of both rows.
func MeasureTable1(procIters int) (Table1, error) {
	var t Table1
	var err error
	if t.ProcOLSRKit, err = TimeToProcessOLSRKit(procIters); err != nil {
		return t, err
	}
	if t.ProcOLSRMono, err = TimeToProcessOLSRMono(procIters); err != nil {
		return t, err
	}
	if t.ProcDYMOKit, err = TimeToProcessDYMOKit(procIters); err != nil {
		return t, err
	}
	if t.ProcDYMOMono, err = TimeToProcessDYMOMono(procIters); err != nil {
		return t, err
	}
	if t.RouteOLSRKit, err = RouteEstablishmentOLSRKit(); err != nil {
		return t, err
	}
	if t.RouteOLSRMono, err = RouteEstablishmentOLSRMono(); err != nil {
		return t, err
	}
	if t.RouteDYMOKit, err = RouteEstablishmentDYMOKit(); err != nil {
		return t, err
	}
	if t.RouteDYMOMono, err = RouteEstablishmentDYMOMono(); err != nil {
		return t, err
	}
	return t, nil
}

// tcWorkload builds the i-th distinct TC message from a fixed neighbour:
// fresh ANSN and sequence number so every iteration does full update work.
func tcWorkload(orig mnet.Addr, i int) *packetbb.Message {
	ansn := uint16(i + 1)
	return &packetbb.Message{
		Type:       packetbb.MsgTC,
		Originator: orig,
		HopLimit:   250,
		SeqNum:     uint16(i + 1),
		TLVs:       []packetbb.TLV{{Type: packetbb.TLVANSN, Value: packetbb.U16(ansn)}},
		AddrBlocks: []packetbb.AddrBlock{{
			Addrs: []mnet.Addr{
				mnet.AddrFrom(0x0a000100 + uint32(i%3)),
				mnet.AddrFrom(0x0a000200 + uint32(i%5)),
			},
		}},
	}
}

// TimeToProcessOLSRKit measures the MANETKit OLSR composition's per-TC
// processing time (receipt at the unit to handler completion), Table 1.
func TimeToProcessOLSRKit(iters int) (time.Duration, error) {
	c, nodes, err := FamilyCluster(1, "olsr")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	self := c.Nodes[0]
	peer := mnet.AddrFrom(0x0a0000fe)
	// Prime the link state: the TC sender must be a symmetric neighbour.
	nodes[0].Set.MPR().State().Links.Observe(peer, true, 3, nil, c.Clock.Now())

	unit := nodes[0].Set.OLSR().Protocol()
	start := time.Now() //mk:allow determinism wall-clock microbenchmark, reports real elapsed time
	for i := 0; i < iters; i++ {
		ev := &event.Event{Type: event.TCIn, Msg: tcWorkload(peer, i), Src: peer, Time: c.Clock.Now()}
		sec := unit.Section()
		sec.Lock()
		if err := unit.Accept(ev); err != nil {
			sec.Unlock()
			return 0, err
		}
		sec.Unlock()
	}
	_ = self
	return time.Since(start) / time.Duration(iters), nil //mk:allow determinism wall-clock microbenchmark, reports real elapsed time
}

// TimeToProcessOLSRMono is the monolithic counterpart.
func TimeToProcessOLSRMono(iters int) (time.Duration, error) {
	mc, err := MonoOLSRCluster(1)
	if err != nil {
		return 0, err
	}
	defer mc.Close()
	o := mc.OLSR[0]
	peer := mnet.AddrFrom(0x0a0000fe)
	// Prime: a HELLO from the peer listing us makes the link symmetric.
	hello := &packetbb.Message{
		Type:       packetbb.MsgHello,
		Originator: peer,
		AddrBlocks: []packetbb.AddrBlock{{
			Addrs: []mnet.Addr{mc.Addrs[0]},
			TLVs: []packetbb.AddrTLV{{
				Type: packetbb.ATLVLinkStatus, Value: packetbb.U8(packetbb.LinkStatusSymmetric),
			}},
		}},
	}
	o.HandleHello(hello, peer)

	start := time.Now() //mk:allow determinism wall-clock microbenchmark, reports real elapsed time
	for i := 0; i < iters; i++ {
		o.HandleTC(tcWorkload(peer, i), peer)
	}
	return time.Since(start) / time.Duration(iters), nil //mk:allow determinism wall-clock microbenchmark, reports real elapsed time
}

// rreqWorkload builds the i-th distinct RREQ (fresh originator sequence
// number so duplicate suppression never triggers).
func rreqWorkload(orig, target mnet.Addr, i int) *packetbb.Message {
	return &packetbb.Message{
		Type:       packetbb.MsgRREQ,
		Originator: orig,
		SeqNum:     uint16(i + 1),
		HopLimit:   10,
		HopCount:   2,
		AddrBlocks: []packetbb.AddrBlock{{Addrs: []mnet.Addr{target}}},
	}
}

// TimeToProcessDYMOKit measures the MANETKit DYMO composition's per-RREQ
// processing time (the node acts as an intermediate forwarder).
func TimeToProcessDYMOKit(iters int) (time.Duration, error) {
	c, nodes, err := FamilyCluster(1, "dymo")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	orig := mnet.AddrFrom(0x0a0000fe)
	target := mnet.AddrFrom(0x0a0000fd)
	unit := nodes[0].Set.DYMO().Protocol()
	start := time.Now() //mk:allow determinism wall-clock microbenchmark, reports real elapsed time
	for i := 0; i < iters; i++ {
		ev := &event.Event{Type: event.REIn, Msg: rreqWorkload(orig, target, i), Src: orig, Time: c.Clock.Now()}
		sec := unit.Section()
		sec.Lock()
		if err := unit.Accept(ev); err != nil {
			sec.Unlock()
			return 0, err
		}
		sec.Unlock()
	}
	return time.Since(start) / time.Duration(iters), nil //mk:allow determinism wall-clock microbenchmark, reports real elapsed time
}

// TimeToProcessDYMOMono is the monolithic counterpart.
func TimeToProcessDYMOMono(iters int) (time.Duration, error) {
	mc, err := MonoDYMOCluster(1)
	if err != nil {
		return 0, err
	}
	defer mc.Close()
	d := mc.DYMO[0]
	orig := mnet.AddrFrom(0x0a0000fe)
	target := mnet.AddrFrom(0x0a0000fd)
	start := time.Now() //mk:allow determinism wall-clock microbenchmark, reports real elapsed time
	for i := 0; i < iters; i++ {
		d.HandleRREQ(rreqWorkload(orig, target, i), orig)
	}
	return time.Since(start) / time.Duration(iters), nil //mk:allow determinism wall-clock microbenchmark, reports real elapsed time
}

// joinOffsets varies the instant the newcomer powers on relative to the
// running network's beacon/TC phases; route establishment is averaged over
// them so the comparison is not an artifact of one timer alignment.
var joinOffsets = []time.Duration{
	0, 1100 * time.Millisecond, 2300 * time.Millisecond,
	3700 * time.Millisecond, 4900 * time.Millisecond,
}

// RouteEstablishmentOLSRKit reproduces the paper's macro metric: a 4-node
// linear MANETKit-OLSR network runs to convergence, a 5th node joins at
// one end, and we measure the simulated time until the newcomer's routing
// table is fully populated (4 routes). The result is averaged over several
// join instants.
func RouteEstablishmentOLSRKit() (time.Duration, error) {
	var total time.Duration
	for _, off := range joinOffsets {
		d, err := routeEstablishmentOLSRKitOnce(off)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total / time.Duration(len(joinOffsets)), nil
}

func routeEstablishmentOLSRKitOnce(joinOffset time.Duration) (time.Duration, error) {
	c, _, err := FamilyCluster(4, "olsr")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.Line(); err != nil {
		return 0, err
	}
	c.Run(40*time.Second + joinOffset) // converge the existing network

	newcomer, err := c.AddNode(mnet.AddrFrom(0x0a000001 + 4))
	if err != nil {
		return 0, err
	}
	// The newcomer is in radio range when its routing daemon starts.
	if err := c.Net.SetLink(c.Addrs()[3], newcomer.Addr, linkQuality()); err != nil {
		return 0, err
	}
	on, err := DeployFamily(c, newcomer, "olsr")
	if err != nil {
		return 0, err
	}
	start := c.Clock.Now()
	deadline := start.Add(5 * time.Minute)
	for on.RIBs["olsr"].ValidCount() < 4 {
		if !c.Clock.Step() || c.Clock.Now().After(deadline) {
			return 0, fmt.Errorf("harness: OLSR newcomer never converged (%d routes)", on.RIBs["olsr"].ValidCount())
		}
	}
	return c.Clock.Now().Sub(start), nil
}

// RouteEstablishmentOLSRMono is the monolithic counterpart, averaged over
// the same join instants.
func RouteEstablishmentOLSRMono() (time.Duration, error) {
	var total time.Duration
	for _, off := range joinOffsets {
		d, err := routeEstablishmentOLSRMonoOnce(off)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total / time.Duration(len(joinOffsets)), nil
}

func routeEstablishmentOLSRMonoOnce(joinOffset time.Duration) (time.Duration, error) {
	mc, err := MonoOLSRCluster(4)
	if err != nil {
		return 0, err
	}
	defer mc.Close()
	if err := mc.Line(); err != nil {
		return 0, err
	}
	mc.Clock.Advance(40*time.Second + joinOffset)

	addr := mnet.AddrFrom(0x0a000001 + 4)
	nic, err := mc.Net.Attach(addr)
	if err != nil {
		return 0, err
	}
	if err := mc.Net.SetLink(mc.Addrs[3], addr, linkQuality()); err != nil {
		return 0, err
	}
	o := mono.NewOLSR(nic, mc.Clock, mono.OLSRConfig{HelloInterval: HelloInterval, TCInterval: TCInterval})
	o.Start()
	defer o.Stop()
	start := mc.Clock.Now()
	deadline := start.Add(5 * time.Minute)
	for o.RouteCount() < 4 {
		if !mc.Clock.Step() || mc.Clock.Now().After(deadline) {
			return 0, fmt.Errorf("harness: mono OLSR newcomer never converged (%d routes)", o.RouteCount())
		}
	}
	return mc.Clock.Now().Sub(start), nil
}

// RouteEstablishmentDYMOKit measures a cold route discovery across the
// 5-node line: data send at one end to the other, NO_ROUTE through
// ROUTE_FOUND.
func RouteEstablishmentDYMOKit() (time.Duration, error) {
	c, nodes, err := FamilyCluster(5, "dymo")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.Line(); err != nil {
		return 0, err
	}
	c.Run(10 * time.Second) // neighbour detection settles; no routes yet

	done := false
	c.Nodes[0].Mgr.SubscribeContext(event.RouteFound, func(ev *event.Event) { done = true })
	start := c.Clock.Now()
	if err := nodes[0].Node.Sys.Filter().SendData(c.Addrs()[4], []byte("probe")); err != nil {
		return 0, err
	}
	deadline := start.Add(time.Minute)
	for !done {
		if !c.Clock.Step() || c.Clock.Now().After(deadline) {
			return 0, fmt.Errorf("harness: DYMO discovery never completed")
		}
	}
	return c.Clock.Now().Sub(start), nil
}

// RouteEstablishmentDYMOMono is the monolithic counterpart.
func RouteEstablishmentDYMOMono() (time.Duration, error) {
	mc, err := MonoDYMOCluster(5)
	if err != nil {
		return 0, err
	}
	defer mc.Close()
	if err := mc.Line(); err != nil {
		return 0, err
	}
	mc.Clock.Advance(10 * time.Second)

	done := false
	mc.DYMO[0].Discover(mc.Addrs[4], func(ok bool) { done = ok })
	start := mc.Clock.Now()
	deadline := start.Add(time.Minute)
	for !done {
		if !mc.Clock.Step() || mc.Clock.Now().After(deadline) {
			return 0, fmt.Errorf("harness: mono DYMO discovery never completed")
		}
	}
	return mc.Clock.Now().Sub(start), nil
}

func linkQuality() emunet.Quality { return emunet.DefaultQuality() }
