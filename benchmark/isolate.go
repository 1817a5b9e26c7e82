package main

import (
	"fmt"
	"runtime"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/harness"
	"manetkit/internal/kernel"
	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
	"manetkit/internal/olsr"
	"manetkit/internal/packetbb"
	"manetkit/internal/route"
	"manetkit/internal/system"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

// olsrTopo is what one OLSR node knew at the end of a traced round: the
// input State.ComputeRoutes is isolated on.
type olsrTopo struct {
	self   mnet.Addr
	edges  [][2]mnet.Addr
	oneHop []mnet.Addr
	twoHop map[mnet.Addr][]mnet.Addr
}

func snapshotOLSR(self mnet.Addr, st *olsr.State, links *neighbor.Table, now time.Time) *olsrTopo {
	return &olsrTopo{self: self, edges: st.Edges(now), oneHop: links.SymmetricAddrs(), twoHop: links.TwoHopSet(self)}
}

// olsrTopoOf reads the OLSR state of a harness-deployed node through the
// component kernel's interface meta-model.
func olsrTopoOf(fn *harness.FamilyNode, now time.Time) *olsrTopo {
	for _, u := range fn.Units {
		if st, ok := kernel.Query[*olsr.State](u); ok {
			return snapshotOLSR(fn.Node.Addr, st, fn.Links, now)
		}
	}
	return nil
}

// cost is an isolated per-operation cost.
type cost struct{ ns, allocs float64 }

// isolated holds every per-layer cost the traced run measures by replaying
// the inputs it recorded through one layer's public entry point at a time.
type isolated struct {
	cal               *calibrator
	bare              cost // emunet: per delivered frame, no-op receivers
	timer             cost // vclock: per fired timer
	demuxNs           float64
	fwd               cost // system: per forwarded hop, medium subtracted
	decode, encode    cost
	bytesPerPkt       float64
	emit              cost
	undeployUs        []float64
	tc, computeRoutes cost
	mprHello, ndHello cost
	re, routeUpdate   cost
	replaceSteady     cost // per entry
	replaceChurn      cost // per entry
	ribLookupNs       float64
	fibLookupNs       float64
	kit, mono         map[string]cost // per replayed frame, by family
	tcQuanta          int             // recompute quanta of the OLSR probe recording in which a TC changed the topology
	probeVirtual      time.Duration   // virtual length of the OLSR probe recording
}

// runIsolates measures every layer in isolation, one span per layer.
func runIsolates(tr *tracer, cal *calibrator, sz sizes, cp *capture, r *round) (*isolated, error) {
	iso := &isolated{cal: cal, kit: map[string]cost{}, mono: map[string]cost{}}
	if len(cp.probe) == 0 {
		return nil, fmt.Errorf("isolate: traced round recorded no probe frames")
	}
	step := func(name string, fn func() error) error {
		sp := tr.begin("isolate." + name)
		defer tr.end(sp)
		return fn()
	}
	var all recording // every probe frame, for the codec and demux isolates
	for _, rec := range cp.probe {
		all.frames = append(all.frames, rec.frames...)
		if rec.family == "olsr" {
			iso.probeVirtual += rec.span()
		}
	}
	if len(all.frames) == 0 {
		return nil, fmt.Errorf("isolate: probe node received no control frame")
	}

	steps := []struct {
		name string
		fn   func() error
	}{
		{"emunet", func() error { return iso.isolateEmunet(cp) }},
		{"vclock", func() error { iso.isolateVclock(sz, r.counts.pendingMax); return nil }},
		{"packetbb", func() error { return iso.isolateCodec(sz, &all) }},
		{"core", func() error { return iso.isolateCore(sz, r) }},
		{"system", func() error { return iso.isolateSystem(sz, cp) }},
		{"handlers", func() error { return iso.isolateHandlers(cp) }},
		{"olsr", func() error { iso.isolateComputeRoutes(sz, cp.olsr); return nil }},
		{"route", func() error { iso.isolateRoute(sz, r); return nil }},
		{"mono", func() error { return iso.isolateKitMono(cp, r) }},
	}
	for _, s := range steps {
		if err := step(s.name, s.fn); err != nil {
			return nil, fmt.Errorf("isolate.%s: %w", s.name, err)
		}
	}
	return iso, nil
}

// bareNetwork is the medium alone: the run's topology with receivers that
// do nothing.
func bareNetwork(cp *capture) (*vclock.Virtual, []*emunet.NIC, []mnet.Addr, *emunet.Network, error) {
	clk := vclock.NewVirtual(testbed.Epoch)
	net := emunet.New(clk, cp.seed)
	addrs := emunet.Addrs(cp.cols * cp.rows)
	if err := emunet.BuildGrid(net, addrs, cp.cols, cp.link); err != nil {
		return nil, nil, nil, nil, err
	}
	nics := make([]*emunet.NIC, len(addrs))
	for i, a := range addrs {
		nics[i], _ = net.NIC(a)
		nics[i].SetReceiver(func(emunet.Frame) {})
	}
	return clk, nics, addrs, net, nil
}

// isolateEmunet replays the recorded transmission schedule — same instants,
// senders, destinations and sizes — through the bare medium. A workload
// without a network (rx_table1) replays its recordings into a bare NIC.
func (iso *isolated) isolateEmunet(cp *capture) error {
	if len(cp.tx) == 0 {
		var ns, allocs, frames float64
		for _, rec := range cp.probe {
			c, err := bareProbeReplay(iso.cal, rec)
			if err != nil {
				return err
			}
			n := float64(len(rec.frames))
			ns += c.ns * n
			allocs += c.allocs * n
			frames += n
		}
		iso.bare = cost{ratio(ns, frames), ratio(allocs, frames)}
		return nil
	}
	clk, nics, addrs, net, err := bareNetwork(cp)
	if err != nil {
		return err
	}
	buf := make([]byte, 4096)
	noFeedback := func(bool) {}
	ph := beginPhase(iso.cal)
	for i := range cp.tx {
		t := &cp.tx[i]
		clk.RunUntil(testbed.Epoch.Add(t.at))
		size := int(t.size)
		if size > len(buf) {
			size = len(buf)
		}
		switch {
		case t.dst < 0:
			_ = nics[t.src].Send(mnet.Broadcast, buf[:size])
		case t.control:
			_ = nics[t.src].Send(addrs[t.dst], buf[:size])
		default:
			_ = nics[t.src].SendWithFeedback(addrs[t.dst], buf[:size], noFeedback)
		}
	}
	clk.Advance(time.Second)
	d := ph.end()
	rx := float64(net.Stats().RxFrames)
	iso.bare = cost{ratio(float64(d.cal().Nanoseconds()), rx), ratio(float64(d.mallocs), rx)}
	return nil
}

// bareProbeReplay plays a recording into a NIC whose receiver does nothing.
func bareProbeReplay(cal *calibrator, rec *recording) (cost, error) {
	clk := vclock.NewVirtual(testbed.Epoch)
	rn := &replayNet{clk: clk, net: emunet.New(clk, 1)}
	nic, err := rn.net.Attach(rec.self)
	if err != nil {
		return cost{}, err
	}
	nic.SetReceiver(func(emunet.Frame) {})
	if err := rn.addPhantoms(rec); err != nil {
		return cost{}, err
	}
	ph := beginPhase(cal)
	rn.play(rec)
	d := ph.end()
	n := float64(len(rec.frames))
	return cost{ratio(float64(d.cal().Nanoseconds()), n), ratio(float64(d.mallocs), n)}, nil
}

// isolateVclock fires self-re-arming timers on a clock whose heap holds as
// many entries as the run's did at its fullest.
func (iso *isolated) isolateVclock(sz sizes, pending int) {
	if pending < 1 {
		pending = 1
	}
	clk := vclock.NewVirtual(testbed.Epoch)
	for i := 0; i < pending; i++ {
		period := time.Second + time.Duration(i%97)*time.Millisecond
		var fire func()
		fire = func() { clk.AfterFunc(period, fire) }
		clk.AfterFunc(period, fire)
	}
	want := sz.isolateIters * 5
	fired := 0
	ph := beginPhase(iso.cal)
	for fired < want {
		fired += clk.Advance(100 * time.Millisecond)
	}
	d := ph.end()
	iso.timer = cost{ratio(float64(d.cal().Nanoseconds()), float64(fired)), ratio(float64(d.mallocs), float64(fired))}
}

// isolateCodec decodes and re-encodes the control bodies the probe node
// received; a body heard from several neighbours appears that many times,
// which is the receive multiplicity the run paid.
func (iso *isolated) isolateCodec(sz sizes, all *recording) error {
	bodies := make([][]byte, 0, len(all.frames))
	pkts := make([]*packetbb.Packet, 0, len(all.frames))
	total := 0
	for i := range all.frames {
		body, ok := system.ControlBody(all.frames[i].payload)
		if !ok {
			continue
		}
		pkt, err := packetbb.DecodePacket(body)
		if err != nil {
			return fmt.Errorf("recorded frame %d does not decode: %w", i, err)
		}
		bodies = append(bodies, body)
		pkts = append(pkts, pkt)
		total += len(body)
	}
	iso.bytesPerPkt = ratio(float64(total), float64(len(bodies)))
	iters := sz.isolateIters * 5
	var sink int
	iso.decode.ns, iso.decode.allocs = iso.cal.timeOp(iters, func(i int) {
		p, _ := packetbb.DecodePacket(bodies[i%len(bodies)])
		sink += len(p.Messages)
	})
	iso.encode.ns, iso.encode.allocs = iso.cal.timeOp(iters, func(i int) {
		b, _ := packetbb.EncodePacket(pkts[i%len(pkts)])
		sink += len(b)
	})
	_ = sink
	return nil
}

// isolateCore times the Framework Manager's dispatch alone — one provider,
// one consumer whose handler does nothing — and, for workloads that never
// undeploy, an undeploy on a scratch stack.
func (iso *isolated) isolateCore(sz sizes, r *round) error {
	clk := vclock.NewVirtual(testbed.Epoch)
	mgr, err := core.NewManager(core.Config{Node: mnet.AddrFrom(0x0a000001), Clock: clk})
	if err != nil {
		return err
	}
	defer mgr.Close()
	src := core.NewProtocol("source")
	src.SetTuple(event.Tuple{Provided: []event.Type{event.HelloIn}})
	sink := core.NewProtocol("sink")
	sink.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
	if err := sink.AddHandler(core.NewHandler("noop", event.HelloIn, func(*core.Context, *event.Event) error { return nil })); err != nil {
		return err
	}
	for _, u := range []*core.Protocol{src, sink} {
		if err := mgr.Deploy(u); err != nil {
			return err
		}
		if err := u.Start(); err != nil {
			return err
		}
	}
	ev := &event.Event{Type: event.HelloIn, Msg: &packetbb.Message{Type: packetbb.MsgHello}, Src: mnet.AddrFrom(0x0a000002)}
	iso.emit.ns, iso.emit.allocs = iso.cal.timeOp(sz.isolateIters*10, func(int) { _ = src.Emit(ev) })

	iso.undeployUs = r.undeployUs
	if len(iso.undeployUs) == 0 {
		family := "olsr"
		if r.workload == "dymo_cbr" {
			family = "dymo"
		}
		n := sz.isolateIters / 200
		if n < 5 {
			n = 5
		}
		before := iso.cal.mark()
		for i := 0; i < n; i++ {
			iso.cal.tick()
			c, err := testbed.New(1, testbed.Options{})
			if err != nil {
				return err
			}
			fam, err := harness.DeployFamily(c, c.Nodes[0], family)
			if err != nil {
				c.Close()
				return err
			}
			sw := startWatch()
			for j := len(fam.Units) - 1; j >= 0; j-- {
				if err := c.Nodes[0].Mgr.Undeploy(fam.Units[j].Name()); err != nil {
					c.Close()
					return err
				}
			}
			iso.undeployUs = append(iso.undeployUs, float64(sw.elapsed().Nanoseconds())/1e3)
			c.Close()
		}
		iso.undeployUs = scaled(iso.undeployUs, iso.cal.speed(before))
	}
	return nil
}

// isolateSystem measures the forwarder on a 3-node line with static routes
// and no routing protocol (the same sends through the bare medium are
// subtracted), and the NIC demultiplexer as a System CF that feeds only a
// sniffer, minus the medium, the decode and the dispatch measured above.
func (iso *isolated) isolateSystem(sz sizes, cp *capture) error {
	c, err := testbed.New(3, testbed.Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Line(); err != nil {
		return err
	}
	a := c.Addrs()
	c.Nodes[0].FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(a[2]), NextHop: a[1], Metric: 2, Proto: "static"})
	c.Nodes[1].FIB().Set(route.FIBRoute{Dst: mnet.HostPrefix(a[2]), NextHop: a[2], Metric: 1, Proto: "static"})
	payload := make([]byte, payloadBytes)
	packets := sz.isolateIters
	from := c.Nodes[0].Sys.Filter()
	ph := beginPhase(iso.cal)
	for i := 0; i < packets; i++ {
		_ = from.SendData(a[2], payload)
		c.Clock.Advance(4 * time.Millisecond)
	}
	stack := ph.end()
	if got := c.Nodes[2].Sys.Stats().DataDelivered; got != uint64(packets) {
		return fmt.Errorf("static line delivered %d of %d packets", got, packets)
	}

	// The same two unicast hops with MAC feedback through the bare medium.
	clk := vclock.NewVirtual(testbed.Epoch)
	net := emunet.New(clk, 1)
	if err := emunet.BuildLine(net, a, emunet.DefaultQuality()); err != nil {
		return err
	}
	nics := make([]*emunet.NIC, 3)
	for i := range nics {
		nics[i], _ = net.NIC(a[i])
	}
	frame := make([]byte, payloadBytes+18)
	nics[1].SetReceiver(func(emunet.Frame) { _ = nics[1].SendWithFeedback(a[2], frame, func(bool) {}) })
	nics[2].SetReceiver(func(emunet.Frame) {})
	ph = beginPhase(iso.cal)
	for i := 0; i < packets; i++ {
		_ = nics[0].SendWithFeedback(a[1], frame, func(bool) {})
		clk.Advance(4 * time.Millisecond)
	}
	bare := ph.end()
	hops := float64(2 * packets)
	iso.fwd = cost{
		ns:     ratio(float64((stack.cal() - bare.cal()).Nanoseconds()), hops),
		allocs: ratio(float64(stack.mallocs)-float64(bare.mallocs), hops),
	}
	if iso.fwd.ns < 0 {
		iso.fwd.ns = 0
	}

	// Demultiplexer: System CF + sniffer, fed the probe recordings, against
	// the same recordings into a bare NIC. A recording is a millisecond or
	// two of work, so both are repeated, turn and turn about.
	var sniffNs, bareNs, frames float64
	for _, rec := range cp.probe {
		if len(rec.frames) == 0 {
			continue
		}
		reps := 1 + sz.isolateIters/len(rec.frames)
		for i := 0; i < reps; i++ {
			sc, err := sniffReplay(iso.cal, rec)
			if err != nil {
				return err
			}
			bc, err := bareProbeReplay(iso.cal, rec)
			if err != nil {
				return err
			}
			n := float64(len(rec.frames))
			sniffNs += sc.ns * n
			bareNs += bc.ns * n
			frames += n
		}
	}
	iso.demuxNs = ratio(sniffNs-bareNs, frames) - iso.decode.ns - iso.emit.ns
	if iso.demuxNs < 0 {
		iso.demuxNs = 0
	}
	return nil
}

// sniffReplay plays a recording into a stack that is the System CF and a
// sniffer: demultiplex, decode, dispatch, and a handler that does nothing.
func sniffReplay(cal *calibrator, rec *recording) (cost, error) {
	sc, err := testbed.New(0, testbed.Options{Seed: 1})
	if err != nil {
		return cost{}, err
	}
	defer sc.Close()
	node, err := sc.AddNode(rec.self)
	if err != nil {
		return cost{}, err
	}
	seen := 0
	sniffer, err := core.NewSniffer("sniffer", func(*event.Event) { seen++ })
	if err != nil {
		return cost{}, err
	}
	if err := node.Mgr.Deploy(sniffer); err != nil {
		return cost{}, err
	}
	if err := sniffer.Start(); err != nil {
		return cost{}, err
	}
	rn := &replayNet{clk: sc.Clock, net: sc.Net}
	if err := rn.addPhantoms(rec); err != nil {
		return cost{}, err
	}
	ph := beginPhase(cal)
	rn.play(rec)
	d := ph.end()
	if seen == 0 {
		return cost{}, fmt.Errorf("sniffer saw no event from %d recorded frames", len(rec.frames))
	}
	n := float64(len(rec.frames))
	return cost{ratio(float64(d.cal().Nanoseconds()), n), ratio(float64(d.mallocs), n)}, nil
}

// decodedEvent is one recorded message, pre-decoded into the event the
// System CF would raise for it.
type decodedEvent struct {
	ev   event.Event
	kind byte // 'h' HELLO, 't' TC, 'r' routing element / route error
}

func decodeEvents(rec *recording) ([]decodedEvent, error) {
	var out []decodedEvent
	for i := range rec.frames {
		f := &rec.frames[i]
		body, _ := system.ControlBody(f.payload)
		pkt, err := packetbb.DecodePacket(body)
		if err != nil {
			return nil, err
		}
		for m := range pkt.Messages {
			msg := pkt.Messages[m]
			de := decodedEvent{ev: event.Event{Msg: &msg, Src: f.src, Dst: f.dst, Device: "emu0"}}
			switch msg.Type {
			case packetbb.MsgHello:
				de.ev.Type, de.kind = event.HelloIn, 'h'
			case packetbb.MsgTC:
				de.ev.Type, de.kind = event.TCIn, 't'
			case packetbb.MsgRREQ, packetbb.MsgRREP:
				de.ev.Type, de.kind = event.REIn, 'r'
			case packetbb.MsgRERR:
				de.ev.Type, de.kind = event.RerrIn, 'r'
			default:
				continue
			}
			out = append(out, de)
		}
	}
	return out, nil
}

// heapObjects is the number of heap objects allocated so far. ReadMemStats
// stops the world and flushes the per-thread allocation caches, which is
// what makes the difference across a single call exact; runtime/metrics
// reads the same counter without the flush and is off by a span's worth.
func heapObjects() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// isolateHandlers hands the pre-decoded recorded events, in recorded order,
// to Protocol.Accept under the unit's Section() on a fresh single-node
// stack whose clock stands still — so deferred work (OLSR's coalesced
// ComputeRoutes, timers) stays out and is measured on its own. One pass
// times the calls, a second pass on a second stack counts their allocations.
func (iso *isolated) isolateHandlers(cp *capture) error {
	for _, rec := range cp.probe {
		events, err := decodeEvents(rec)
		if err != nil {
			return err
		}
		var ns, allocs [256]float64
		var count [256]int
		for pass := 0; pass < 2; pass++ {
			kit, _, err := newKitReplay(rec)
			if err != nil {
				return err
			}
			first, second := kit.fam.Units[0], kit.fam.Units[1]
			ph := beginPhase(iso.cal)
			for i := range events {
				de := &events[i]
				unit := second
				if de.kind == 'h' {
					unit = first
				}
				ev := de.ev // handlers may stamp the event; give each pass its own copy
				sec := unit.Section()
				if pass == 0 {
					sw := startWatch()
					sec.Lock()
					err = unit.Accept(&ev)
					sec.Unlock()
					ns[de.kind] += float64(sw.elapsed().Nanoseconds())
					count[de.kind]++
				} else {
					o0 := heapObjects()
					sec.Lock()
					err = unit.Accept(&ev)
					sec.Unlock()
					allocs[de.kind] += float64(heapObjects() - o0)
				}
				if err != nil {
					kit.c.Close()
					return fmt.Errorf("%s handler: %w", rec.family, err)
				}
			}
			if pass == 0 {
				// The calls were timed one by one on the wall clock (reading
				// a CPU clock costs as much as a handler does), which a burst
				// of steal inflates. The pass as a whole has its calibrated
				// CPU time; the wall sums only say how to divide it.
				var sum float64
				for _, v := range ns {
					sum += v
				}
				total := float64(ph.end().cal().Nanoseconds())
				for k := range ns {
					ns[k] = ratio(ns[k], sum) * total
				}
			}
			kit.c.Close()
		}
		per := func(k byte) cost {
			return cost{ratio(ns[k], float64(count[k])), ratio(allocs[k], float64(count[k]))}
		}
		switch rec.family {
		case "olsr":
			iso.mprHello, iso.tc = per('h'), per('t')
			iso.tcQuanta += changedTCQuanta(rec)
		case "dymo":
			iso.ndHello, iso.re = per('h'), per('r')
		}
	}
	return iso.isolateRouteUpdate(cp)
}

// changedTCQuanta counts the quanta of an OLSR recording (TCInterval/50
// long, the protocol's default RecomputeInterval) in which a TC changed the
// topology set: each ends in one triggered ComputeRoutes. A scratch
// olsr.State decides what is a change, as the protocol's does.
func changedTCQuanta(rec *recording) int {
	st := olsr.NewState(route.NewTable(vclock.NewVirtual(testbed.Epoch)))
	never := testbed.Epoch.Add(1000 * time.Hour)
	quanta := map[time.Duration]bool{}
	for i := range rec.frames {
		f := &rec.frames[i]
		body, _ := system.ControlBody(f.payload)
		pkt, err := packetbb.DecodePacket(body)
		if err != nil {
			continue
		}
		for m := range pkt.Messages {
			msg := &pkt.Messages[m]
			if msg.Type != packetbb.MsgTC {
				continue
			}
			var ansn uint16
			if tlv, ok := msg.FindTLV(packetbb.TLVANSN); ok {
				ansn, _ = packetbb.ParseU16(tlv.Value)
			}
			var advertised []mnet.Addr
			for b := range msg.AddrBlocks {
				advertised = append(advertised, msg.AddrBlocks[b].Addrs...)
			}
			if st.RecordTC(msg.Originator, ansn, advertised, never) {
				quanta[f.at/(harness.TCInterval/50)] = true
			}
		}
	}
	return len(quanta)
}

// isolateRouteUpdate times DYMO's handling of ROUTE_UPDATE — the event the
// packet filter raises for every forwarded data packet, and by far the most
// frequent one on a data-plane workload.
func (iso *isolated) isolateRouteUpdate(cp *capture) error {
	var rec *recording
	for _, p := range cp.probe {
		if p.family == "dymo" {
			rec = p
		}
	}
	if rec == nil {
		return nil
	}
	kit, _, err := newKitReplay(rec)
	if err != nil {
		return err
	}
	defer kit.c.Close()
	unit := kit.fam.Units[1]
	dst, via := mnet.AddrFrom(0x0a0000f0), mnet.AddrFrom(0x0a0000f1)
	kit.fam.RIBs["dymo"].Upsert(route.Entry{
		Dst: mnet.HostPrefix(dst), Valid: true, Proto: "dymo",
		Paths: []route.Path{{NextHop: via, Metric: 3, Expires: testbed.Epoch.Add(time.Hour)}},
	})
	ev := event.Event{Type: event.RouteUpdate, Route: &event.RoutePayload{Dst: dst, Src: rec.self, NextHop: via}}
	iso.routeUpdate.ns, iso.routeUpdate.allocs = iso.cal.timeOp(20000, func(int) {
		e := ev
		sec := unit.Section()
		sec.Lock()
		_ = unit.Accept(&e)
		sec.Unlock()
	})
	return nil
}

// isolateComputeRoutes runs State.ComputeRoutes on the topology the probe
// node had learned by the end of the round. (Re-recording a TC with one
// neighbour withdrawn before every call costs the same to within the noise:
// the computation is a full pass either way.)
func (iso *isolated) isolateComputeRoutes(sz sizes, topo *olsrTopo) {
	if topo == nil || len(topo.edges) == 0 {
		return
	}
	clk := vclock.NewVirtual(testbed.Epoch)
	st := olsr.NewState(route.NewTable(clk))
	expiry := testbed.Epoch.Add(time.Hour)
	byOrig := map[mnet.Addr][]mnet.Addr{}
	var origs []mnet.Addr
	for _, e := range topo.edges {
		if _, ok := byOrig[e[0]]; !ok {
			origs = append(origs, e[0])
		}
		byOrig[e[0]] = append(byOrig[e[0]], e[1])
	}
	for _, o := range origs {
		st.RecordTC(o, 1, byOrig[o], expiry)
	}
	now := clk.Now()
	st.ComputeRoutes(topo.self, topo.oneHop, topo.twoHop, now, time.Hour, "olsr")
	iters := sz.isolateIters / 10
	if iters < 10 {
		iters = 10
	}
	iso.computeRoutes.ns, iso.computeRoutes.allocs = iso.cal.timeOp(iters, func(int) {
		st.ComputeRoutes(topo.self, topo.oneHop, topo.twoHop, now, time.Hour, "olsr")
	})
}

// isolateRoute times the RIB's write side (ReplaceProto with an identical
// desired set, and with a tenth of it changed) and read side (Lookup), and
// the FIB's lookup, on a table as large as a node's was in the run.
func (iso *isolated) isolateRoute(sz sizes, r *round) {
	n := sz.isolateTableSize
	if r.nodes > 0 && r.counts.ribEntries/r.nodes > n {
		n = r.counts.ribEntries / r.nodes
	}
	clk := vclock.NewVirtual(testbed.Epoch)
	tbl := route.NewTable(clk)
	fib := route.NewFIB()
	tbl.SyncFIB(fib, "emu0")
	expiry := testbed.Epoch.Add(time.Hour)
	hopA, hopB := mnet.AddrFrom(0x0a0000fe), mnet.AddrFrom(0x0a0000fd)
	steady := make([]route.ProtoRoute, n)
	churned := make([]route.ProtoRoute, n)
	dsts := make([]mnet.Addr, n)
	for i := range steady {
		dsts[i] = mnet.AddrFrom(0x0a010000 + uint32(i))
		steady[i] = route.ProtoRoute{Dst: mnet.HostPrefix(dsts[i]), NextHop: hopA, Metric: 1 + i%7, Expires: expiry}
		churned[i] = steady[i]
		if i%10 == 0 {
			churned[i].NextHop = hopB
		}
	}
	tbl.ReplaceProto("bench", steady)
	iters := sz.isolateIters / 10
	if iters < 10 {
		iters = 10
	}
	ns, allocs := iso.cal.timeOp(iters, func(int) { tbl.ReplaceProto("bench", steady) })
	iso.replaceSteady = cost{ns / float64(n), allocs}
	ns, allocs = iso.cal.timeOp(iters, func(i int) {
		if i%2 == 0 {
			tbl.ReplaceProto("bench", churned)
		} else {
			tbl.ReplaceProto("bench", steady)
		}
	})
	iso.replaceChurn = cost{ns / float64(n), allocs}
	tbl.ReplaceProto("bench", steady)
	var sink int
	iso.ribLookupNs, _ = iso.cal.timeOp(sz.isolateIters, func(i int) {
		if _, p, err := tbl.Lookup(dsts[i%n]); err == nil {
			sink += p.Metric
		}
	})
	iso.fibLookupNs, _ = iso.cal.timeOp(sz.isolateIters*5, func(i int) {
		if fr, ok := fib.Lookup(dsts[i%n]); ok {
			sink += fr.Metric
		}
	})
	_ = sink
}

// isolateKitMono is the per-family split of the kit/mono comparison. The
// rx_table1 round has measured it already; other workloads replay their
// probe recordings through both, a few instances each, alternating.
func (iso *isolated) isolateKitMono(cp *capture, r *round) error {
	if r.rxStats != nil {
		for fam := range r.rxStats.frames {
			iso.kit[fam] = cost{r.rxStats.kitNs[fam], r.rxStats.kitAllocs[fam]}
			iso.mono[fam] = cost{r.rxStats.monoNs[fam], r.rxStats.monoAllocs[fam]}
		}
		return nil
	}
	const pairs = 5
	for _, rec := range cp.probe {
		if len(rec.frames) == 0 {
			continue
		}
		var kit, mon hostDelta
		for i := 0; i < pairs; i++ {
			k, _, err := newKitReplay(rec)
			if err != nil {
				return err
			}
			ph := beginPhase(iso.cal)
			k.play(rec)
			kit.add(ph.end())
			k.c.Close()
			m, err := newMonoReplay(rec)
			if err != nil {
				return err
			}
			ph = beginPhase(iso.cal)
			m.play(rec)
			mon.add(ph.end())
			m.proto.Stop()
		}
		n := float64(pairs * len(rec.frames))
		iso.kit[rec.family] = cost{ratio(float64(kit.cal().Nanoseconds()), n), ratio(float64(kit.mallocs), n)}
		iso.mono[rec.family] = cost{ratio(float64(mon.cal().Nanoseconds()), n), ratio(float64(mon.mallocs), n)}
	}
	return nil
}
