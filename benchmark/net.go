package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/eval"
	"manetkit/internal/harness"
	"manetkit/internal/invariant"
	"manetkit/internal/mnet"
	"manetkit/internal/route"
	"manetkit/internal/system"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

// lossyLink is the campaign medium: a healthy 802.11 link that drops 2 % of
// frames, so each seed draws its own loss realisation.
func lossyLink() emunet.Quality {
	q := emunet.DefaultQuality()
	q.Loss = eval.LinkLoss
	return q
}

// layerCounts are the deterministic per-layer work counts of one round,
// read from the layers' public Stats() after the measured phase.
type layerCounts struct {
	net         emunet.Stats
	eng         emunet.EngineStats
	sys         system.Stats
	mgr         core.ManagerStats
	units       map[string]core.Stats // summed over nodes, by unit name
	ribEntries  int
	fibOps      uint64
	timersFired int
	pendingMax  int
}

func newLayerCounts() layerCounts { return layerCounts{units: map[string]core.Stats{}} }

// addNetwork folds in the medium and engine counters of a network (one per
// round, or on rx_table1 one per replayed instance).
func (lc *layerCounts) addNetwork(n *emunet.Network) {
	s := n.Stats()
	lc.net.TxFrames += s.TxFrames
	lc.net.RxFrames += s.RxFrames
	lc.net.TxBytes += s.TxBytes
	lc.net.RxBytes += s.RxBytes
	lc.net.DroppedLoss += s.DroppedLoss
	lc.net.DroppedNoLink += s.DroppedNoLink
	eng, _ := n.EngineStats()
	lc.eng.Epochs += eng.Epochs
	lc.eng.ParallelEpochs += eng.ParallelEpochs
	lc.eng.Events += eng.Events
	if eng.MaxEpochEvents > lc.eng.MaxEpochEvents {
		lc.eng.MaxEpochEvents = eng.MaxEpochEvents
	}
}

func (lc *layerCounts) addSystem(s system.Stats) {
	lc.sys.CtrlSent += s.CtrlSent
	lc.sys.CtrlReceived += s.CtrlReceived
	lc.sys.DataSent += s.DataSent
	lc.sys.DataForwarded += s.DataForwarded
	lc.sys.DataDelivered += s.DataDelivered
	lc.sys.DataBuffered += s.DataBuffered
	lc.sys.DataDropped += s.DataDropped
	lc.sys.DecodeErrors += s.DecodeErrors
}

func (lc *layerCounts) addManager(s core.ManagerStats) {
	lc.mgr.Emitted += s.Emitted
	lc.mgr.Delivered += s.Delivered
	lc.mgr.Dropped += s.Dropped
	lc.mgr.Rewires += s.Rewires
}

func (lc *layerCounts) addUnit(name string, s core.Stats) {
	u := lc.units[name]
	u.Delivered += s.Delivered
	u.Handled += s.Handled
	u.Errors += s.Errors
	lc.units[name] = u
}

// addUnitsOf folds the stats of every protocol unit currently deployed in
// mgr (the System CF included).
func (lc *layerCounts) addUnitsOf(mgr *core.Manager) {
	for _, name := range mgr.Units() {
		if u, ok := mgr.Unit(name); ok {
			if p, ok := u.(*core.Protocol); ok {
				lc.addUnit(name, p.Stats())
			}
		}
	}
}

// sub returns lc minus the counts taken at the start of the measured phase,
// so set-up work (warm-up, convergence) is not charged to it.
func (lc layerCounts) sub(base layerCounts) layerCounts {
	out := lc
	out.net.TxFrames -= base.net.TxFrames
	out.net.RxFrames -= base.net.RxFrames
	out.net.DroppedLoss -= base.net.DroppedLoss
	out.net.DroppedNoLink -= base.net.DroppedNoLink
	out.net.TxBytes -= base.net.TxBytes
	out.net.RxBytes -= base.net.RxBytes
	out.eng.Epochs -= base.eng.Epochs
	out.eng.ParallelEpochs -= base.eng.ParallelEpochs
	out.eng.Events -= base.eng.Events
	out.sys.CtrlSent -= base.sys.CtrlSent
	out.sys.CtrlReceived -= base.sys.CtrlReceived
	out.sys.DataSent -= base.sys.DataSent
	out.sys.DataForwarded -= base.sys.DataForwarded
	out.sys.DataDelivered -= base.sys.DataDelivered
	out.sys.DataBuffered -= base.sys.DataBuffered
	out.sys.DataDropped -= base.sys.DataDropped
	out.sys.DecodeErrors -= base.sys.DecodeErrors
	out.mgr.Emitted -= base.mgr.Emitted
	out.mgr.Delivered -= base.mgr.Delivered
	out.mgr.Dropped -= base.mgr.Dropped
	out.mgr.Rewires -= base.mgr.Rewires
	out.fibOps -= base.fibOps
	out.units = map[string]core.Stats{}
	for name, s := range lc.units {
		b := base.units[name]
		out.units[name] = core.Stats{Delivered: s.Delivered - b.Delivered, Handled: s.Handled - b.Handled, Errors: s.Errors - b.Errors}
	}
	return out
}

func (lc layerCounts) handlerErrors() uint64 {
	var n uint64
	for _, s := range lc.units {
		n += s.Errors
	}
	return n
}

// unitNames lists the unit names in sorted order, for deterministic output.
func (lc layerCounts) unitNames() []string {
	names := make([]string, 0, len(lc.units))
	for n := range lc.units {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// grid is an emulated rows×cols testbed network with one protocol family
// deployed on every node through harness.DeployFamily.
type grid struct {
	c    *testbed.Cluster
	fams []*harness.FamilyNode
	cols int
	link emunet.Quality
}

// deployTickEvery is how many node deploys go between two runs of the
// reference kernel: a set-up phase is tens of milliseconds long, and two
// readings of the host's speed around it are too few to scale it by.
const deployTickEvery = 16

// buildGrid stands the network up: nodes and links, then the family on
// every node. Each node's deploy is timed on its own, which is where the
// three non-reconfiguring workloads take their reconfig_us samples from.
func buildGrid(tr *tracer, cal *calibrator, cols, rows int, family string, seed int64, link emunet.Quality) (*grid, []float64, error) {
	sp := tr.begin("setup.build")
	c, err := testbed.New(cols*rows, testbed.Options{Seed: seed, LinkQuality: link})
	if err != nil {
		return nil, nil, err
	}
	if err := c.Grid(cols); err != nil {
		c.Close()
		return nil, nil, err
	}
	tr.end(sp)

	sp = tr.begin("setup.deploy")
	g := &grid{c: c, cols: cols, link: link, fams: make([]*harness.FamilyNode, len(c.Nodes))}
	deployUs := make([]float64, 0, len(c.Nodes))
	for i, node := range c.Nodes {
		if i%deployTickEvery == 0 {
			cal.tick()
		}
		sw := startWatch()
		fn, err := harness.DeployFamily(c, node, family)
		deployUs = append(deployUs, float64(sw.elapsed().Nanoseconds())/1e3)
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		g.fams[i] = fn
	}
	tr.end(sp)
	return g, deployUs, nil
}

// heal makes every link of the grid lossless.
func (g *grid) heal() error {
	addrs := g.c.Addrs()
	for i, a := range addrs {
		for _, j := range []int{i + 1, i + g.cols} {
			if j >= len(addrs) || (j == i+1 && j%g.cols == 0) {
				continue
			}
			if err := g.c.Net.SetLink(a, addrs[j], emunet.DefaultQuality()); err != nil {
				return err
			}
		}
	}
	return nil
}

// counts sums every layer's public counters over the network.
func (g *grid) counts() layerCounts {
	lc := newLayerCounts()
	lc.addNetwork(g.c.Net)
	for _, fn := range g.fams {
		lc.addSystem(fn.Node.Sys.Stats())
		lc.addManager(fn.Node.Mgr.Stats())
		lc.addUnitsOf(fn.Node.Mgr)
		lc.fibOps += fn.Node.FIB().Ops()
		for _, name := range sortedRIBs(fn.RIBs) {
			lc.ribEntries += fn.RIBs[name].ValidCount()
		}
	}
	return lc
}

func sortedRIBs(m map[string]*route.Table) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// violations runs the default invariant suite over the live network.
func (g *grid) violations() []string {
	return checkInvariants(harness.SnapshotFamilies(g.c, g.fams))
}

// livenessBudget caps the link tests the route-liveness checker may spend.
// It searches the whole node set breadth-first once per RIB entry, about
// n²/2 link tests each, so a fully converged 196-node OLSR grid would cost
// 7·10⁸ tests (23 s here) in every round.
const livenessBudget = 1e7

// checkInvariants runs invariant.DefaultSuite over the snapshot. Loop
// freedom (over every FIB) and neighbour symmetry (over every table) always
// see all nodes; when full route-liveness would exceed livenessBudget, the
// RIBs of an evenly spaced sample of nodes are kept and the rest dropped.
func checkInvariants(snap *invariant.Snapshot) []string {
	n := len(snap.Nodes)
	routes := 0
	for i := range snap.Nodes {
		for _, rib := range snap.Nodes[i].RIBs {
			routes += len(rib.Entries)
		}
	}
	if perRoute := float64(n*n) / 2; float64(routes)*perRoute > livenessBudget {
		keep := int(livenessBudget / perRoute / (float64(routes) / float64(n)))
		if keep < 2 {
			keep = 2
		}
		stride := n / keep
		for i := range snap.Nodes {
			if i%stride != stride/2 {
				snap.Nodes[i].RIBs = nil
			}
		}
	}
	vs := invariant.DefaultSuite().Run(snap)
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// advance drives a window one virtual second at a time — the same loop
// traced or not, so both runs execute identical event orders — running the
// reference kernel and sampling the clock's pending-timer count at each
// boundary. Each step is a span of the given name.
func advance(tr *tracer, span string, cal *calibrator, clk *vclock.Virtual, window time.Duration, lc *layerCounts) {
	for done := time.Duration(0); done < window; done += time.Second {
		step := time.Second
		if window-done < step {
			step = window - done
		}
		sp := tr.begin(span)
		lc.timersFired += clk.Advance(step)
		tr.end(sp)
		cal.tick()
		if p := clk.Pending(); p > lc.pendingMax {
			lc.pendingMax = p
		}
	}
}

// scaled converts wall-clock samples taken while the host ran at the given
// speed to what they would have read at nominal speed.
func scaled(samples []float64, speed float64) []float64 {
	for i := range samples {
		samples[i] *= speed
	}
	return samples
}

// endpoint is the data plane of one node as an application sees it; both
// the testbed's packet filter and the public Stack facade satisfy it.
type endpoint interface {
	SendData(dst mnet.Addr, payload []byte) error
	OnDeliver(fn func(src mnet.Addr, payload []byte))
}

// flow is one constant-bit-rate conversation. It keeps exactly one pending
// timer and re-arms it from its own send, so the generator adds one heap
// entry per flow to the clock instead of one per packet.
type flow struct {
	src, dst int
	dstAddr  mnet.Addr
	from     endpoint
	first    time.Time // send instant of packet 0
	buf      []byte
	timer    vclock.Timer

	sent       int
	sendErrs   int
	delivered  int
	latUs      []int32
	firstDelay time.Duration // first delivery minus first send; -1 until then
	lastAt     time.Time     // last delivery instant (or the flow's start)
	maxGap     time.Duration // longest delivery gap in the current observation window
}

const (
	payloadBytes = 64
	// payloadMagic distinguishes the generator's packets from any other
	// data a node might be handed.
	payloadMagic = 0x6d6b6266 // "mkbf"
)

// traffic drives a set of flows over a network and records, on the virtual
// clock, when every packet was sent and delivered.
type traffic struct {
	clk      *vclock.Virtual
	interval time.Duration
	packets  int // per flow
	flows    []*flow
}

// drawFlows picks n distinct (src,dst) pairs whose grid distance lies in
// [minHops,maxHops] — inside DYMO's default hop limit, so a packet that
// does not arrive was lost by the network, not ruled out by geometry.
func drawFlows(rng *rand.Rand, cols, rows, n, minHops, maxHops int) [][2]int {
	nodes := cols * rows
	seen := map[[2]int]bool{}
	var out [][2]int
	for len(out) < n {
		s, d := rng.Intn(nodes), rng.Intn(nodes)
		dist := abs(s/cols-d/cols) + abs(s%cols-d%cols)
		if dist < minHops || dist > maxHops || seen[[2]int{s, d}] {
			continue
		}
		seen[[2]int{s, d}] = true
		out = append(out, [2]int{s, d})
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// newTraffic wires pairs[i] as flow i between the given endpoints. Every
// destination's delivery upcall is installed here; packets start flowing
// at start+offset[i] once run() arms the timers.
func newTraffic(clk *vclock.Virtual, eps []endpoint, addrs []mnet.Addr, pairs [][2]int, interval time.Duration, packets int) *traffic {
	t := &traffic{clk: clk, interval: interval, packets: packets}
	byDst := map[int]bool{}
	for i, p := range pairs {
		f := &flow{
			src: p[0], dst: p[1], dstAddr: addrs[p[1]], from: eps[p[0]],
			buf:        make([]byte, payloadBytes),
			latUs:      make([]int32, 0, packets),
			firstDelay: -1,
		}
		binary.BigEndian.PutUint32(f.buf[0:], payloadMagic)
		binary.BigEndian.PutUint32(f.buf[4:], uint32(i))
		t.flows = append(t.flows, f)
		byDst[p[1]] = true
	}
	for d := range byDst {
		eps[d].OnDeliver(t.deliver)
	}
	return t
}

// start arms every flow: flow i sends its first packet offsets[i] from now.
func (t *traffic) start(offsets []time.Duration) {
	now := t.clk.Now()
	for i, f := range t.flows {
		f := f
		f.first = now.Add(offsets[i])
		f.lastAt = f.first
		f.timer = t.clk.AfterFunc(offsets[i], func() { t.send(f) })
	}
}

func (t *traffic) send(f *flow) {
	binary.BigEndian.PutUint32(f.buf[8:], uint32(f.sent))
	if err := f.from.SendData(f.dstAddr, f.buf); err != nil {
		f.sendErrs++
	}
	f.sent++
	if f.sent < t.packets {
		f.timer.Reset(t.interval)
	}
}

func (t *traffic) deliver(_ mnet.Addr, p []byte) {
	if len(p) < 12 || binary.BigEndian.Uint32(p) != payloadMagic {
		return
	}
	id := int(binary.BigEndian.Uint32(p[4:]))
	if id >= len(t.flows) {
		return
	}
	f := t.flows[id]
	seq := int(binary.BigEndian.Uint32(p[8:]))
	now := t.clk.Now()
	sentAt := f.first.Add(time.Duration(seq) * t.interval)
	f.delivered++
	f.latUs = append(f.latUs, int32(now.Sub(sentAt)/time.Microsecond))
	if f.firstDelay < 0 {
		f.firstDelay = now.Sub(f.first)
	}
	if gap := now.Sub(f.lastAt); gap > f.maxGap {
		f.maxGap = gap
	}
	f.lastAt = now
}

// closeGaps ends one observation window: for every flow, the longest time
// in µs it went without a delivery, counting a gap still open at the
// boundary.
func (t *traffic) closeGaps() []float64 {
	now := t.clk.Now()
	out := make([]float64, len(t.flows))
	for i, f := range t.flows {
		g := f.maxGap
		if open := now.Sub(f.lastAt); open > g {
			g = open
		}
		f.maxGap = 0
		out[i] = float64(g / time.Microsecond)
	}
	return out
}

// appStats are the application-level outcomes of a traffic run, all on the
// virtual clock and therefore exactly repeatable.
type appStats struct {
	sent, delivered, sendErrs int
	latP50Us, latP95Us        int64
	routeSetupP50Us           int64
	flowsEstablished          int
	gapToDymoP50Us            int64 // longest outage per switch to DYMO, p50 over cycles
	gapToOlsrP50Us            int64 // same for the switch back to OLSR
	gapSamples                int
}

func (t *traffic) stats() appStats {
	var a appStats
	var all []float64
	var setups []float64
	for _, f := range t.flows {
		a.sent += f.sent
		a.delivered += f.delivered
		a.sendErrs += f.sendErrs
		for _, l := range f.latUs {
			all = append(all, float64(l))
		}
		if f.firstDelay >= 0 {
			a.flowsEstablished++
			setups = append(setups, float64(f.firstDelay/time.Microsecond))
		}
	}
	a.latP50Us = int64(quantile(all, 0.50))
	a.latP95Us = int64(quantile(all, 0.95))
	a.routeSetupP50Us = int64(quantile(setups, 0.50))
	return a
}

func (a appStats) check(workload string) []string {
	var out []string
	if a.sendErrs > 0 {
		out = append(out, fmt.Sprintf("%s: %d SendData calls returned an error", workload, a.sendErrs))
	}
	if a.delivered == 0 {
		out = append(out, fmt.Sprintf("%s: no data packet was delivered", workload))
	}
	return out
}
