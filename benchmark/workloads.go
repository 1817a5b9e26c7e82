package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/system"
)

// sizes fixes how much work one round of each workload does. A round is
// fixed work — a virtual window or a packet count — never a wall timer, so
// every count repeats exactly and host time is the only thing that varies.
// The full sizes were chosen on a 2-core host so that one round measures
// 1.5 to 2 s; a run repeats rounds until --seconds of measuring is done and
// reports medians over them.
type sizes struct {
	floodCols, floodRows int
	floodWindow          time.Duration
	settle               time.Duration // unmeasured OLSR convergence before the invariant suite

	cbrCols, cbrRows   int
	cbrFlows           int
	cbrPackets         int // per flow
	cbrInterval        time.Duration
	cbrWarm, cbrDrain  time.Duration
	cbrMinHop, cbrMaxH int

	rcCols, rcRows   int
	rcCycles         int
	rcConverge       time.Duration
	rcDymo, rcOlsr   time.Duration
	rcInterval       time.Duration
	rcRollGap        time.Duration // a node switches 1 ms to this long after the previous one
	rxCols, rxRows   int
	rxRecord         time.Duration
	rxDiscoveries    int
	rxInstances      int // kit+mono pairs per family and round
	isolateIters     int // base iteration count of the per-layer isolates
	isolateTableSize int // RIB size of the route isolates when the run has no routes
}

var fullSizes = sizes{
	floodCols: 12, floodRows: 12, floodWindow: 12 * time.Second, settle: 20 * time.Second,

	cbrCols: 10, cbrRows: 10, cbrFlows: 16, cbrPackets: 3500,
	cbrInterval: 10 * time.Millisecond, cbrWarm: 5 * time.Second, cbrDrain: time.Second,
	cbrMinHop: 6, cbrMaxH: 6,

	rcCols: 8, rcRows: 8, rcCycles: 4, rcConverge: 15 * time.Second,
	rcDymo: 6 * time.Second, rcOlsr: 12 * time.Second, rcInterval: 20 * time.Millisecond, rcRollGap: 20 * time.Millisecond,

	rxCols: 7, rxRows: 7, rxRecord: 40 * time.Second, rxDiscoveries: 200, rxInstances: 30,

	isolateIters: 20000, isolateTableSize: 64,
}

// toySizes keep every code path of the full workloads but finish in well
// under a second; the package tests run on them.
var toySizes = sizes{
	floodCols: 4, floodRows: 4, floodWindow: 8 * time.Second, settle: 20 * time.Second,

	cbrCols: 4, cbrRows: 4, cbrFlows: 3, cbrPackets: 60,
	cbrInterval: 10 * time.Millisecond, cbrWarm: 5 * time.Second, cbrDrain: time.Second,
	cbrMinHop: 3, cbrMaxH: 3,

	rcCols: 3, rcRows: 3, rcCycles: 2, rcConverge: 15 * time.Second,
	rcDymo: 6 * time.Second, rcOlsr: 12 * time.Second, rcInterval: 20 * time.Millisecond, rcRollGap: 20 * time.Millisecond,

	rxCols: 3, rxRows: 3, rxRecord: 20 * time.Second, rxDiscoveries: 8, rxInstances: 2,

	isolateIters: 200, isolateTableSize: 16,
}

// runCtx is what one round is given.
type runCtx struct {
	sz   sizes
	seed int64
	cal  *calibrator
	tr   *tracer  // nil: untraced
	cp   *capture // nil: install no recording taps
	// deep asks for the invariant suite: the network is first driven on,
	// unmeasured, until it has settled. Every round of a run simulates the
	// same thing, so only the first pays for this.
	deep bool
}

// workload is one entry of the benchmark's table. README.md says why each
// one exists and which layer dominates it.
type workload struct {
	name string
	run  func(rc runCtx) (*round, error)
}

var workloads = []workload{
	{"olsr_flood", runOLSRFlood},           // control plane: TC floods from cold start, no data
	{"dymo_cbr", runDYMOCBR},               // data plane: CBR flows over ND+DYMO
	{"reconfig_switch", runReconfigSwitch}, // write side of the framework: OLSR ⇄ DYMO under traffic
	{"rx_table1", runRxTable1},             // paper Table 1 row 1: recorded frames into kit and mono stacks
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// capture is what the traced run records for the per-layer isolates: the
// whole network's transmission schedule and what one probe node received.
// A nil capture (the untraced run) installs no taps at all.
type capture struct {
	cols, rows int
	seed       int64
	link       emunet.Quality
	tx         []txRec
	probe      []*recording // one per protocol family the run deployed
	olsr       *olsrTopo    // what the probe node knew at the end, nil without OLSR
}

// txRec is one transmission of the measured phase.
type txRec struct {
	at      time.Duration
	src     int32 // node index
	dst     int32 // node index, -1 for broadcast
	size    int32
	control bool
}

// tapTx records the medium's transmission schedule.
func (cp *capture) tapTx(net *emunet.Network, index map[mnet.Addr]int32, now func() time.Duration) {
	net.SetTxTap(func(f emunet.Frame) {
		dst := int32(-1)
		if !f.Dst.IsBroadcast() {
			dst = index[f.Dst]
		}
		cp.tx = append(cp.tx, txRec{at: now(), src: index[f.Src], dst: dst, size: int32(len(f.Payload)), control: system.IsControlFrame(f.Payload)})
	})
}

func runOLSRFlood(rc runCtx) (*round, error) {
	sz, seed, tr, cp := rc.sz, rc.seed, rc.tr, rc.cp
	r := &round{workload: "olsr_flood", seed: seed}
	setup := beginPhase(rc.cal)
	g, deployUs, err := buildGrid(tr, rc.cal, sz.floodCols, sz.floodRows, "olsr", seed, lossyLink())
	if err != nil {
		return nil, err
	}
	r.setup = setup.end()
	r.deployUs = scaled(deployUs, r.setup.speed)
	r.reconfigUs = r.deployUs
	r.nodes = len(g.c.Nodes)
	r.attempted = r.nodes

	var probe *recorder
	if cp != nil {
		probe = g.installCapture(cp, "olsr", seed)
	}

	lc := newLayerCounts()
	runtime.GC()
	ph := beginPhase(rc.cal)
	sp := tr.begin("measure")
	advance(tr, "measure.advance", rc.cal, g.c.Clock, sz.floodWindow, &lc)
	tr.end(sp)
	r.host = ph.end()
	r.measured = r.host.wall

	sp = tr.begin("verify")
	g.removeCapture(cp, probe)
	counts := g.counts()
	counts.timersFired, counts.pendingMax = lc.timersFired, lc.pendingMax
	r.counts = counts
	r.rx = counts.net.RxFrames
	r.nodeSeconds = float64(r.nodes) * sz.floodWindow.Seconds()
	if counts.ribEntries == 0 {
		r.problems = append(r.problems, "olsr_flood: no node installed a route")
	}
	r.baseDigest()
	if rc.deep {
		// The window ends mid-convergence on links that lose frames, where
		// a link-state protocol legitimately holds one-way neighbours and
		// transient loops at any instant. The invariants are about what it
		// settles to: stop the loss, let it settle, judge it then.
		if err := g.heal(); err != nil {
			return nil, err
		}
		g.c.Run(sz.settle)
		r.problems = append(r.problems, g.violations()...)
	}
	r.liveHeap = measureLiveHeap(func() { g.c.Close(); g = nil })
	tr.end(sp)
	return r, nil
}

func runDYMOCBR(rc runCtx) (*round, error) {
	sz, seed, tr, cp := rc.sz, rc.seed, rc.tr, rc.cp
	r := &round{workload: "dymo_cbr", seed: seed}
	setup := beginPhase(rc.cal)
	g, deployUs, err := buildGrid(tr, rc.cal, sz.cbrCols, sz.cbrRows, "dymo", seed, emunet.DefaultQuality())
	if err != nil {
		return nil, err
	}
	warm := newLayerCounts()
	advance(tr, "setup.converge", rc.cal, g.c.Clock, sz.cbrWarm, &warm)
	r.setup = setup.end()
	r.deployUs = scaled(deployUs, r.setup.speed)
	r.reconfigUs = r.deployUs
	r.nodes = len(g.c.Nodes)

	rng := rand.New(rand.NewSource(seed*7919 + 17))
	pairs := drawFlows(rng, sz.cbrCols, sz.cbrRows, sz.cbrFlows, sz.cbrMinHop, sz.cbrMaxH)
	offsets := make([]time.Duration, len(pairs))
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(sz.cbrInterval)))
	}
	eps := make([]endpoint, r.nodes)
	for i, n := range g.c.Nodes {
		eps[i] = n.Sys.Filter()
	}
	tf := newTraffic(g.c.Clock, eps, g.c.Addrs(), pairs, sz.cbrInterval, sz.cbrPackets)

	var probe *recorder
	if cp != nil {
		probe = g.installCapture(cp, "dymo", seed)
	}
	base := g.counts()
	window := time.Duration(sz.cbrPackets)*sz.cbrInterval + sz.cbrDrain

	lc := newLayerCounts()
	runtime.GC()
	ph := beginPhase(rc.cal)
	sp := tr.begin("measure")
	tf.start(offsets)
	advance(tr, "measure.advance", rc.cal, g.c.Clock, window, &lc)
	tr.end(sp)
	r.host = ph.end()
	r.measured = r.host.wall

	sp = tr.begin("verify")
	g.removeCapture(cp, probe)
	counts := g.counts().sub(base)
	counts.ribEntries = g.counts().ribEntries
	counts.timersFired, counts.pendingMax = lc.timersFired, lc.pendingMax
	r.counts = counts
	r.rx = counts.net.RxFrames
	r.nodeSeconds = float64(r.nodes) * window.Seconds()
	r.app = tf.stats()
	r.attempted = r.nodes + r.app.sent
	r.failed = r.app.sendErrs
	r.problems = append(r.problems, r.app.check(r.workload)...)
	if r.app.flowsEstablished != len(pairs) {
		r.problems = append(r.problems, fmt.Sprintf("dymo_cbr: only %d of %d flows ever delivered a packet", r.app.flowsEstablished, len(pairs)))
	}
	if rc.deep {
		// One second after the last packet: every route still alive.
		r.problems = append(r.problems, g.violations()...)
	}
	r.baseDigest()
	r.liveHeap = measureLiveHeap(func() { g.c.Close(); g = nil; tf = nil; eps = nil })
	tr.end(sp)
	return r, nil
}

// centre is the index of the grid's middle node, the one the traced run
// probes.
func (g *grid) centre() int { return (len(g.c.Nodes)/g.cols/2)*g.cols + g.cols/2 }

// installCapture starts recording for a traced round: every transmission
// of the network, and every control frame the centre node receives.
func (g *grid) installCapture(cp *capture, family string, seed int64) *recorder {
	cp.cols, cp.rows, cp.seed, cp.link = g.cols, len(g.c.Nodes)/g.cols, seed, g.link
	index := make(map[mnet.Addr]int32, len(g.c.Nodes))
	for i, n := range g.c.Nodes {
		index[n.Addr] = int32(i)
	}
	start := g.c.Clock.Now()
	cp.tapTx(g.c.Net, index, func() time.Duration { return g.c.Clock.Now().Sub(start) })
	centre := g.c.Nodes[g.centre()]
	probe := newRecorder(g.c.Clock, family, centre.Addr)
	g.c.Net.SetTap(probe.observe)
	return probe
}

func (g *grid) removeCapture(cp *capture, probe *recorder) {
	if cp == nil {
		return
	}
	g.c.Net.SetTxTap(nil)
	g.c.Net.SetTap(nil)
	cp.probe = append(cp.probe, probe.finish())
	cp.olsr = olsrTopoOf(g.fams[g.centre()], g.c.Clock.Now())
}
