package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"manetkit"
	"manetkit/internal/harness"
	"manetkit/internal/mnet"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

// stackNet is a grid of public manetkit.Stack deployments — the reconfig
// workload goes through the facade a user of the library would.
type stackNet struct {
	clk    *vclock.Virtual
	net    *manetkit.Network
	addrs  []mnet.Addr
	stacks []*manetkit.Stack
}

func (sn *stackNet) close() {
	for _, s := range sn.stacks {
		s.Close()
	}
}

// counts sums the layers' counters. gone carries the unit stats of
// protocols that were undeployed (and so can no longer be asked).
func (sn *stackNet) counts(gone layerCounts) layerCounts {
	lc := newLayerCounts()
	for name, s := range gone.units {
		lc.units[name] = s
	}
	lc.addNetwork(sn.net)
	for _, s := range sn.stacks {
		lc.addSystem(s.System().Stats())
		lc.addManager(s.Manager().Stats())
		lc.addUnitsOf(s.Manager())
		lc.fibOps += s.System().FIB().Ops()
		tables := s.RouteTables()
		for _, name := range sortedRIBs(tables) {
			lc.ribEntries += tables[name].ValidCount()
		}
	}
	return lc
}

// violations snapshots the stacks in the shape the invariant suite takes.
func (sn *stackNet) violations() []string {
	c := &testbed.Cluster{Clock: sn.clk, Net: sn.net}
	fams := make([]*harness.FamilyNode, len(sn.stacks))
	for i, s := range sn.stacks {
		fn := &harness.FamilyNode{
			Node: &testbed.Node{Addr: s.Addr(), Mgr: s.Manager(), Sys: s.System()},
			RIBs: s.RouteTables(),
		}
		if m := s.MPRUnit(); m != nil {
			fn.Links = m.State().Links
		}
		fams[i] = fn
	}
	return checkInvariants(harness.SnapshotFamilies(c, fams))
}

// rcHopLimit lets DYMO's control messages cross the reconfig grid corner to
// corner (14 hops on 8×8); the default of 10 would rule the flow out by
// geometry.
const rcHopLimit = 20

func runReconfigSwitch(rc runCtx) (*round, error) {
	sz, seed, tr, cp := rc.sz, rc.seed, rc.tr, rc.cp
	r := &round{workload: "reconfig_switch", seed: seed}
	n := sz.rcCols * sz.rcRows

	setup := beginPhase(rc.cal)
	sp := tr.begin("setup.build")
	sn := &stackNet{clk: manetkit.NewVirtualClock(testbed.Epoch), addrs: manetkit.Addrs(n)}
	sn.net = manetkit.NewNetwork(sn.clk, seed)
	var err error
	if sn.stacks, err = manetkit.NewStacks(sn.net, sn.addrs, manetkit.StackOptions{}); err != nil {
		return nil, err
	}
	if err := manetkit.BuildGrid(sn.net, sn.addrs, sz.rcCols, manetkit.DefaultQuality()); err != nil {
		sn.close()
		return nil, err
	}
	tr.end(sp)
	sp = tr.begin("setup.deploy")
	var firstDeployUs []float64
	for i, s := range sn.stacks {
		if i%deployTickEvery == 0 {
			rc.cal.tick()
		}
		sw := startWatch()
		_, err := s.DeployOLSR(manetkit.OLSRConfig{})
		firstDeployUs = append(firstDeployUs, float64(sw.elapsed().Nanoseconds())/1e3)
		if err != nil {
			sn.close()
			return nil, err
		}
	}
	tr.end(sp)
	warm := newLayerCounts()
	advance(tr, "setup.converge", rc.cal, sn.clk, sz.rcConverge, &warm)
	r.setup = setup.end()
	r.nodes = n

	window := time.Duration(sz.rcCycles) * (sz.rcDymo + sz.rcOlsr)
	packets := int(window / sz.rcInterval)
	eps := make([]endpoint, n)
	for i, s := range sn.stacks {
		eps[i] = s
	}
	// Four flows cross the grid corner to corner, both diagonals in both
	// directions, so every switch is seen from the longest paths there are.
	// The seed picks when within the sending interval each flow starts, the
	// order in which the nodes switch, and how long after one another.
	rng := rand.New(rand.NewSource(seed*15485863 + 3))
	corners := [][2]int{{0, n - 1}, {n - 1, 0}, {sz.rcCols - 1, n - sz.rcCols}, {n - sz.rcCols, sz.rcCols - 1}}
	tf := newTraffic(sn.clk, eps, sn.addrs, corners, sz.rcInterval, packets)
	offsets := make([]time.Duration, len(corners))
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(sz.rcInterval)))
	}
	order := rng.Perm(n)
	// A reconfiguration rolls through the network: each node switches a
	// seeded few milliseconds after the previous one, so for a while both
	// protocols are live side by side.
	gaps := make([]time.Duration, n)
	var roll time.Duration
	for i := range gaps {
		gaps[i] = time.Duration(1+rng.Intn(int(sz.rcRollGap/time.Millisecond))) * time.Millisecond
		roll += gaps[i]
	}

	if cp != nil {
		cp.cols, cp.rows, cp.seed, cp.link = sz.rcCols, sz.rcRows, seed, manetkit.DefaultQuality()
		index := make(map[mnet.Addr]int32, n)
		for i, a := range sn.addrs {
			index[a] = int32(i)
		}
		start := sn.clk.Now()
		cp.tapTx(sn.net, index, func() time.Duration { return sn.clk.Now().Sub(start) })
	}
	centre := sn.addrs[(sz.rcRows/2)*sz.rcCols+sz.rcCols/2]
	var probeOLSR, probeDYMO *recorder
	if cp != nil {
		probeOLSR = newRecorder(sn.clk, "olsr", centre)
		probeDYMO = newRecorder(sn.clk, "dymo", centre)
	}
	base := sn.counts(newLayerCounts())
	gone := newLayerCounts()
	lc := newLayerCounts()
	var gapsDymoUs, gapsOlsrUs []float64
	failed := 0

	// switchAll moves every node to the other family, one node at a time,
	// timing each node's undeploy and deploy from outside.
	switchAll := func(toDYMO bool) {
		for k, i := range order {
			s := sn.stacks[i]
			lc.timersFired += sn.clk.Advance(gaps[k])
			// The outgoing units take their counters with them.
			for _, name := range s.Manager().Units() {
				if name == "system" {
					continue
				}
				if u, ok := s.Manager().Unit(name); ok {
					if p, ok := u.(*manetkit.Protocol); ok {
						gone.addUnit(name, p.Stats())
					}
				}
			}
			var err error
			su := tr.begin("reconfig.undeploy")
			sw := startWatch()
			if toDYMO {
				if err = s.UndeployOLSR(); err == nil {
					err = s.UndeployMPR()
				}
			} else {
				err = s.UndeployDYMO()
			}
			und := sw.elapsed()
			tr.end(su)
			if err != nil {
				failed++
			}
			sd := tr.begin("reconfig.deploy")
			sw = startWatch()
			if toDYMO {
				_, err = s.DeployDYMO(manetkit.DYMOConfig{HopLimit: rcHopLimit})
			} else {
				_, err = s.DeployOLSR(manetkit.OLSRConfig{})
			}
			dep := sw.elapsed()
			tr.end(sd)
			if err != nil {
				failed++
			}
			r.undeployUs = append(r.undeployUs, float64(und.Nanoseconds())/1e3)
			r.deployUs = append(r.deployUs, float64(dep.Nanoseconds())/1e3)
			r.reconfigUs = append(r.reconfigUs, float64((und+dep).Nanoseconds())/1e3)
		}
	}
	setProbe := func(p *recorder) {
		if p != nil {
			sn.net.SetTap(p.observe)
		}
	}

	runtime.GC()
	ph := beginPhase(rc.cal)
	sp = tr.begin("measure")
	tf.start(offsets)
	for cyc := 0; cyc < sz.rcCycles; cyc++ {
		switchAll(true)
		setProbe(probeDYMO)
		advance(tr, "measure.advance", rc.cal, sn.clk, sz.rcDymo-roll, &lc)
		gapsDymoUs = append(gapsDymoUs, tf.closeGaps()...)
		switchAll(false)
		setProbe(probeOLSR)
		advance(tr, "measure.advance", rc.cal, sn.clk, sz.rcOlsr-roll, &lc)
		gapsOlsrUs = append(gapsOlsrUs, tf.closeGaps()...)
	}
	tr.end(sp)
	r.host = ph.end()
	r.measured = r.host.wall
	r.undeployUs = scaled(r.undeployUs, r.host.speed)
	r.deployUs = append(scaled(r.deployUs, r.host.speed), scaled(firstDeployUs, r.setup.speed)...)
	r.reconfigUs = scaled(r.reconfigUs, r.host.speed)

	sp = tr.begin("verify")
	if cp != nil {
		sn.net.SetTxTap(nil)
		sn.net.SetTap(nil)
		cp.probe = append(cp.probe, probeOLSR.finish(), probeDYMO.finish())
		for i, a := range sn.addrs {
			if o := sn.stacks[i].OLSRUnit(); a == centre && o != nil {
				cp.olsr = snapshotOLSR(a, o.State(), sn.stacks[i].MPRUnit().State().Links, sn.clk.Now())
			}
		}
	}
	counts := sn.counts(gone).sub(base)
	counts.ribEntries = sn.counts(newLayerCounts()).ribEntries
	counts.timersFired, counts.pendingMax = lc.timersFired, lc.pendingMax
	r.counts = counts
	r.rx = counts.net.RxFrames
	r.nodeSeconds = float64(n) * window.Seconds()
	r.app = tf.stats()
	r.app.gapToDymoP50Us = int64(quantile(gapsDymoUs, 0.5))
	r.app.gapToOlsrP50Us = int64(quantile(gapsOlsrUs, 0.5))
	r.app.gapSamples = len(gapsDymoUs) + len(gapsOlsrUs)
	r.attempted = n + r.app.sent + 2*len(r.reconfigUs)
	r.failed = r.app.sendErrs + failed
	r.problems = append(r.problems, r.app.check(r.workload)...)
	if failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("reconfig_switch: %d deploy/undeploy calls returned an error", failed))
	}
	if want := 2 * sz.rcCycles * n; len(r.reconfigUs) != want {
		r.problems = append(r.problems, fmt.Sprintf("reconfig_switch: %d switches, want %d", len(r.reconfigUs), want))
	}
	r.baseDigest()
	if rc.deep {
		// The last OLSR phase may end mid-convergence; judge it settled.
		sn.clk.Advance(sz.settle)
		r.problems = append(r.problems, sn.violations()...)
	}
	r.liveHeap = measureLiveHeap(func() { sn.close(); sn = nil; tf = nil; eps = nil })
	tr.end(sp)
	return r, nil
}
