package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"manetkit/internal/mnet"
)

// recordCentre runs a grid under one family for sz.rxRecord of virtual
// time and records every control frame its centre node receives. Under
// DYMO, seeded discoveries (single data packets between random pairs at
// random instants) give the recording its RREQ floods, RREPs and RERRs.
func recordCentre(tr *tracer, cal *calibrator, sz sizes, family string, seed int64) (*recording, []float64, error) {
	g, deployUs, err := buildGrid(tr, cal, sz.rxCols, sz.rxRows, family, seed, lossyLink())
	if err != nil {
		return nil, nil, err
	}
	defer g.c.Close()
	centre := g.c.Nodes[(sz.rxRows/2)*sz.rxCols+sz.rxCols/2]
	rec := newRecorder(g.c.Clock, family, centre.Addr)
	g.c.Net.SetTap(rec.observe)

	if family == "dymo" {
		rng := rand.New(rand.NewSource(seed*104729 + 5))
		n := len(g.c.Nodes)
		for i := 0; i < sz.rxDiscoveries; i++ {
			src := rng.Intn(n)
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			at := 2*time.Second + time.Duration(rng.Int63n(int64(sz.rxRecord-4*time.Second)))
			from, to := g.c.Nodes[src].Sys.Filter(), g.c.Nodes[dst].Addr
			g.c.Clock.AfterFunc(at, func() { _ = from.SendData(to, []byte("rx_table1 discovery")) })
		}
	}
	lc := newLayerCounts()
	advance(tr, "setup.converge", cal, g.c.Clock, sz.rxRecord, &lc)
	g.c.Net.SetTap(nil)
	return rec.finish(), deployUs, nil
}

// gridAddrs lists every address of the recording network: the candidate
// destinations of the kit-versus-mono route comparison.
func gridAddrs(sz sizes) []mnet.Addr {
	out := make([]mnet.Addr, sz.rxCols*sz.rxRows)
	for i := range out {
		out[i] = mnet.AddrFrom(0x0a000001 + uint32(i))
	}
	return out
}

// routeMismatchTolerance is the share of (instant, destination) pairs on
// which kit and mono may disagree before rx_table1 fails. Under OLSR they
// never do. Under DYMO the kit drops a RERR whose (originator, sequence
// number) it has seen before looking at who sent it, so when a node that is
// not the next hop relays a RERR an instant before the next hop does, the
// kit keeps the broken route for what is left of its lifetime and the
// monolith does not: about one seed in 25, at most 1.1 % of the pairs.
var routeMismatchTolerance = map[string]float64{"olsr": 0, "dymo": 0.05}

// compareRoutes is rx_table1's output check. It replays the recording once
// more into a kit and a mono stack, outside any timed region, stopping
// every virtual second to compare the routes the two hold. It returns the
// failures, and a note when they disagreed within the tolerance.
func compareRoutes(rec *recording, candidates []mnet.Addr) (problems []string, note string, err error) {
	kit, _, err := newKitReplay(rec)
	if err != nil {
		return nil, "", err
	}
	defer kit.c.Close()
	mon, err := newMonoReplay(rec)
	if err != nil {
		return nil, "", err
	}
	defer mon.proto.Stop()
	var diffs []string
	pairs := 0
	kitAt, monAt := 0, 0
	for until := time.Second; until <= rec.length; until += time.Second {
		kitAt = kit.playUntil(rec, kitAt, until)
		monAt = mon.playUntil(rec, monAt, until)
		k, m := kit.routes(candidates), mon.routes(candidates)
		for _, dst := range candidates {
			_, kok := k[dst]
			_, mok := m[dst]
			if kok || mok {
				pairs++
			}
		}
		for _, p := range diffRoutes(rec, k, m, candidates) {
			diffs = append(diffs, fmt.Sprintf("at %v: %s", until, p))
		}
	}
	summary := fmt.Sprintf("%s: kit and mono disagree on %d of %d (instant, destination) pairs", rec.family, len(diffs), pairs)
	switch {
	case pairs == 0:
		problems = append(problems, fmt.Sprintf("%s: neither replayed stack ever held a route", rec.family))
	case float64(len(diffs)) > routeMismatchTolerance[rec.family]*float64(pairs):
		if len(diffs) > 5 {
			diffs = diffs[:5]
		}
		problems = append(diffs, summary)
	case len(diffs) > 0:
		note = summary + ", first " + diffs[0]
	}
	return problems, note, nil
}

func runRxTable1(rc runCtx) (*round, error) {
	sz, seed, tr, cp := rc.sz, rc.seed, rc.tr, rc.cp
	r := &round{workload: "rx_table1", seed: seed}
	setup := beginPhase(rc.cal)
	var recs []*recording
	for _, fam := range []string{"olsr", "dymo"} {
		rec, _, err := recordCentre(tr, rc.cal, sz, fam, seed)
		if err != nil {
			return nil, err
		}
		if len(rec.frames) == 0 {
			return nil, fmt.Errorf("rx_table1: %s recording is empty", fam)
		}
		recs = append(recs, rec)
	}
	r.setup = setup.end()
	if cp != nil {
		cp.probe = recs
	}

	out := &rxOutcome{
		kitNs: map[string]float64{}, monoNs: map[string]float64{},
		kitAllocs: map[string]float64{}, monoAllocs: map[string]float64{},
		frames: map[string]int{},
	}
	kitHost := map[string]*hostDelta{"olsr": {}, "dymo": {}}
	monoHost := map[string]*hostDelta{"olsr": {}, "dymo": {}}
	lc := newLayerCounts()
	var lastKit []*kitReplay // the final instance of each family, for the live-heap reading

	runtime.GC()
	sp := tr.begin("measure")
	// The replays are a few milliseconds each, so the reference kernel runs
	// once per kit/mono pair and one host speed, taken over the whole
	// measured phase, scales them all.
	start := rc.cal.mark()
	for i := 0; i < sz.rxInstances; i++ {
		for _, rec := range recs {
			// Kit, then mono, instance by instance, so slow drift of the
			// host lands on both sides alike.
			kit, deploy, err := newKitReplay(rec)
			if err != nil {
				return nil, err
			}
			r.deployUs = append(r.deployUs, float64(deploy.Nanoseconds())/1e3)
			rc.cal.tick()
			ph := beginBare(rc.cal)
			sk := tr.begin("measure.kit." + rec.family)
			fired, failed := kit.play(rec)
			tr.end(sk)
			lc.timersFired += fired
			r.failed += failed
			if p := kit.clk.Pending(); p > lc.pendingMax {
				lc.pendingMax = p
			}
			kitHost[rec.family].add(ph.end())

			mon, err := newMonoReplay(rec)
			if err != nil {
				return nil, err
			}
			ph = beginBare(rc.cal)
			sm := tr.begin("measure.mono." + rec.family)
			_, failed = mon.play(rec)
			tr.end(sm)
			r.failed += failed
			monoHost[rec.family].add(ph.end())

			lc.addNetwork(kit.net)
			lc.addSystem(kit.fam.Node.Sys.Stats())
			lc.addManager(kit.fam.Node.Mgr.Stats())
			lc.addUnitsOf(kit.fam.Node.Mgr)
			lc.fibOps += kit.fam.Node.FIB().Ops()
			out.frames[rec.family] += len(rec.frames)
			r.attempted += 2 * len(rec.frames)

			if i == sz.rxInstances-1 {
				for _, name := range sortedRIBs(kit.fam.RIBs) {
					lc.ribEntries += kit.fam.RIBs[name].ValidCount()
				}
				lastKit = append(lastKit, kit)
				if cp != nil && rec.family == "olsr" {
					cp.olsr = olsrTopoOf(kit.fam, kit.clk.Now())
				}
			} else {
				kit.c.Close()
			}
			mon.proto.Stop()
		}
	}
	rc.cal.tick()
	speed := rc.cal.speed(start)
	tr.end(sp)

	sp = tr.begin("verify")
	if rc.deep {
		for _, rec := range recs {
			problems, note, err := compareRoutes(rec, gridAddrs(sz))
			if err != nil {
				return nil, err
			}
			r.problems = append(r.problems, problems...)
			if note != "" {
				r.notes = append(r.notes, note)
			}
		}
	}
	for _, fam := range []string{"olsr", "dymo"} {
		n := float64(out.frames[fam])
		kitHost[fam].speed, monoHost[fam].speed = speed, speed
		out.kitNs[fam] = ratio(float64(kitHost[fam].cal().Nanoseconds()), n)
		out.monoNs[fam] = ratio(float64(monoHost[fam].cal().Nanoseconds()), n)
		out.kitAllocs[fam] = ratio(float64(kitHost[fam].mallocs), n)
		out.monoAllocs[fam] = ratio(float64(monoHost[fam].mallocs), n)
		r.host.add(*kitHost[fam])
		r.measured += kitHost[fam].wall + monoHost[fam].wall
	}
	r.rxStats = out
	r.counts = lc
	r.deployUs = scaled(r.deployUs, speed)
	r.reconfigUs = r.deployUs
	r.rx = lc.net.RxFrames
	r.nodes = len(lastKit)
	r.nodeSeconds = float64(2*sz.rxInstances) * sz.rxRecord.Seconds()
	if r.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("rx_table1: %d replay sends returned an error", r.failed))
	}
	if lc.sys.DecodeErrors > 0 {
		r.problems = append(r.problems, fmt.Sprintf("rx_table1: %d recorded frames failed to decode", lc.sys.DecodeErrors))
	}
	r.baseDigest()
	for _, rec := range recs {
		frames, hash := rec.digest()
		r.digest["rec."+rec.family+".frames"] = frames
		r.digest["rec."+rec.family+".hash"] = hash
	}
	r.liveHeap = measureLiveHeap(func() {
		for _, k := range lastKit {
			k.c.Close()
		}
		lastKit = nil
	})
	tr.end(sp)
	return r, nil
}
