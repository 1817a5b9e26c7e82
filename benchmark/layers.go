package main

import (
	"fmt"
	"math"
	"runtime"
)

// runTraced is the traced run: one untraced round (the reference time and
// the end-to-end numbers), one round of the same work with spans and
// recording taps on, then one isolate.<layer> span per layer replaying what
// that round recorded. It writes the spans out and returns the per-layer
// metrics.
func runTraced(w workload, sz sizes, o options) (*result, error) {
	res := &result{workload: w.name, seed: o.seed}
	cal := newCalibrator()
	plain, err := w.run(runCtx{sz: sz, seed: o.seed, cal: cal, deep: true})
	if err != nil {
		return nil, err
	}
	tr := newTracer(w.name)
	cp := &capture{}
	traced, err := w.run(runCtx{sz: sz, seed: o.seed, cal: cal, tr: tr, cp: cp})
	if err != nil {
		return nil, err
	}
	res.rounds = []*round{plain, traced}
	res.finish()
	// The end-to-end table of a traced run still comes from untraced work.
	res.e2e = endToEnd(res.rounds[:1])
	res.info = infoMetrics(res.rounds[:1])

	iso, err := runIsolates(tr, cal, sz, cp, traced)
	if err != nil {
		return nil, err
	}
	res.layers = layerMetrics(traced, plain, iso, tr)
	res.problems = append(res.problems, checkSpans(tr.spans)...)
	if err := tr.write(o.traceOut); err != nil {
		return nil, err
	}
	return res, nil
}

// checkSpans verifies the trace is well formed: every span closed, every
// parent index resolving to an earlier span that contains it, and no
// negative self time.
func checkSpans(spans []span) []string {
	var out []string
	for i, s := range spans {
		switch {
		case s.End < s.Start:
			out = append(out, fmt.Sprintf("trace: span %d (%s) never ended", i, s.Name))
		case s.Parent >= i:
			out = append(out, fmt.Sprintf("trace: span %d (%s) has parent %d", i, s.Name, s.Parent))
		case s.Parent >= 0 && (s.Start < spans[s.Parent].Start || s.End > spans[s.Parent].End):
			out = append(out, fmt.Sprintf("trace: span %d (%s) is not inside its parent", i, s.Name))
		}
	}
	for i, d := range selfTimes(spans) {
		if d < 0 {
			out = append(out, fmt.Sprintf("trace: span %d (%s) has negative self time", i, spans[i].Name))
		}
	}
	return out
}

// layerMetrics assembles the per-layer table: counts from the layers' own
// Stats(), isolated costs, and each layer's share of the measured phase
// (isolated cost × the run's count ÷ its calibrated time). Route work happens inside the
// protocol handlers, so route.share is reported but left out of the sum
// bench.residual_share is taken from.
func layerMetrics(r, plain *round, iso *isolated, tr *tracer) *metricSet {
	ms := &metricSet{}
	c := r.counts
	measuredNs := float64(r.host.cal().Nanoseconds())
	share := func(ns float64) float64 { return ratio(ns, measuredNs) }
	f := func(u uint64) float64 { return float64(u) }
	unit := func(name string) float64 { return f(c.units[name].Handled) }

	// emunet: medium + event engine.
	emunetShare := share(iso.bare.ns * f(c.net.RxFrames))
	ms.add("emunet.tx_frames", "count", f(c.net.TxFrames))
	ms.add("emunet.rx_frames", "count", f(c.net.RxFrames))
	ms.add("emunet.dropped_loss", "count", f(c.net.DroppedLoss))
	ms.add("emunet.dropped_nolink", "count", f(c.net.DroppedNoLink))
	ms.add("emunet.rx_per_tx", "ratio", ratio(f(c.net.RxFrames), f(c.net.TxFrames)))
	ms.add("emunet.epochs", "count", f(c.eng.Epochs))
	ms.add("emunet.parallel_epoch_share", "ratio", ratio(f(c.eng.ParallelEpochs), f(c.eng.Epochs)))
	ms.add("emunet.max_epoch_events", "count", float64(c.eng.MaxEpochEvents))
	ms.add("emunet.bare_ns_per_rx", "ns", iso.bare.ns)
	ms.add("emunet.bare_allocs_per_rx", "count", iso.bare.allocs)
	ms.add("emunet.share", "ratio", emunetShare)

	// vclock. The engine arms one anchor timer per epoch and the bare
	// replay has paid for those, so they are not charged twice.
	protoTimers := math.Max(0, float64(c.timersFired)-f(c.eng.Epochs))
	vclockShare := share(iso.timer.ns * protoTimers)
	ms.add("vclock.timers_fired", "count", float64(c.timersFired))
	ms.add("vclock.pending_max", "count", float64(c.pendingMax))
	ms.add("vclock.ns_per_timer", "ns", iso.timer.ns)
	ms.add("vclock.share", "ratio", vclockShare)

	// system: NIC demux, netlink filter, forwarder.
	hops := f(c.sys.DataSent + c.sys.DataForwarded)
	systemShare := share(iso.demuxNs*f(c.sys.CtrlReceived) + iso.fwd.ns*hops)
	ms.add("system.ctrl_sent", "count", f(c.sys.CtrlSent))
	ms.add("system.ctrl_received", "count", f(c.sys.CtrlReceived))
	ms.add("system.data_sent", "count", f(c.sys.DataSent))
	ms.add("system.data_forwarded", "count", f(c.sys.DataForwarded))
	ms.add("system.data_delivered", "count", f(c.sys.DataDelivered))
	ms.add("system.data_buffered", "count", f(c.sys.DataBuffered))
	ms.add("system.data_dropped", "count", f(c.sys.DataDropped))
	ms.add("system.decode_errors", "count", f(c.sys.DecodeErrors))
	ms.add("system.hops_per_delivered", "ratio", ratio(hops, f(c.sys.DataDelivered)))
	ms.add("system.demux_ns_per_ctrl", "ns", iso.demuxNs)
	ms.add("system.fwd_ns_per_hop", "ns", iso.fwd.ns)
	ms.add("system.fwd_allocs_per_hop", "count", iso.fwd.allocs)
	ms.add("system.share", "ratio", systemShare)

	// packetbb: decode on every received control frame, encode on every
	// sent one.
	packetbbShare := share(iso.decode.ns*f(c.sys.CtrlReceived) + iso.encode.ns*f(c.sys.CtrlSent))
	ms.add("packetbb.decode_ns_per_pkt", "ns", iso.decode.ns)
	ms.add("packetbb.decode_allocs_per_pkt", "count", iso.decode.allocs)
	ms.add("packetbb.encode_ns_per_pkt", "ns", iso.encode.ns)
	ms.add("packetbb.encode_allocs_per_pkt", "count", iso.encode.allocs)
	ms.add("packetbb.bytes_per_pkt", "B", iso.bytesPerPkt)
	ms.add("packetbb.decodes_per_tx", "ratio", ratio(f(c.sys.CtrlReceived), f(c.sys.CtrlSent)))
	ms.add("packetbb.share", "ratio", packetbbShare)

	// core: Framework Manager dispatch and deploy/rewire.
	coreShare := share(iso.emit.ns * f(c.mgr.Emitted))
	ms.add("core.emitted", "count", f(c.mgr.Emitted))
	ms.add("core.delivered", "count", f(c.mgr.Delivered))
	ms.add("core.dropped", "count", f(c.mgr.Dropped))
	ms.add("core.rewires", "count", f(c.mgr.Rewires))
	ms.add("core.deliveries_per_emit", "ratio", ratio(f(c.mgr.Delivered), f(c.mgr.Emitted)))
	ms.add("core.handler_errors", "count", f(c.handlerErrors()))
	ms.add("core.emit_ns_per_event", "ns", iso.emit.ns)
	ms.add("core.emit_allocs_per_event", "count", iso.emit.allocs)
	ms.add("core.deploy_us_p50", "us", quantile(r.deployUs, 0.5))
	ms.add("core.undeploy_us_p50", "us", quantile(iso.undeployUs, 0.5))
	ms.add("core.reconfig_us_p99", "us", quantile(r.reconfigUs, 0.99))
	ms.add("core.share", "ratio", coreShare)

	// Protocol handlers. OLSR recomputes routes once per sweep (one a
	// second) and once per 100 ms quantum in which a TC changed the
	// topology; the probe node's recording gives the quanta.
	recomputes := 0.0
	if unit("olsr") > 0 && iso.probeVirtual > 0 {
		perNodeSecond := 1 + float64(iso.tcQuanta)/iso.probeVirtual.Seconds()
		recomputes = perNodeSecond * r.nodeSeconds
		if r.rxStats != nil {
			recomputes /= 2 // only half the replayed node·seconds ran OLSR
		}
	}
	olsrShare := share(iso.tc.ns*unit("olsr") + iso.computeRoutes.ns*recomputes)
	ms.add("olsr.handled", "count", unit("olsr"))
	ms.add("olsr.tc_accept_ns", "ns", iso.tc.ns)
	ms.add("olsr.tc_accept_allocs", "count", iso.tc.allocs)
	ms.add("olsr.compute_routes_ns", "ns", iso.computeRoutes.ns)
	ms.add("olsr.compute_routes_allocs", "count", iso.computeRoutes.allocs)
	ms.add("olsr.recomputes_est", "count", recomputes)
	ms.add("olsr.share", "ratio", olsrShare)
	mprShare := share(iso.mprHello.ns * unit("mpr"))
	ms.add("mpr.handled", "count", unit("mpr"))
	ms.add("mpr.hello_accept_ns", "ns", iso.mprHello.ns)
	ms.add("mpr.hello_accept_allocs", "count", iso.mprHello.allocs)
	ms.add("mpr.share", "ratio", mprShare)
	ndShare := share(iso.ndHello.ns * unit("neighbor-detection"))
	ms.add("neighbor.handled", "count", unit("neighbor-detection"))
	ms.add("neighbor.hello_accept_ns", "ns", iso.ndHello.ns)
	ms.add("neighbor.hello_accept_allocs", "count", iso.ndHello.allocs)
	ms.add("neighbor.share", "ratio", ndShare)
	routeUpdates := math.Min(hops, unit("dymo"))
	dymoShare := share(iso.re.ns*(unit("dymo")-routeUpdates) + iso.routeUpdate.ns*routeUpdates)
	ms.add("dymo.handled", "count", unit("dymo"))
	ms.add("dymo.re_accept_ns", "ns", iso.re.ns)
	ms.add("dymo.re_accept_allocs", "count", iso.re.allocs)
	ms.add("dymo.route_update_ns", "ns", iso.routeUpdate.ns)
	ms.add("dymo.share", "ratio", dymoShare)

	// route: RIB + FIB. Nested inside the handlers above.
	perNode := ratio(float64(c.ribEntries), float64(r.nodes))
	routeShare := share(iso.replaceSteady.ns*perNode*recomputes + iso.fibLookupNs*hops)
	ms.add("route.rib_entries", "count", float64(c.ribEntries))
	ms.add("route.fib_ops", "count", f(c.fibOps))
	ms.add("route.replace_steady_ns_per_entry", "ns", iso.replaceSteady.ns)
	ms.add("route.replace_churn_ns_per_entry", "ns", iso.replaceChurn.ns)
	ms.add("route.replace_allocs", "count", iso.replaceChurn.allocs)
	ms.add("route.rib_lookup_ns", "ns", iso.ribLookupNs)
	ms.add("route.fib_lookup_ns", "ns", iso.fibLookupNs)
	ms.add("route.share", "ratio", routeShare)

	// mono and the kit side of the same replay.
	for _, fam := range []string{"olsr", "dymo"} {
		ms.add("mono."+fam+"_ns_per_msg", "ns", iso.mono[fam].ns)
		ms.add("mono."+fam+"_allocs_per_msg", "count", iso.mono[fam].allocs)
	}
	for _, fam := range []string{"olsr", "dymo"} {
		ms.add("bench.kit_"+fam+"_ns_per_msg", "ns", iso.kit[fam].ns)
		ms.add("bench.kit_"+fam+"_allocs_per_msg", "count", iso.kit[fam].allocs)
		ms.add("bench.kit_mono_ratio_"+fam, "ratio", ratio(iso.kit[fam].ns, iso.mono[fam].ns))
	}

	// runtime.
	ms.add("runtime.gc_cpu_share", "ratio", ratio(r.host.gcCPU, r.host.cpu.Seconds()))
	ms.add("runtime.num_gc", "count", float64(r.host.numGC))
	ms.add("runtime.heap_bytes_per_rx", "B", ratio(float64(r.host.allocBytes), float64(r.rx)))
	ms.add("runtime.cpu_s", "s", r.host.cpu.Seconds())
	ms.add("runtime.cpu_busy_share", "ratio", ratio(r.host.cpu.Seconds(), r.host.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	ms.add("runtime.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))

	// app: what the traffic saw (zero on workloads without data traffic).
	a := r.app
	ms.add("app.sent", "count", float64(a.sent))
	ms.add("app.delivered_share", "ratio", ratio(float64(a.delivered), float64(a.sent)))
	ms.add("app.data_latency_ms_p50", "ms", float64(a.latP50Us)/1e3)
	ms.add("app.data_latency_ms_p95", "ms", float64(a.latP95Us)/1e3)
	ms.add("app.route_setup_ms_p50", "ms", float64(a.routeSetupP50Us)/1e3)
	ms.add("app.ctrl_tx_per_delivered", "ratio", ratio(f(c.sys.CtrlSent), float64(a.delivered)))
	ms.add("app.us_per_delivered", "us", ratio(float64(plain.host.cal().Microseconds()), float64(plain.app.delivered)))
	ms.add("app.gap_to_dymo_ms_p50", "ms", float64(a.gapToDymoP50Us)/1e3)
	ms.add("app.gap_to_olsr_ms_p50", "ms", float64(a.gapToOlsrP50Us)/1e3)

	// bench: the harness itself.
	explained := emunetShare + vclockShare + systemShare + packetbbShare + coreShare + olsrShare + mprShare + ndShare + dymoShare
	ms.add("bench.wall_s", "s", r.host.wall.Seconds())
	ms.add("bench.trace_overhead_ratio", "ratio", ratio(r.host.cal().Seconds(), plain.host.cal().Seconds()))
	ms.add("bench.host_speed", "ratio", r.host.speed)
	ms.add("bench.residual_share", "ratio", 1-explained)
	ms.add("bench.isolate_s", "s", isolateSeconds(tr))
	return ms
}

func isolateSeconds(tr *tracer) float64 {
	var ns int64
	for _, s := range tr.spans {
		if len(s.Name) > 8 && s.Name[:8] == "isolate." {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}
