package main

import (
	"fmt"
	"sort"
	"time"
)

// round is what one execution of a workload's fixed work produced: host
// costs (which vary run to run), simulated outcomes and counts (which must
// not), and the evidence the output checks need.
type round struct {
	workload string
	seed     int64

	setup hostDelta // build + deploy + converge/record before the measured phase
	host  hostDelta // the measured phase
	// measured is the wall time the round spent measuring, which is what
	// --seconds budgets. It equals host.wall except on rx_table1, where the
	// monolithic side is measured too but host covers the kit side only.
	measured time.Duration

	nodes       int         // kit nodes simulated in the measured phase
	nodeSeconds float64     // simulated node·seconds of the measured phase
	rx          uint64      // frames received by kit stacks in the measured phase
	liveHeap    uint64      // bytes the deployed network keeps reachable
	reconfigUs  []float64   // calibrated µs per one-node protocol change
	undeployUs  []float64   // calibrated µs per one-node undeploy (reconfig_switch)
	deployUs    []float64   // calibrated µs per one-node deploy
	counts      layerCounts // per-layer work counts of the measured phase
	app         appStats    // application-level outcomes (zero without traffic)
	rxStats     *rxOutcome  // rx_table1 only

	attempted int // outside calls that can fail: sends, replayed frames, deploys
	failed    int // those that returned an error

	digest   map[string]int64 // deterministic outputs, compared with expected.json
	problems []string         // output-check failures
	notes    []string         // what a check saw and let pass
}

// rxOutcome is the kit-versus-mono split of an rx_table1 round.
type rxOutcome struct {
	kitNs, monoNs         map[string]float64 // calibrated ns per replayed frame, by family
	kitAllocs, monoAllocs map[string]float64 // heap allocs per replayed frame
	frames                map[string]int     // frames replayed per side, by family
}

// baseDigest fills the digest entries every workload has: the medium's and
// every layer's counts, and each S metric as an exact integer.
func (r *round) baseDigest() {
	c := r.counts
	d := map[string]int64{
		"net.tx":             int64(c.net.TxFrames),
		"net.rx":             int64(c.net.RxFrames),
		"net.dropped_loss":   int64(c.net.DroppedLoss),
		"net.dropped_nolink": int64(c.net.DroppedNoLink),
		"net.tx_bytes":       int64(c.net.TxBytes),
		"eng.epochs":         int64(c.eng.Epochs),
		"sys.ctrl_sent":      int64(c.sys.CtrlSent),
		"sys.ctrl_received":  int64(c.sys.CtrlReceived),
		"sys.data_sent":      int64(c.sys.DataSent),
		"sys.data_forwarded": int64(c.sys.DataForwarded),
		"sys.data_delivered": int64(c.sys.DataDelivered),
		"sys.data_dropped":   int64(c.sys.DataDropped),
		"sys.decode_errors":  int64(c.sys.DecodeErrors),
		"core.emitted":       int64(c.mgr.Emitted),
		"core.delivered":     int64(c.mgr.Delivered),
		"core.dropped":       int64(c.mgr.Dropped),
		"core.rewires":       int64(c.mgr.Rewires),
		"route.rib_entries":  int64(c.ribEntries),
		"route.fib_ops":      int64(c.fibOps),
		"vclock.fired":       int64(c.timersFired),
		"rx":                 int64(r.rx),
		"app.sent":           int64(r.app.sent),
		"app.delivered":      int64(r.app.delivered),
		"app.lat_p50_us":     r.app.latP50Us,
		"app.lat_p95_us":     r.app.latP95Us,
		"app.setup_p50_us":   r.app.routeSetupP50Us,
		"app.gap_dymo_us":    r.app.gapToDymoP50Us,
		"app.gap_olsr_us":    r.app.gapToOlsrP50Us,
	}
	for _, name := range c.unitNames() {
		d["handled."+name] = int64(c.units[name].Handled)
	}
	r.digest = d
}

// sameDigest compares two digests and names every difference.
func sameDigest(what string, got, want map[string]int64) []string {
	var out []string
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		g, gok := got[k]
		w, wok := want[k]
		switch {
		case !gok:
			out = append(out, fmt.Sprintf("%s: %s missing (want %d)", what, k, w))
		case !wok:
			out = append(out, fmt.Sprintf("%s: %s=%d not expected", what, k, g))
		case g != w:
			out = append(out, fmt.Sprintf("%s: %s=%d, want %d", what, k, g, w))
		}
	}
	return out
}
