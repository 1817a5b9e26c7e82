// Command mkemu runs an emulated MANET from the command line: it builds a
// topology, deploys the chosen protocol composition on every node, drives
// a traffic workload, and prints per-node statistics — the quickest way to
// watch MANETKit route.
//
//	mkemu -nodes 5 -topology line -proto dymo -duration 30s -traffic 10
//	mkemu -nodes 16 -topology grid -proto olsr -fisheye
//	mkemu -nodes 8 -topology clique -proto both
//
// With -chaos it instead runs a scripted fault scenario (partitions,
// crashes, frame corruption, coordinated reconfiguration) against the
// chosen composition and checks the protocol invariants afterwards:
//
//	mkemu -proto olsr -chaos storm
//	mkemu -proto aodv -chaos crash -seed 42
//
// Observability: -metrics prints the cluster-wide counter/histogram
// snapshot after the run, -trace writes the structured event trace as
// JSONL (byte-identical for the same seed), and -http serves /debug/vars
// (expvar, including the live metric registry) plus /debug/pprof while the
// emulation runs:
//
//	mkemu -proto dymo -metrics -trace trace.jsonl
//	mkemu -proto olsr -duration 5m -http localhost:6060
//
// Introspection: -graph writes the final architecture meta-model (nodes ×
// units × event bindings) as Graphviz DOT, -paths reconstructs the causal
// packet paths (route-discovery flood trees, reply chains, data forwards
// with per-hop latency) from the trace, and -health writes the per-unit
// watchdog report. With -http, the live deployment also serves /graph,
// /health and /paths:
//
//	mkemu -proto aodv -graph arch.dot -paths
//	mkemu -proto olsr -chaos storm -graph arch.dot -health health.txt
//	mkemu -proto dymo -duration 5m -http localhost:6060   # then GET /graph
//
// Streaming telemetry: with -http, the run is also exported live on
// /stream/metrics, /stream/spans, /stream/health, /stream/journal and
// /stream/engine (one event per epoch: epoch, events, commit_lag_ns,
// queue_depth) as NDJSON (or SSE with Accept: text/event-stream) —
// `curl -N` watches the deployment reconfigure as it happens. -record
// writes the whole run's flight-recorder dump for post-mortem; -replay
// summarises and fingerprints a dump without running anything:
//
//	mkemu -proto olsr -chaos storm -record flight.ndjson
//	mkemu -replay flight.ndjson
//	mkemu -proto dymo -duration 5m -http localhost:6060   # curl -N localhost:6060/stream/spans
package main

import (
	_ "expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"manetkit"
	"manetkit/internal/harness"
	"manetkit/internal/telemetry"
)

// epoch anchors the virtual clock and the trace timestamps.
var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func main() {
	nodes := flag.Int("nodes", 5, "number of nodes")
	topology := flag.String("topology", "line", "line, grid, clique or random")
	proto := flag.String("proto", "dymo", "olsr, dymo, aodv, zrp, or families joined by + (both = olsr+dymo)")
	duration := flag.Duration("duration", 30*time.Second, "simulated run time")
	traffic := flag.Int("traffic", 5, "data packets from node 1 to node N")
	fisheye := flag.Bool("fisheye", false, "enable the fisheye OLSR variant")
	multipath := flag.Bool("multipath", false, "enable the multipath DYMO variant")
	mobility := flag.Bool("mobility", false, "mid-run, the last node walks out of range and back")
	seed := flag.Int64("seed", 1, "emulation seed")
	loss := flag.Float64("loss", 0, "per-link frame loss probability")
	showMetrics := flag.Bool("metrics", false, "print the metric snapshot after the run")
	traceOut := flag.String("trace", "", "write the structured event trace to this JSONL file")
	httpAddr := flag.String("http", "", "serve /debug/vars and /debug/pprof on this address during the run")
	chaos := flag.String("chaos", "", "run a fault scenario instead of the traffic workload: "+
		strings.Join(harness.Scenarios(), ", "))
	graphOut := flag.String("graph", "", "write the final architecture meta-model as Graphviz DOT to this file")
	showPaths := flag.Bool("paths", false, "reconstruct and print the causal packet paths after the run (implies tracing)")
	healthOut := flag.String("health", "", "write the final per-unit health report to this file")
	recordOut := flag.String("record", "", "write the telemetry flight-recorder dump (NDJSON) to this file after the run")
	replayIn := flag.String("replay", "", "summarise and fingerprint a flight-recorder dump, then exit (no emulation)")
	sample := flag.Duration("sample", time.Second, "metrics-delta sampling interval on the virtual clock (with -record or -http)")
	flag.Parse()

	if *replayIn != "" {
		if err := replayDump(*replayIn); err != nil {
			fmt.Fprintf(os.Stderr, "mkemu: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// The telemetry bus is the one recorder: the spans behind -trace and
	// -paths, the -record dump and the live /stream/* endpoints.
	var bus *telemetry.Bus
	if *traceOut != "" || *showPaths || *recordOut != "" || *httpAddr != "" {
		bus = manetkit.NewTelemetryBus(epoch)
	}
	insp := introspection{graphOut: *graphOut, healthOut: *healthOut, showPaths: *showPaths}
	if *httpAddr != "" {
		telemetry.RegisterStreamHandlers(http.DefaultServeMux, bus)
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "mkemu: http: %v\n", err)
			}
		}()
	}

	var err error
	if *chaos != "" {
		err = runChaos(*proto, *chaos, *nodes, *seed, *traffic, bus, insp)
	} else {
		err = run(*nodes, *topology, *proto, *duration, *traffic,
			*fisheye, *multipath, *mobility, *seed, *loss, *showMetrics, *httpAddr != "",
			bus, *sample, insp)
	}
	// Close the bus first so every /stream/* consumer sees a clean end of
	// stream, then snapshot the recorder.
	bus.Close()
	if err == nil && bus != nil && *recordOut != "" {
		err = writeDump(bus, *recordOut)
	}
	if err == nil && *traceOut != "" {
		err = writeTrace(bus, *traceOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkemu: %v\n", err)
		os.Exit(1)
	}
}

// introspection collects the -graph / -health / -paths outputs.
type introspection struct {
	graphOut  string
	healthOut string
	showPaths bool
}

// writeFile writes one introspection artifact and logs where it went.
func writeFile(path, kind, content string) error {
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s:  %s\n", kind, path)
	return nil
}

// printPaths renders the reconstructed causal packet paths from the
// recorded spans.
func printPaths(bus *telemetry.Bus) {
	paths := manetkit.CorrelatePaths(bus.Spans())
	fmt.Printf("paths:   %d correlated messages\n", len(paths))
	fmt.Print(manetkit.RenderPacketPaths(paths, 20))
}

// create writes the file at path with write.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace dumps the recorded spans as JSONL and prints the trace
// fingerprint (stable across runs with the same seed).
func writeTrace(bus *telemetry.Bus, path string) error {
	if err := create(path, bus.WriteSpans); err != nil {
		return err
	}
	fmt.Printf("trace:   %d spans -> %s (fingerprint %s, %d evicted)\n",
		len(bus.Spans()), path, bus.SpanFingerprint(), bus.SpansDropped())
	return nil
}

// writeDump writes the flight recorder as NDJSON and prints its stable
// fingerprint — byte-identical for the same seed at any GOMAXPROCS.
func writeDump(bus *telemetry.Bus, path string) error {
	events := bus.Events()
	if err := create(path, func(w io.Writer) error { return telemetry.WriteEvents(w, events) }); err != nil {
		return err
	}
	fmt.Printf("record:  %d events -> %s (fingerprint %s, %d evicted)\n",
		len(events), path, telemetry.FingerprintEvents(events), bus.Evicted())
	return nil
}

// replayDump reads a flight-recorder dump back and prints its per-stream
// summary and fingerprint — the post-mortem entry point.
func replayDump(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := telemetry.ReadEvents(f)
	if err != nil {
		return err
	}
	fmt.Printf("replay:  %s\n%s", path, telemetry.Summarize(events).String())
	fmt.Printf("fingerprint: %s\n", telemetry.FingerprintEvents(events))
	return nil
}

// runChaos executes one scripted fault scenario and reports whether the
// protocol invariants held. Violations exit non-zero.
func runChaos(proto, scenario string, nodes int, seed int64, traffic int,
	bus *telemetry.Bus, insp introspection) error {
	report, err := harness.RunChaos(harness.ChaosConfig{
		Proto:     proto,
		Scenario:  scenario,
		Nodes:     nodes,
		Seed:      seed,
		Traffic:   traffic,
		Telemetry: bus,
	})
	if err != nil {
		return err
	}
	fmt.Print(report.Summary()) // chaos summaries always include the metric snapshot
	if n := len(report.Journal); n > 0 {
		fmt.Printf("journal: %d reconfigurations recorded\n", n)
	}
	if insp.graphOut != "" {
		if err := writeFile(insp.graphOut, "graph", report.Arch.DOT()); err != nil {
			return err
		}
	}
	if insp.healthOut != "" {
		if err := writeFile(insp.healthOut, "health", report.Health.String()); err != nil {
			return err
		}
	}
	if insp.showPaths {
		printPaths(bus)
	}
	if !report.OK() {
		return fmt.Errorf("%d invariant violations", len(report.Violations)+len(report.SeqViolations))
	}
	return nil
}

func run(nodes int, topology, proto string, duration time.Duration, traffic int,
	fisheye, multipath, mobility bool, seed int64, loss float64,
	showMetrics, serveHTTP bool, bus *telemetry.Bus,
	sample time.Duration, insp introspection) error {
	if nodes < 2 {
		return fmt.Errorf("need at least 2 nodes")
	}
	clk := manetkit.NewVirtualClock(epoch)
	net := manetkit.NewNetwork(clk, seed)
	var reg *manetkit.MetricsRegistry
	if showMetrics || serveHTTP || bus != nil {
		reg = manetkit.NewMetricsRegistry()
		net.SetMetrics(reg)
		if serveHTTP {
			reg.PublishExpvar("manetkit")
		}
	}
	if bus != nil {
		net.SetTelemetry(bus)
		reg.Attach(bus.ReadMetrics)
	}
	addrs := manetkit.Addrs(nodes)
	journal := manetkit.NewRewireJournal(epoch, bus)
	stacks, err := manetkit.NewStacks(net, addrs, manetkit.StackOptions{
		Metrics: reg, Telemetry: bus, Journal: journal,
	})
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range stacks {
			s.Close()
		}
	}()

	q := manetkit.DefaultQuality()
	q.Loss = loss
	switch topology {
	case "line":
		err = manetkit.BuildLine(net, addrs, q)
	case "grid":
		cols := 1
		for cols*cols < nodes {
			cols++
		}
		err = manetkit.BuildGrid(net, addrs, cols, q)
	case "clique":
		err = manetkit.BuildClique(net, addrs, q)
	case "random":
		err = fmt.Errorf("random topology: use the library API (emunet.BuildRandom)")
	default:
		err = fmt.Errorf("unknown topology %q", topology)
	}
	if err != nil {
		return err
	}

	specs := composition(proto, fisheye, nodes)
	for _, s := range stacks {
		if err := s.Compose(specs...); err != nil {
			return err
		}
		if d := s.DYMOUnit(); d != nil && multipath {
			if err := d.EnableMultipath(2); err != nil {
				return err
			}
		}
	}
	fmt.Printf("deployed %s on %d nodes (%s topology)\n", proto, nodes, topology)

	monitor := manetkit.NewHealthMonitor(epoch, reg, bus)
	for _, s := range stacks {
		monitor.Watch(manetkit.HealthTarget{Mgr: s.Manager(), Tables: s.RouteTables()})
	}
	if bus != nil {
		sampler := telemetry.NewSampler(bus, reg, clk, sample)
		sampler.Start()
		defer func() {
			sampler.SampleNow() // cover the tail of the run
			sampler.Stop()
		}()
		// Health checks every 5 virtual seconds drive the health stream
		// (and give the streaming endpoint its transition timeline).
		var healthTick func()
		healthTick = func() {
			monitor.Check(clk.Now())
			clk.AfterFunc(5*time.Second, healthTick)
		}
		clk.AfterFunc(5*time.Second, healthTick)
	}
	if serveHTTP {
		serveIntrospection(http.DefaultServeMux, stacks, monitor, clk, bus)
	}

	if mobility {
		// The last node drifts out of range a third into the run and comes
		// back two thirds in — the MobiEmu-style scripted trace.
		roam := addrs[nodes-1]
		saved := net.Neighbors(roam)
		net.ScheduleAt(duration/3, func(n *manetkit.Network) {
			for _, nb := range saved {
				n.CutLink(roam, nb)
			}
			fmt.Printf("[mobility] %v walked out of range\n", roam)
		})
		net.ScheduleAt(2*duration/3, func(n *manetkit.Network) {
			for _, nb := range saved {
				_ = n.SetLink(roam, nb, q)
			}
			fmt.Printf("[mobility] %v came back into range\n", roam)
		})
	}

	var mu sync.Mutex
	delivered := 0
	stacks[nodes-1].OnDeliver(func(src manetkit.Addr, payload []byte) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})

	// Warm-up, then traffic from node 1 to node N spread across the rest
	// of the run (with -mobility, some packets fall into the out-of-range
	// window and exercise the repair path).
	warm := duration / 6
	clk.Advance(warm)
	gap := (duration - warm - duration/6) / time.Duration(max(traffic, 1))
	for i := 0; i < traffic; i++ {
		if err := stacks[0].SendData(addrs[nodes-1], []byte(fmt.Sprintf("packet-%d", i))); err != nil {
			return err
		}
		clk.Advance(gap)
	}
	clk.Advance(duration / 6)

	mu.Lock()
	got := delivered
	mu.Unlock()
	fmt.Printf("traffic: %d/%d data packets delivered end-to-end\n", got, traffic)

	st := net.Stats()
	fmt.Printf("medium:  %d frames tx, %d rx, %d lost, %d no-link\n",
		st.TxFrames, st.RxFrames, st.DroppedLoss, st.DroppedNoLink)
	for i, s := range stacks {
		sys := s.System().Stats()
		line := fmt.Sprintf("node %-2d %v  ctrl tx/rx %d/%d  data fwd %d",
			i+1, s.Addr(), sys.CtrlSent, sys.CtrlReceived, sys.DataForwarded)
		if o := s.OLSRUnit(); o != nil {
			line += fmt.Sprintf("  olsr-routes %d", o.Routes().ValidCount())
		}
		if d := s.DYMOUnit(); d != nil {
			dst := d.State().Stats()
			line += fmt.Sprintf("  dymo-routes %d (discoveries %d)", d.Routes().ValidCount(), dst.Discoveries)
		}
		if a := s.AODVUnit(); a != nil {
			ast := a.State().Stats()
			line += fmt.Sprintf("  aodv-routes %d (discoveries %d, ring-expansions %d, gratuitous %d)",
				a.Routes().ValidCount(), ast.Discoveries, ast.RingExpansions, ast.GratuitousRREPs)
		}
		if z := s.ZRPUnit(); z != nil {
			zst := z.State().Stats()
			line += fmt.Sprintf("  zrp-routes %d (intrazone-hits %d, discoveries %d, zone-answers %d)",
				z.Routes().ValidCount(), zst.IntrazoneHits, zst.Discoveries, zst.ZoneAnswers)
		}
		fmt.Println(line)
	}
	if showMetrics && reg != nil {
		fmt.Println("metrics:")
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if n := journal.Len(); n > 0 {
		fmt.Printf("journal: %d reconfigurations recorded\n", n)
	}
	if insp.graphOut != "" {
		if err := writeFile(insp.graphOut, "graph", manetkit.CaptureArch(stacks...).DOT()); err != nil {
			return err
		}
	}
	if insp.healthOut != "" {
		if err := writeFile(insp.healthOut, "health", monitor.Check(clk.Now()).String()); err != nil {
			return err
		}
	}
	if insp.showPaths {
		printPaths(bus)
	}
	return nil
}

// composition is what -proto and -fisheye ask every node to run: families
// joined by "+" ("both" is olsr+dymo), fisheye riding on OLSR. DYMO's hop
// limit spans the network; AODV piggybacks routes on its beacons.
func composition(proto string, fisheye bool, nodes int) []manetkit.FamilySpec {
	if proto == "both" {
		proto = "olsr+dymo"
	}
	var specs []manetkit.FamilySpec
	for _, family := range strings.Split(proto, "+") {
		sp := manetkit.FamilySpec{Family: family}
		switch family {
		case "dymo":
			sp.HopLimit = uint8(nodes + 2)
		case "aodv":
			sp.PiggybackRoutes = true
		}
		specs = append(specs, sp)
		if family == "olsr" && fisheye {
			specs = append(specs, manetkit.FamilySpec{Family: "fisheye"})
		}
	}
	return specs
}

// serveIntrospection registers the live /graph, /health and /paths
// endpoints on mux. Every accessor behind them is mutex-guarded, so they
// serve while the emulation advances.
func serveIntrospection(mux *http.ServeMux, stacks []*manetkit.Stack, monitor *manetkit.HealthMonitor,
	clk *manetkit.VirtualClock, bus *telemetry.Bus) {
	mux.HandleFunc("/graph", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, manetkit.CaptureArch(stacks...).DOT())
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, monitor.Check(clk.Now()).String())
	})
	mux.HandleFunc("/paths", func(w http.ResponseWriter, r *http.Request) {
		if bus == nil {
			http.Error(w, "tracing disabled: run mkemu with -trace or -paths", http.StatusNotFound)
			return
		}
		fmt.Fprint(w, manetkit.RenderPacketPaths(manetkit.CorrelatePaths(bus.Spans()), 50))
	})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
