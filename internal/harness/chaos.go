package harness

// Chaos scenarios: scripted fault schedules (emunet.FaultPlan) driven
// against full protocol deployments on the virtual clock, with the
// invariant suite (internal/invariant) asserting that routing state stays
// sane. This is the executable form of the paper's robustness claim: the
// compositions keep routing — loop-free, live, symmetric — through
// partitions, crashes, frame corruption and even a mid-run reconfiguration
// of every node at one instant (§4.5).
//
// Everything runs on the shared virtual clock with seeded randomness, so a
// scenario is a pure function of (config, seed): two runs with the same
// ChaosConfig produce byte-identical ChaosReports. The determinism tests
// and `mkemu -chaos` both rely on that.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/inspect"
	"manetkit/internal/invariant"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/telemetry"
	"manetkit/internal/testbed"
)

// Chaos scenario names accepted by RunChaos.
const (
	ScenarioPartition  = "partition"  // network splits during a TC flood, then heals
	ScenarioCrash      = "crash"      // a relay node crashes mid route discovery and restarts with state loss
	ScenarioCorruption = "corruption" // frames are corrupted, duplicated and reordered in flight
	ScenarioReconfig   = "reconfig"   // every node deploys a sniffer while the topology churns
	ScenarioStorm      = "storm"      // all of the above in one run
)

// Scenarios lists the chaos scenarios in a stable order.
func Scenarios() []string {
	return []string{ScenarioPartition, ScenarioCrash, ScenarioCorruption, ScenarioReconfig, ScenarioStorm}
}

// ChaosProtos lists the protocol families RunChaos can deploy.
func ChaosProtos() []string { return Families() }

// ChaosConfig parameterises one chaos run.
type ChaosConfig struct {
	// Proto is the composition to deploy: olsr, dymo, aodv or zrp.
	Proto string
	// Scenario is one of the Scenario* constants (default storm).
	Scenario string
	// Nodes is the cluster size on a line topology (default 5, min 4).
	Nodes int
	// Seed drives both the medium loss process and the fault plan
	// (default 1).
	Seed int64
	// Traffic is the number of end-to-end data packets sent from the
	// first node to the last across the fault window (default 7).
	Traffic int
	// Telemetry, when non-nil, records and streams the whole run: spans,
	// engine epochs, rewire journal entries, health transitions (checked
	// every 5s of virtual time) and metric deltas (sampled every 2s). The
	// bus's epoch must be testbed.Epoch. Attaching a bus adds periodic
	// health checks, so the report's final Health covers the last window
	// rather than the whole run, and adds the recorder's evictions
	// (trace_dropped_total) to the report's metrics; nothing else
	// fingerprinted changes.
	Telemetry *telemetry.Bus
}

func (cfg *ChaosConfig) fill() error {
	if cfg.Scenario == "" {
		cfg.Scenario = ScenarioStorm
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 5
	}
	if cfg.Nodes < 4 {
		return fmt.Errorf("harness: chaos needs at least 4 nodes, got %d", cfg.Nodes)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Traffic == 0 {
		cfg.Traffic = 7
	}
	switch cfg.Proto {
	case "olsr", "dymo", "aodv", "zrp":
	default:
		return fmt.Errorf("harness: unknown chaos proto %q", cfg.Proto)
	}
	switch cfg.Scenario {
	case ScenarioPartition, ScenarioCrash, ScenarioCorruption, ScenarioReconfig, ScenarioStorm:
	default:
		return fmt.Errorf("harness: unknown chaos scenario %q", cfg.Scenario)
	}
	return nil
}

// ChaosReport is the deterministic outcome of one chaos run.
type ChaosReport struct {
	Proto    string
	Scenario string
	Seed     int64
	Nodes    int

	// Sent and Delivered count the end-to-end data workload.
	Sent      int
	Delivered int

	// Medium are the emulated-medium counters, including injected faults.
	Medium emunet.Stats
	// FaultLog is the injector's timestamped event log.
	FaultLog []string
	// TapFrames is how many control frames the sequence watcher decoded.
	TapFrames uint64
	// Reconfigured reports whether every node deployed the reconfiguration's
	// sniffer (reconfig/storm scenarios only).
	Reconfigured bool

	// Metrics is the cluster-wide counter snapshot at the end of the run
	// (framework, medium and protocol counters). Counters are deterministic
	// under the virtual clock, so they are part of the fingerprint; gauges
	// and wall-time histograms are deliberately excluded.
	Metrics map[string]uint64

	// Violations are the snapshot-invariant breaches found after the
	// convergence bound; SeqViolations are live monotonic-sequence
	// breaches observed during the run. Both empty on a healthy run.
	Violations    []invariant.Violation
	SeqViolations []invariant.Violation

	// Arch is the architecture meta-model snapshot at the end of the run
	// (mkemu -graph; uploaded as a CI artifact). Deliberately outside the
	// fingerprint: it is itself covered by the snapshot determinism tests.
	Arch inspect.Snapshot
	// Health is the final watchdog report over queues, dispatch progress,
	// route staleness and neighbour churn.
	Health inspect.Report
	// Journal is the rewire journal of the whole run: every deploy and the
	// reconfiguration's sniffer insertions appear as timestamped
	// snapshot diffs.
	Journal []inspect.Entry
}

// OK reports whether every invariant held.
func (r *ChaosReport) OK() bool {
	return len(r.Violations) == 0 && len(r.SeqViolations) == 0
}

// Fingerprint digests every deterministic field of the report; two runs
// with the same ChaosConfig must produce equal fingerprints.
func (r *ChaosReport) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%d|sent=%d got=%d|%+v|tap=%d|reconf=%v\n",
		r.Proto, r.Scenario, r.Seed, r.Nodes, r.Sent, r.Delivered, r.Medium,
		r.TapFrames, r.Reconfigured)
	for _, l := range r.FaultLog {
		fmt.Fprintln(h, l)
	}
	for _, k := range sortedMetricKeys(r.Metrics) {
		fmt.Fprintf(h, "metric %s=%d\n", k, r.Metrics[k])
	}
	for _, v := range r.Violations {
		fmt.Fprintln(h, v.String())
	}
	for _, v := range r.SeqViolations {
		fmt.Fprintln(h, v.String())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Summary renders the report for humans (mkemu -chaos).
func (r *ChaosReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos %s/%s: %d nodes, seed %d\n", r.Proto, r.Scenario, r.Nodes, r.Seed)
	fmt.Fprintf(&b, "traffic: %d/%d data packets delivered end-to-end\n", r.Delivered, r.Sent)
	fmt.Fprintf(&b, "medium:  %d tx, %d rx, %d lost, %d corrupted, %d duplicated, %d reordered\n",
		r.Medium.TxFrames, r.Medium.RxFrames, r.Medium.DroppedLoss,
		r.Medium.Corrupted, r.Medium.Duplicated, r.Medium.Reordered)
	for _, l := range r.FaultLog {
		fmt.Fprintf(&b, "fault:   %s\n", l)
	}
	if r.Reconfigured {
		fmt.Fprintf(&b, "reconfig: coordinated sniffer deployment committed on all nodes\n")
	}
	if len(r.Metrics) > 0 {
		fmt.Fprintf(&b, "metrics:\n")
		for _, k := range sortedMetricKeys(r.Metrics) {
			fmt.Fprintf(&b, "  %-28s %d\n", k, r.Metrics[k])
		}
	}
	fmt.Fprintf(&b, "invariants: %d control frames watched, %d snapshot + %d live violations\n",
		r.TapFrames, len(r.Violations), len(r.SeqViolations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "VIOLATION: %s\n", v.String())
	}
	for _, v := range r.SeqViolations {
		fmt.Fprintf(&b, "VIOLATION: %s\n", v.String())
	}
	if r.OK() {
		fmt.Fprintf(&b, "all invariants held\n")
	}
	return b.String()
}

// sortedMetricKeys returns the counter names in stable (sorted) order so
// the fingerprint and summary are deterministic.
func sortedMetricKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RunChaos executes one scripted-fault scenario and checks the invariant
// suite after the convergence bound. The returned report is deterministic:
// same config, same report.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	c, err := testbed.New(cfg.Nodes, testbed.Options{
		Seed: cfg.Seed, Metrics: reg, Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	journal := inspect.NewJournal(testbed.Epoch, cfg.Telemetry)
	for _, node := range c.Nodes {
		journal.Watch(node.Mgr)
	}
	if err := c.Line(); err != nil {
		return nil, err
	}

	monitor := inspect.NewMonitor(testbed.Epoch, reg, cfg.Telemetry)

	// Streaming telemetry: every source publishes to the bus from its
	// construction on, and two virtual-time loops (metric sampling, health
	// checks) pace the continuous streams. All of it runs on the clock
	// goroutine, so the recorded streams are as deterministic as the run
	// itself.
	var sampler *telemetry.Sampler
	if cfg.Telemetry != nil {
		sampler = telemetry.NewSampler(cfg.Telemetry, reg, c.Clock, 2*time.Second)
		sampler.Start()
		defer sampler.Stop()
		var healthTick func()
		healthTick = func() {
			monitor.Check(c.Clock.Now())
			c.Clock.AfterFunc(5*time.Second, healthTick)
		}
		c.Clock.AfterFunc(5*time.Second, healthTick)
	}

	nodes := make([]*FamilyNode, cfg.Nodes)
	byAddr := make(map[mnet.Addr]*FamilyNode, cfg.Nodes)
	for i, node := range c.Nodes {
		fn, err := DeployFamily(c, node, cfg.Proto)
		if err != nil {
			return nil, err
		}
		nodes[i] = fn
		byAddr[node.Addr] = fn
		monitor.Watch(inspect.Target{Mgr: node.Mgr, Tables: fn.RIBs})
	}

	// Live invariant: monotonic sequence numbers, watched on the medium tap.
	watch := invariant.NewSeqWatcher()
	c.Net.SetTap(watch.Observe)

	report := &ChaosReport{
		Proto:    cfg.Proto,
		Scenario: cfg.Scenario,
		Seed:     cfg.Seed,
		Nodes:    cfg.Nodes,
	}

	// Count end-to-end deliveries at the sink. Everything runs on the
	// driving goroutine (SingleThreaded model), so a plain int is safe.
	sink := c.Nodes[cfg.Nodes-1]
	sink.Sys.Filter().OnDeliver(func(src mnet.Addr, payload []byte) {
		report.Delivered++
	})

	// The fault schedule. Windows are placed so topology faults never
	// overlap, so each one's effect on routing stands alone in the report
	// (overlapping ones would compose: a link stays down while an open
	// partition or a crashed endpoint holds it):
	//   t=14s..20s   partition between the first half and the rest —
	//                spans at least one full TC interval (5s)
	//   t=14s..23s   corruption / duplication / reorder windows
	//   t=24s..30s   crash of a middle relay; traffic at t≈22s has just
	//                kicked off a route discovery through it
	//   t=16s        every node deploys a sniffer (reconfig/storm)
	// then quiet until t=60s — well past HELLO/TC intervals and route
	// hold times — before the snapshot is checked.
	plan := emunet.NewFaultPlan(cfg.Seed)
	plan.OnCrash = func(addr mnet.Addr) {
		if fn := byAddr[addr]; fn != nil {
			fn.Crash()
		}
	}
	plan.OnRestart = func(addr mnet.Addr) {
		if fn := byAddr[addr]; fn != nil {
			watch.Forget(addr) // counters may legitimately reset
			if err := fn.Restart(c.Clock.Now()); err != nil {
				panic(fmt.Sprintf("harness: chaos restart: %v", err))
			}
		}
	}

	addrs := c.Addrs()
	withPartition := cfg.Scenario == ScenarioPartition || cfg.Scenario == ScenarioReconfig || cfg.Scenario == ScenarioStorm
	withCrash := cfg.Scenario == ScenarioCrash || cfg.Scenario == ScenarioStorm
	withCorruption := cfg.Scenario == ScenarioCorruption || cfg.Scenario == ScenarioStorm
	withReconfig := cfg.Scenario == ScenarioReconfig || cfg.Scenario == ScenarioStorm

	if withPartition {
		half := cfg.Nodes / 2
		plan.Partition(14*time.Second, 20*time.Second, addrs[:half], addrs[half:])
	}
	if withCrash {
		plan.Crash(24*time.Second, 30*time.Second, addrs[cfg.Nodes/2])
	}
	if withCorruption {
		plan.CorruptFrames(14*time.Second, 22*time.Second, 0.15)
		plan.DuplicateFrames(16*time.Second, 23*time.Second, 0.2)
		plan.ReorderFrames(18*time.Second, 23*time.Second, 0.2, 4*time.Millisecond)
	}
	inj := plan.Apply(c.Net)

	if withReconfig {
		// Mid-churn (the partition is open), every node deploys a
		// monitoring sniffer at the same instant.
		c.Net.ScheduleAt(16*time.Second, func(*emunet.Network) {
			for _, node := range c.Nodes {
				sn, err := core.NewSniffer("chaos-sniffer", func(*event.Event) {})
				if err == nil {
					err = node.Mgr.Deploy(sn)
				}
				if err == nil {
					err = sn.Start()
				}
				if err != nil {
					panic(fmt.Sprintf("harness: chaos reconfig on %v: %v", node.Addr, err))
				}
			}
			report.Reconfigured = true
		})
	}

	// Warm up, then drive the data workload across the fault window: one
	// packet from the first node to the last every 3s starting at t=13s.
	// The reactive protocols answer each with a route discovery; the send
	// at t≈22s is the one the crash lands on.
	src := c.Nodes[0]
	dst := addrs[cfg.Nodes-1]
	c.Run(13 * time.Second)
	for i := 0; i < cfg.Traffic; i++ {
		if err := src.Sys.Filter().SendData(dst, []byte(fmt.Sprintf("chaos-%d", i))); err == nil {
			report.Sent++
		}
		c.Run(3 * time.Second)
	}
	// Converge: quiet time past every hold time and periodic interval.
	if left := 60*time.Second - time.Duration(13+3*cfg.Traffic)*time.Second; left > 0 {
		c.Run(left)
	}

	sampler.SampleNow() // cover the tail of the run in the metrics stream

	report.Medium = c.Net.Stats()
	report.FaultLog = inj.Log()
	report.Metrics = reg.Snapshot().Counters
	report.TapFrames = watch.Frames()
	report.SeqViolations = watch.Violations()
	report.Violations = invariant.DefaultSuite().Run(SnapshotFamilies(c, nodes))
	report.Arch = c.Snapshot()
	report.Health = monitor.Check(c.Clock.Now())
	report.Journal = journal.Entries()
	return report, nil
}
