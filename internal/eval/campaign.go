package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/harness"
	"manetkit/internal/inspect"
	"manetkit/internal/invariant"
	"manetkit/internal/system"
	"manetkit/internal/telemetry"
	"manetkit/internal/testbed"
)

// Campaign phase defaults. Warmup gives the proactive protocols time to
// converge (HELLO 2 s, TC 5 s: three TC rounds reach a diameter-7 chain);
// cooldown outlasts the 5 s route hold and packet-buffer timeouts so every
// in-flight delivery and expiry lands before the cell is measured.
const (
	DefaultWarmup   = 15 * time.Second
	DefaultCooldown = 12 * time.Second

	// campaignTraceCap sizes the per-cell recorder: large enough that no
	// span of a cell run is evicted, so path reconstruction sees every hop.
	campaignTraceCap = 1 << 17

	// LinkLoss is the per-frame loss probability of every campaign link.
	// The comparison studies run over radios that drop frames; a lossless
	// medium would pin PDR at 1.0 and measure nothing. 2% per hop compounds
	// to a realistic multi-hop delivery problem (≈13% raw loss over 7 hops)
	// that the protocols' retransmission and rediscovery machinery must
	// recover, and it makes the seed axis meaningful: each seed draws a
	// different loss realisation, which is what the confidence bands span.
	LinkLoss = 0.02
)

// linkQuality is the campaign medium: the default healthy 802.11b/g link
// with LinkLoss applied.
func linkQuality() emunet.Quality {
	q := emunet.DefaultQuality()
	q.Loss = LinkLoss
	return q
}

// Config declares one campaign: the matrix axes and the seeds each cell is
// replicated over.
type Config struct {
	// Protos are protocol families (harness.Families()); default all four.
	Protos []string
	// Densities name topology regimes (Densities()); default all three.
	Densities []string
	// Loads name traffic profiles (Loads()); default both.
	Loads []string
	// Seeds replicate every cell; confidence bands span them (default 1,2).
	Seeds []int64
	// Warmup and Cooldown bound the traffic window (defaults above).
	Warmup   time.Duration
	Cooldown time.Duration
	// ProfileDir, when non-empty, captures per-cell CPU and heap pprof
	// profiles under it and embeds top-N hot symbols in each cell's
	// result (see CellProfile). Profiles are wall-clock artifacts; the
	// behavioural metrics stay deterministic regardless.
	ProfileDir string
	// ProfileTopN bounds the hot-symbol tables (default
	// DefaultProfileTopN).
	ProfileTopN int
}

// DefaultConfig is the standing matrix CI sweeps: 4 families × 3 densities
// × 2 loads × 2 seeds = 48 cell runs.
func DefaultConfig() Config {
	return Config{
		Protos:    harness.Families(),
		Densities: []string{"sparse", "medium", "dense"},
		Loads:     []string{"cbr", "burst"},
		Seeds:     []int64{1, 2},
	}
}

func (cfg *Config) fill() error {
	if len(cfg.Protos) == 0 {
		cfg.Protos = harness.Families()
	}
	if len(cfg.Densities) == 0 {
		cfg.Densities = []string{"sparse", "medium", "dense"}
	}
	if len(cfg.Loads) == 0 {
		cfg.Loads = []string{"cbr", "burst"}
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1, 2}
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = DefaultWarmup
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.ProfileTopN == 0 {
		cfg.ProfileTopN = DefaultProfileTopN
	}
	known := make(map[string]bool)
	for _, f := range harness.Families() {
		known[f] = true
	}
	for _, p := range cfg.Protos {
		if !known[p] {
			return fmt.Errorf("eval: unknown protocol family %q", p)
		}
	}
	for _, d := range cfg.Densities {
		if _, err := DensityByName(d); err != nil {
			return err
		}
	}
	for _, l := range cfg.Loads {
		if _, err := LoadByName(l); err != nil {
			return err
		}
	}
	return nil
}

// Run executes every cell of the matrix over every seed and aggregates the
// per-seed results into confidence bands. Cells are emitted in sorted
// (proto, density, load) order regardless of the order the axes were
// given, so the report is canonical.
func Run(cfg Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rep := &Report{
		Schema:    ReportSchema,
		Protos:    append([]string(nil), cfg.Protos...),
		Densities: append([]string(nil), cfg.Densities...),
		Loads:     append([]string(nil), cfg.Loads...),
		Seeds:     append([]int64(nil), cfg.Seeds...),
	}
	sort.Strings(rep.Protos)
	sort.Strings(rep.Densities)
	sort.Strings(rep.Loads)
	for _, proto := range rep.Protos {
		for _, dname := range rep.Densities {
			density, err := DensityByName(dname)
			if err != nil {
				return nil, err
			}
			for _, lname := range rep.Loads {
				load, err := LoadByName(lname)
				if err != nil {
					return nil, err
				}
				cell := CellResult{
					Proto: proto, Density: dname, Load: lname,
					Nodes: density.Nodes, Flows: load.Flows,
				}
				runSeeds := func() error {
					for _, seed := range cfg.Seeds {
						sr, err := RunCell(proto, density, load, seed, cfg.Warmup, cfg.Cooldown)
						if err != nil {
							return fmt.Errorf("eval: cell %s/%s/%s seed %d: %w",
								proto, dname, lname, seed, err)
						}
						cell.PerSeed = append(cell.PerSeed, sr)
					}
					return nil
				}
				if cfg.ProfileDir == "" {
					if err := runSeeds(); err != nil {
						return nil, err
					}
				} else {
					base := proto + "_" + dname + "_" + lname
					p, err := profileCell(cfg.ProfileDir, base, cfg.ProfileTopN, runSeeds)
					if err != nil {
						return nil, err
					}
					cell.Profile = p
				}
				cell.aggregate()
				rep.Cells = append(rep.Cells, cell)
			}
		}
	}
	return rep, nil
}

// RunCell executes one (protocol, density, load) cell for one seed: build
// the topology, deploy the family on every node, converge, drive the
// traffic profile, then measure. The result is a pure function of the
// arguments — the determinism regression test pins this.
func RunCell(proto string, density Density, load Load, seed int64, warmup, cooldown time.Duration) (SeedResult, error) {
	return runCell(proto, density, load, seed, warmup, cooldown, nil)
}

// CaptureControlCorpus runs one cell and returns the distinct PacketBB
// bodies of the control frames it transmitted, in first-transmission
// order — real campaign traffic, harvested as seed inputs for the packetbb
// fuzz targets. max bounds the corpus size (<= 0: unbounded).
func CaptureControlCorpus(proto string, density Density, load Load, seed int64, max int) ([][]byte, error) {
	seen := make(map[string]bool)
	var corpus [][]byte
	_, err := runCell(proto, density, load, seed, DefaultWarmup, DefaultCooldown, func(f emunet.Frame) {
		body, ok := system.ControlBody(f.Payload)
		if !ok || seen[string(body)] {
			return
		}
		if max > 0 && len(corpus) >= max {
			return
		}
		seen[string(body)] = true
		corpus = append(corpus, append([]byte(nil), body...))
	})
	return corpus, err
}

// runCell is RunCell plus an optional transmission observer chained onto
// the campaign's own accounting tap.
func runCell(proto string, density Density, load Load, seed int64, warmup, cooldown time.Duration, txObs func(emunet.Frame)) (SeedResult, error) {
	bus := telemetry.New(telemetry.Config{Epoch: testbed.Epoch, RecorderCapacity: campaignTraceCap})
	c, err := testbed.New(density.Nodes, testbed.Options{
		Seed: seed, Telemetry: bus, LinkQuality: linkQuality(),
	})
	if err != nil {
		return SeedResult{}, err
	}
	defer c.Close()
	if err := density.Build(c); err != nil {
		return SeedResult{}, err
	}

	fams := make([]*harness.FamilyNode, len(c.Nodes))
	for i, node := range c.Nodes {
		if fams[i], err = harness.DeployFamily(c, node, proto); err != nil {
			return SeedResult{}, err
		}
	}

	// Live invariant checking runs for the whole cell, not only chaos
	// scenarios: the sequence watcher decodes every delivered control
	// frame, and the snapshot suite audits routing state after cooldown.
	watch := invariant.NewSeqWatcher()
	c.Net.SetTap(watch.Observe)

	// Control-overhead accounting at the transmission side (the convention
	// of the comparison literature: every control transmission costs the
	// medium, whether or not it is delivered).
	res := SeedResult{Seed: seed}
	c.Net.SetTxTap(func(f emunet.Frame) {
		switch {
		case system.IsControlFrame(f.Payload):
			res.CtrlTxFrames++
			res.CtrlTxBytes += uint64(len(f.Payload))
		case system.IsDataFrame(f.Payload):
			res.DataTxFrames++
			res.DataTxBytes += uint64(len(f.Payload))
		}
		if txObs != nil {
			txObs(f)
		}
	})

	c.Run(warmup)

	gen := newGenerator(c, load, seed)
	gen.install()
	gen.schedule()
	c.Run(load.Window() + cooldown)
	if gen.sendErr != nil {
		return SeedResult{}, gen.sendErr
	}

	res.Sent = gen.sent
	res.Delivered = gen.delivered()
	if res.Sent > 0 {
		res.PDR = float64(res.Delivered) / float64(res.Sent)
	}
	lats := gen.latencies()
	res.LatencyP50Ms = ms(percentile(lats, 0.50))
	res.LatencyP95Ms = ms(percentile(lats, 0.95))
	if n := len(lats); n > 0 {
		res.LatencyMaxMs = ms(lats[n-1])
	}
	if res.Delivered > 0 {
		res.Overhead = float64(res.CtrlTxFrames) / float64(res.Delivered)
	} else {
		res.Overhead = float64(res.CtrlTxFrames)
	}
	if total := res.CtrlTxBytes + res.DataTxBytes; total > 0 {
		res.CtrlShare = float64(res.CtrlTxBytes) / float64(total)
	}
	res.HopMean, res.PathDrops = pathStats(bus, gen)
	res.TapFrames = watch.Frames()

	violations := invariant.DefaultSuite().Run(harness.SnapshotFamilies(c, fams))
	violations = append(violations, watch.Violations()...)
	res.Violations = len(violations)
	for _, v := range violations {
		res.ViolationDetail = append(res.ViolationDetail, v.String())
	}
	return res, nil
}

// pathStats joins every delivered packet to its causal path reconstruction
// (inspect.Correlate over the cell's trace) and reports the mean hop count
// of delivered data packets plus the frame drops their paths absorbed.
// Reconstruction is cross-checked against the generator's own bookkeeping:
// only packets the generator saw delivered contribute.
func pathStats(bus *telemetry.Bus, gen *generator) (hopMean float64, drops int) {
	paths := inspect.Correlate(bus.Spans())
	var hops, matched int
	for _, p := range paths {
		if !strings.HasPrefix(p.Corr, "DATA:") {
			continue
		}
		key, ok := gen.keyOf[p.Corr]
		if !ok {
			continue
		}
		drops += p.Drops
		if _, delivered := gen.recvAt[key]; !delivered {
			continue
		}
		hops += len(p.Hops)
		matched++
	}
	if matched > 0 {
		hopMean = float64(hops) / float64(matched)
	}
	return hopMean, drops
}

// percentile returns the q-quantile of sorted durations (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
