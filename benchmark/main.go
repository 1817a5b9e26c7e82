// Command benchmark is the repository's standing benchmark: four workloads,
// each measured end to end (untraced) and layer by layer (traced), with the
// MANETKit compositions set against their monolithic twins.
//
//	go run . -workload olsr_flood -seed 1 -seconds 12 -trace 0
//
// builds the inputs from the seed, runs the workload's fixed work in rounds
// until -seconds of measuring has been done, checks the outputs, prints
// every metric by name with its unit, and ends with one JSON line. See
// README.md for what each workload and metric is for.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
)

//go:embed expected.json
var expectedJSON []byte

// expectedDigests is expected.json: workload → seed → digest.
type expectedDigests map[string]map[string]map[string]int64

func loadExpected() (expectedDigests, error) {
	var e expectedDigests
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	aa        int
	size      string
	traceOut  string
	updateExp string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "olsr_flood | dymo_cbr | reconfig_switch | rx_table1 | all")
	fs.Int64Var(&o.seed, "seed", 1, "seed for link loss, flow endpoints and recordings")
	fs.Float64Var(&o.seconds, "seconds", 12, "wall seconds of measured phase to accumulate (whole rounds)")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
	fs.IntVar(&o.aa, "aa", 0, "A/A mode: two interleaved sets of this many runs per workload")
	fs.StringVar(&o.size, "size", "full", "full | toy")
	fs.StringVar(&o.traceOut, "trace-out", ".bench_build/trace.json", "where the traced run writes its spans")
	fs.StringVar(&o.updateExp, "update-expected", "", "write the seed's digests to this expected.json instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz := fullSizes
	switch o.size {
	case "full":
	case "toy":
		sz = toySizes
	default:
		fmt.Fprintf(stderr, "benchmark: unknown -size %q\n", o.size)
		return 2
	}
	var todo []workload
	if o.workload == "all" {
		todo = workloads
	} else if w, ok := findWorkload(o.workload); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown -workload %q\n", o.workload)
		return 2
	}
	expected, err := loadExpected()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "# manetkit benchmark: size=%s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
		o.size, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))

	if o.aa > 0 {
		return runAA(todo, sz, o, stdout, stderr)
	}
	code := 0
	for _, w := range todo {
		var res *result
		if o.trace != 0 {
			res, err = runTraced(w, sz, o)
		} else {
			res, err = runUntraced(w, sz, o.seed, o.seconds)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if o.updateExp != "" {
			if err := updateExpected(o.updateExp, expected, res); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		} else if o.size == "full" {
			res.checkExpected(expected)
		}
		res.print(stdout, o.trace != 0)
		if !res.correct() {
			code = 1
		}
	}
	return code
}

// result is one run of one workload: its rounds and the metrics derived
// from them.
type result struct {
	workload string
	seed     int64
	rounds   []*round
	e2e      *metricSet
	layers   *metricSet // traced runs only
	info     *metricSet // workload-specific outcomes, printed but not part of the JSON line
	problems []string
}

func (res *result) correct() bool { return len(res.problems) == 0 }

// runUntraced repeats the workload's fixed work until the measured phases
// add up to the requested wall time, then derives the end-to-end metrics.
func runUntraced(w workload, sz sizes, seed int64, seconds float64) (*result, error) {
	res := &result{workload: w.name, seed: seed}
	cal := newCalibrator()
	measured := 0.0
	for len(res.rounds) == 0 || measured < seconds {
		r, err := w.run(runCtx{sz: sz, seed: seed, cal: cal, deep: len(res.rounds) == 0})
		if err != nil {
			return nil, err
		}
		res.rounds = append(res.rounds, r)
		measured += r.measured.Seconds()
	}
	res.finish()
	return res, nil
}

// finish derives the metrics and gathers the output-check failures: those
// each round found, plus any disagreement between rounds, which all ran the
// same seed and must have produced the same simulated outcome.
func (res *result) finish() {
	first := res.rounds[0]
	for i, r := range res.rounds {
		res.problems = append(res.problems, r.problems...)
		if i > 0 {
			res.problems = append(res.problems, sameDigest(fmt.Sprintf("%s: round %d differs from round 1", res.workload, i+1), r.digest, first.digest)...)
		}
	}
	res.e2e = endToEnd(res.rounds)
	res.info = infoMetrics(res.rounds)
}

// checkExpected compares the run's digest with the committed one for its
// (workload, seed), when there is one.
func (res *result) checkExpected(exp expectedDigests) {
	want, ok := exp[res.workload][strconv.FormatInt(res.seed, 10)]
	if !ok {
		return
	}
	res.problems = append(res.problems, sameDigest(res.workload+": digest differs from expected.json", res.rounds[0].digest, want)...)
}

func updateExpected(path string, exp expectedDigests, res *result) error {
	if exp[res.workload] == nil {
		exp[res.workload] = map[string]map[string]int64{}
	}
	exp[res.workload][strconv.FormatInt(res.seed, 10)] = res.rounds[0].digest
	data, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// print writes the human-readable tables and, last, the one-line JSON
// object the driver parses: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func (res *result) print(w io.Writer, traced bool) {
	var attempted, failed int
	var measured float64
	for _, r := range res.rounds {
		attempted += r.attempted
		failed += r.failed
		measured += r.measured.Seconds()
	}
	fmt.Fprintf(w, "== %s seed=%d rounds=%d measured=%.2fs attempted=%d failed=%d\n",
		res.workload, res.seed, len(res.rounds), measured, attempted, failed)
	for i, r := range res.rounds {
		fmt.Fprintf(w, "   round %d: setup %.3fs (wall %.3fs); measured %.3fs (wall %.3fs, process cpu %.3fs, host speed %.3f, gc %d)\n",
			i+1, r.setup.cal().Seconds(), r.setup.wall.Seconds(), r.host.cal().Seconds(), r.host.wall.Seconds(), r.host.cpu.Seconds(), r.host.speed, r.host.numGC)
	}
	res.e2e.print(w, "end-to-end (untraced rounds; reconfig_us_p50 over "+strconv.Itoa(reconfigSamples(res.rounds))+" samples)")
	out := res.e2e
	if traced {
		res.layers.print(w, "per-layer (traced round)")
		out = res.layers
	} else {
		res.info.print(w, "workload outcomes")
	}
	for _, n := range res.rounds[0].notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), attempted, failed, map[string]mv{}}
	for _, m := range out.list {
		line.Metrics[m.name] = mv{m.value, m.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	fmt.Fprintf(w, "%s\n", data)
}

func reconfigSamples(rounds []*round) int {
	n := 0
	for _, r := range rounds {
		n += len(r.reconfigUs)
	}
	return n
}

// infoMetrics are the outcomes only some workloads have (delivery, data
// latency, the kit/mono split). They are shown on every run; the traced run
// also reports them among the per-layer metrics, where the driver keeps
// them.
func infoMetrics(rounds []*round) *metricSet {
	ms := &metricSet{}
	first := rounds[0]
	if a := first.app; a.sent > 0 {
		var usPer []float64
		for _, r := range rounds {
			usPer = append(usPer, ratio(float64(r.host.cal().Microseconds()), float64(r.app.delivered)))
		}
		ms.add("app.delivered_share", "ratio", ratio(float64(a.delivered), float64(a.sent)))
		ms.add("app.data_latency_ms_p50", "ms", float64(a.latP50Us)/1e3)
		ms.add("app.data_latency_ms_p95", "ms", float64(a.latP95Us)/1e3)
		ms.add("app.route_setup_ms_p50", "ms", float64(a.routeSetupP50Us)/1e3)
		ms.add("app.ctrl_tx_per_delivered", "ratio", ratio(float64(first.counts.sys.CtrlSent), float64(a.delivered)))
		ms.add("app.us_per_delivered", "us", median(usPer))
		if a.gapSamples > 0 {
			ms.add("app.gap_to_dymo_ms_p50", "ms", float64(a.gapToDymoP50Us)/1e3)
			ms.add("app.gap_to_olsr_ms_p50", "ms", float64(a.gapToOlsrP50Us)/1e3)
		}
	}
	if first.rxStats != nil {
		for _, fam := range []string{"olsr", "dymo"} {
			var kit, mon, ratios []float64
			for _, r := range rounds {
				k, m := r.rxStats.kitNs[fam], r.rxStats.monoNs[fam]
				kit, mon, ratios = append(kit, k), append(mon, m), append(ratios, ratio(k, m))
			}
			ms.add("bench.kit_"+fam+"_ns_per_msg", "ns", median(kit))
			ms.add("mono."+fam+"_ns_per_msg", "ns", median(mon))
			ms.add("bench.kit_mono_ratio_"+fam, "ratio", median(ratios))
		}
	}
	return ms
}
