package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// toyRound runs one untraced round of a workload at toy size.
func toyRound(t *testing.T, name string, seed int64) *round {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	r, err := w.run(runCtx{sz: toySizes, seed: seed, deep: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

func TestEveryWorkloadRunsAndChecksOut(t *testing.T) {
	for _, w := range workloads {
		res, err := runUntraced(w, toySizes, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, p := range res.problems {
			t.Errorf("%s: output check failed: %s", w.name, p)
		}
		if got, want := len(res.e2e.list), len(e2eSpecs); got != want {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, got, want)
		}
		for i, m := range res.e2e.list {
			if m.name != e2eSpecs[i].name || m.unit != e2eSpecs[i].unit {
				t.Errorf("%s: metric %d is %s [%s], want %s [%s]", w.name, i, m.name, m.unit, e2eSpecs[i].name, e2eSpecs[i].unit)
			}
			if m.value <= 0 || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, m.name, m.value)
			}
		}
		r := res.rounds[0]
		if r.attempted < 1 || r.failed != 0 {
			t.Errorf("%s: attempted=%d failed=%d", w.name, r.attempted, r.failed)
		}
	}
}

// Same seed, same inputs and outcomes; another seed, other inputs.
func TestSeedDeterminesTheDigest(t *testing.T) {
	for _, w := range workloads {
		a, b, c := toyRound(t, w.name, 1), toyRound(t, w.name, 1), toyRound(t, w.name, 2)
		if d := sameDigest(w.name, a.digest, b.digest); len(d) > 0 {
			t.Errorf("%s: two runs of seed 1 differ: %v", w.name, d)
		}
		if d := sameDigest(w.name, a.digest, c.digest); len(d) == 0 {
			t.Errorf("%s: seeds 1 and 2 produced the same digest", w.name)
		}
	}
}

func TestDigestMismatchFailsTheRun(t *testing.T) {
	w, _ := findWorkload("dymo_cbr")
	res, err := runUntraced(w, toySizes, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := map[string]int64{}
	for k, v := range res.rounds[0].digest {
		good[k] = v
	}
	res.checkExpected(expectedDigests{"dymo_cbr": {"1": good}})
	if !res.correct() {
		t.Fatalf("matching digest reported as failure: %v", res.problems)
	}
	good["app.delivered"]++
	res.checkExpected(expectedDigests{"dymo_cbr": {"1": good}})
	if res.correct() {
		t.Fatal("a wrong expected.json entry did not fail the run")
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// lastLine parses the JSON object a run prints last.
func lastLine(t *testing.T, out string) (correct bool, metrics map[string]struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if line.Attempted < 1 {
		t.Errorf("attempted = %d", line.Attempted)
	}
	return line.Correct, line.Metrics
}

// Every metric BENCHMARK.json names is printed exactly once, with its unit,
// by the command line the driver uses — end-to-end metrics untraced,
// per-layer metrics traced — and nothing else is.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	if len(b.EndToEnd) != len(e2eSpecs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(b.EndToEnd), len(e2eSpecs))
	}
	for i, m := range b.EndToEnd {
		s := e2eSpecs[i]
		better := "lower"
		if s.higher {
			better = "higher"
		}
		if m.Name != s.name || m.Unit != s.unit || m.Better != better || m.Bound != s.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, s)
		}
	}
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, b.Workloads[i].Name, w.name)
		}
		for _, traced := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", "0", "--trace", traced, "--size", "toy", "--trace-out", traceOut}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.name, traced, code, stdout.String(), stderr.String())
			}
			correct, got := lastLine(t, stdout.String())
			if !correct {
				t.Errorf("%s trace=%s: correct=false", w.name, traced)
			}
			want := map[string]string{}
			if traced == "0" {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := got[name]
				if !ok {
					t.Errorf("%s trace=%s: %s not in the result line", w.name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%s: %s has unit %q, BENCHMARK.json says %q", w.name, traced, name, m.Unit, unit)
				}
				if n := strings.Count(stdout.String(), "\n"+name+" "); n != 1 {
					t.Errorf("%s trace=%s: %s printed %d times in the table", w.name, traced, name, n)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%s: result line has %s, which BENCHMARK.json does not name", w.name, traced, name)
				}
				if !metricName.MatchString(name) {
					t.Errorf("metric name %q is malformed", name)
				}
			}
		}
	}
}

func TestTraceIsWellFormed(t *testing.T) {
	w, _ := findWorkload("reconfig_switch")
	out := filepath.Join(t.TempDir(), "trace.json")
	res, err := runTraced(w, toySizes, options{seed: 1, traceOut: out})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		t.Errorf("output check failed: %s", p)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if p := checkSpans(doc.Spans); len(p) > 0 {
		t.Errorf("trace is malformed: %v", p)
	}
	seen := map[string]int{}
	for _, s := range doc.Spans {
		seen[s.Name]++
		if s.Workload != "reconfig_switch" {
			t.Errorf("span %s carries workload %q", s.Name, s.Workload)
		}
	}
	for _, name := range []string{"setup.build", "setup.deploy", "setup.converge", "measure", "measure.advance", "reconfig.undeploy", "reconfig.deploy", "verify",
		"isolate.emunet", "isolate.vclock", "isolate.packetbb", "isolate.core", "isolate.system", "isolate.handlers", "isolate.olsr", "isolate.route", "isolate.mono"} {
		if seen[name] == 0 {
			t.Errorf("no %s span", name)
		}
	}
	if want := 2 * toySizes.rcCycles * toySizes.rcCols * toySizes.rcRows; seen["reconfig.deploy"] != want {
		t.Errorf("%d reconfig.deploy spans, want %d", seen["reconfig.deploy"], want)
	}
}

// On rx_table1 the isolated layer costs must add up to what a replayed
// frame cost end to end, to within a quarter either way.
func TestRxLayersExplainTheFrameCost(t *testing.T) {
	w, _ := findWorkload("rx_table1")
	sz := toySizes
	sz.rxCols, sz.rxRows, sz.rxRecord, sz.rxInstances, sz.isolateIters = 5, 5, 40e9, 6, 2000
	// A burst of interference on the host during one of the isolates
	// throws the sum off; it does not do so five times running.
	var seen []float64
	for attempt := 0; attempt < 5; attempt++ {
		res, err := runTraced(w, sz, options{seed: 1, traceOut: filepath.Join(t.TempDir(), "trace.json")})
		if err != nil {
			t.Fatal(err)
		}
		if r := res.layers.get("bench.trace_overhead_ratio"); r <= 0 {
			t.Errorf("bench.trace_overhead_ratio = %v", r)
		}
		r := res.layers.get("bench.residual_share")
		if math.Abs(r) <= 0.25 {
			return
		}
		seen = append(seen, r)
	}
	t.Errorf("bench.residual_share = %.3f in five attempts, want within ±0.25", seen)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
