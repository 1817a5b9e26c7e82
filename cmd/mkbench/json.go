package main

// Machine-readable benchmark output (-json) and the regression checker
// that CI runs against the committed baseline. Every measurement becomes a
// named BenchValue; values marked Deterministic are pure functions of the
// virtual clock and seed (counts, virtual-time delays, reductions) and
// must reproduce within the tolerance band on any host, while wall-time
// and heap measurements are recorded for trending but never gate CI.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// benchSchema versions the JSON layout; bump on incompatible change.
const benchSchema = 1

// BenchValue is one measured number.
type BenchValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Deterministic marks values that reproduce exactly for the same
	// seed (virtual-clock time, event counts) as opposed to wall-clock
	// timings and heap sizes, which vary with the host.
	Deterministic bool `json:"deterministic"`
}

// BenchResult groups the values of one experiment.
type BenchResult struct {
	Name   string                `json:"name"`
	Values map[string]BenchValue `json:"values"`
}

// BenchReport is the full -json document.
type BenchReport struct {
	Schema  int           `json:"schema"`
	Results []BenchResult `json:"results"`
}

// add appends one experiment's values, keeping Results sorted by name so
// the emitted JSON is stable.
func (r *BenchReport) add(name string, values map[string]BenchValue) {
	r.Results = append(r.Results, BenchResult{Name: name, Values: values})
	sort.Slice(r.Results, func(i, j int) bool { return r.Results[i].Name < r.Results[j].Name })
}

// result returns the named experiment, or nil.
func (r *BenchReport) result(name string) *BenchResult {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// gated reports whether the experiment holds a value Compare checks.
func (r BenchResult) gated() bool {
	for _, v := range r.Values {
		if v.Deterministic {
			return true
		}
	}
	return false
}

// WriteJSON emits the report with stable formatting.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchReport parses a -json document.
func ReadBenchReport(rd io.Reader) (*BenchReport, error) {
	var r BenchReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("mkbench: parse report: %w", err)
	}
	if r.Schema != benchSchema {
		return nil, fmt.Errorf("mkbench: report schema %d, want %d", r.Schema, benchSchema)
	}
	return &r, nil
}

// loadBaseline reads a committed baseline file.
func loadBaseline(path string) (*BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBenchReport(f)
}

// Compare checks current against baseline: every deterministic baseline
// value must exist in current and agree within the fractional tolerance
// band. A complete run (-all) must produce every baseline experiment that
// holds a deterministic value; otherwise the run may cover a subset
// (-table, -ablation) and experiments absent from it are skipped.
// Non-deterministic values are never compared. The returned strings
// describe each regression; empty means the band held.
func Compare(baseline, current *BenchReport, tol float64, complete bool) []string {
	var regressions []string
	for _, base := range baseline.Results {
		cur := current.result(base.Name)
		if cur == nil {
			if complete && base.gated() {
				regressions = append(regressions, fmt.Sprintf("%s: missing from current report", base.Name))
			}
			continue
		}
		keys := make([]string, 0, len(base.Values))
		for k := range base.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv := base.Values[k]
			if !bv.Deterministic {
				continue
			}
			cv, ok := cur.Values[k]
			if !ok {
				regressions = append(regressions,
					fmt.Sprintf("%s/%s: missing from current report", base.Name, k))
				continue
			}
			if !withinTolerance(bv.Value, cv.Value, tol) {
				regressions = append(regressions,
					fmt.Sprintf("%s/%s: baseline %g%s, got %g%s (tolerance %.1f%%)",
						base.Name, k, bv.Value, bv.Unit, cv.Value, cv.Unit, 100*tol))
			}
		}
	}
	return regressions
}

// withinTolerance reports |cur-base| <= tol*|base|, with an absolute
// epsilon so a zero baseline tolerates only zero.
func withinTolerance(base, cur, tol float64) bool {
	diff := math.Abs(cur - base)
	if diff == 0 {
		return true
	}
	return diff <= tol*math.Abs(base)
}

// det and wall build BenchValues tersely.
func det(v float64, unit string) BenchValue {
	return BenchValue{Value: v, Unit: unit, Deterministic: true}
}
func wall(v float64, unit string) BenchValue { return BenchValue{Value: v, Unit: unit} }

// ms converts a duration for reporting.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// b2f encodes a boolean measurement as 0/1.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
