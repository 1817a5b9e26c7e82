package main

import (
	"bytes"
	"strings"
	"testing"
)

// syntheticReport builds a small report with one deterministic and one
// wall-clock value.
func syntheticReport(detVal, wallVal float64) *BenchReport {
	r := &BenchReport{Schema: benchSchema}
	r.add("exp", map[string]BenchValue{
		"count":  det(detVal, "frames"),
		"timing": wall(wallVal, "ms"),
	})
	return r
}

func TestCompareTolerance(t *testing.T) {
	base := syntheticReport(100, 5)
	cases := []struct {
		name    string
		current *BenchReport
		tol     float64
		want    int
	}{
		{"identical", syntheticReport(100, 5), 0, 0},
		{"within band", syntheticReport(100.5, 5), 0.01, 0},
		{"outside band", syntheticReport(102, 5), 0.01, 1},
		{"wall drift ignored", syntheticReport(100, 500), 0.01, 0},
		{"zero tolerance exact", syntheticReport(100.0001, 5), 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Compare(base, tc.current, tc.tol)
			if len(got) != tc.want {
				t.Fatalf("Compare() = %v, want %d regressions", got, tc.want)
			}
		})
	}
}

func TestCompareMissingValue(t *testing.T) {
	base := syntheticReport(100, 5)
	current := &BenchReport{Schema: benchSchema}
	current.add("exp", map[string]BenchValue{"timing": wall(5, "ms")})
	got := Compare(base, current, 0.01)
	if len(got) != 1 || !strings.Contains(got[0], "missing") {
		t.Fatalf("Compare() = %v, want one missing-value regression", got)
	}
	// A whole experiment absent from current is a subset run, not a
	// regression.
	if got := Compare(base, &BenchReport{Schema: benchSchema}, 0.01); len(got) != 0 {
		t.Fatalf("Compare() on subset run = %v, want none", got)
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	rep := &BenchReport{Schema: benchSchema}
	if err := dymoVariants(rep); err != nil {
		t.Fatalf("dymoVariants: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	parsed, err := ReadBenchReport(&buf)
	if err != nil {
		t.Fatalf("ReadBenchReport: %v", err)
	}
	if regs := Compare(rep, parsed, 0); len(regs) != 0 {
		t.Fatalf("round trip changed values: %v", regs)
	}
	if regs := Compare(parsed, rep, 0); len(regs) != 0 {
		t.Fatalf("round trip changed values (reverse): %v", regs)
	}
}

func TestBadSchemaRejected(t *testing.T) {
	if _, err := ReadBenchReport(strings.NewReader(`{"schema": 99, "results": []}`)); err == nil {
		t.Fatal("ReadBenchReport accepted wrong schema")
	}
}

// TestAgainstCommittedBaseline re-measures the deterministic experiments
// and checks them against testdata/baseline.json — the CI benchmark
// regression gate. Short mode runs the two fastest experiment families.
func TestAgainstCommittedBaseline(t *testing.T) {
	baseline, err := loadBaseline("testdata/baseline.json")
	if err != nil {
		t.Fatalf("loadBaseline: %v", err)
	}
	current := &BenchReport{Schema: benchSchema}
	collectors := []struct {
		name string
		fn   func(*BenchReport) error
	}{
		{"dymo", dymoVariants},
		{"hybrid", hybrid},
	}
	if !testing.Short() {
		collectors = append(collectors,
			struct {
				name string
				fn   func(*BenchReport) error
			}{"variants", variants},
			struct {
				name string
				fn   func(*BenchReport) error
			}{"table1", func(r *BenchReport) error { return table1(r, 50) }},
			struct {
				name string
				fn   func(*BenchReport) error
			}{"dispatch", dispatch},
			struct {
				name string
				fn   func(*BenchReport) error
			}{"reconfig", reconfig},
		)
	}
	for _, c := range collectors {
		if err := c.fn(current); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if regs := Compare(baseline, current, 0.01); len(regs) != 0 {
		for _, r := range regs {
			t.Errorf("REGRESSION: %s", r)
		}
	}
}
