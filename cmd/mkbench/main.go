// Command mkbench regenerates the paper's evaluation tables and ablation
// figures (see DESIGN.md §4 for the experiment index):
//
//	mkbench -table 1           # Table 1: performance vs monolithic
//	mkbench -table 2           # Table 2: memory footprint
//	mkbench -ablation concurrency
//	mkbench -ablation variants # fisheye + power-aware (§5.1)
//	mkbench -ablation dymo     # optimised flooding + multipath (§5.2)
//	mkbench -ablation reconfig # one node's OLSR<->DYMO switch (§4.5)
//	mkbench -all
//
// With -json the measurements are also written as a machine-readable
// report, and -check compares that report against a committed baseline,
// failing (exit 1) when any deterministic value drifts outside the
// tolerance band:
//
//	mkbench -all -json bench.json
//	mkbench -ablation dymo -check cmd/mkbench/testdata/baseline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/harness"
)

func main() {
	table := flag.Int("table", 0, "paper table to regenerate (1 or 2)")
	ablation := flag.String("ablation", "", "ablation to run: concurrency, variants, dymo, hybrid, reconfig, scale")
	all := flag.Bool("all", false, "run everything (except the scale ablation, which has its own CI job)")
	jsonOut := flag.String("json", "", "also write the measurements to this file as JSON")
	check := flag.String("check", "", "compare this run against a baseline JSON report")
	tolerance := flag.Float64("tolerance", 0.01, "fractional tolerance band for -check")
	minNodesPerSec := flag.Float64("minNodesPerSec", 0, "scale ablation: fail if any cell emulates fewer node·s per wall second")
	maxAllocsPerRx := flag.Float64("maxAllocsPerRx", 0, "scale ablation: fail if any cell exceeds this many heap allocations per delivered frame")
	flag.Parse()

	if !*all && *table == 0 && *ablation == "" {
		flag.Usage()
		os.Exit(2)
	}
	report := &BenchReport{Schema: benchSchema}
	run := func(name string, fn func(*BenchReport) error) {
		fmt.Printf("== %s ==\n", name)
		if err := fn(report); err != nil {
			fmt.Fprintf(os.Stderr, "mkbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *all || *table == 1 {
		run("Table 1", table1)
	}
	if *all || *table == 2 {
		run("Table 2", table2)
	}
	if *all || *ablation == "concurrency" {
		run("Concurrency models (§4.4)", concurrency)
	}
	if *all || *ablation == "variants" {
		run("OLSR variants (§5.1)", variants)
	}
	if *all || *ablation == "dymo" {
		run("DYMO variants (§5.2)", dymoVariants)
	}
	if *all || *ablation == "hybrid" {
		run("Hybridisation (§7 extension)", hybrid)
	}
	if *all || *ablation == "reconfig" {
		run("Protocol switch (§4.5)", reconfig)
	}
	// The scale ablation is not part of -all: the 5k-node cells take long
	// enough that CI runs them as a dedicated job.
	if *ablation == "scale" {
		run("Scale (event core)", func(r *BenchReport) error {
			return scale(r, *minNodesPerSec, *maxAllocsPerRx)
		})
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err == nil {
			err = report.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d experiments to %s\n", len(report.Results), *jsonOut)
	}
	if *check != "" {
		baseline, err := loadBaseline(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkbench: %v\n", err)
			os.Exit(1)
		}
		regressions := Compare(baseline, report, *tolerance, *all)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", r)
		}
		if len(regressions) > 0 {
			os.Exit(1)
		}
		fmt.Printf("baseline check passed (%s, tolerance %.1f%%)\n", *check, 100**tolerance)
	}
}

// scale sweeps network size with OLSR and AODV live on every node — the
// thousand-node regime the event core exists for. Frame counts and
// route liveness are deterministic (virtual clock + seeds) and gated by the
// committed BENCH_scale.json baseline; throughput and allocation rate are
// host measurements gated by the absolute -minNodesPerSec / -maxAllocsPerRx
// floors, which apply to every cell, instead of relative comparison.
func scale(rep *BenchReport, minNodesPerSec, maxAllocsPerRx float64) error {
	var gateErrs []string
	for _, proto := range []string{"olsr", "aodv"} {
		for _, n := range []int{100, 1000, 5000} {
			r, err := harness.MeasureScale(harness.ScaleSpec{Protocol: proto, Nodes: n})
			if err != nil {
				return err
			}
			r.Print()
			rep.add(fmt.Sprintf("scale_%s_%d", proto, n), map[string]BenchValue{
				"tx_frames":        det(float64(r.Stats.TxFrames), "frames"),
				"rx_frames":        det(float64(r.Stats.RxFrames), "frames"),
				"rx_bytes":         det(float64(r.Stats.RxBytes), "bytes"),
				"routes":           det(float64(r.Routes), "routes"),
				"node_sec_per_sec": wall(r.NodeSecPerSec, "node·s/s"),
				"allocs_per_rx":    wall(r.AllocsPerRx, "allocs/frame"),
			})
			if minNodesPerSec > 0 && r.NodeSecPerSec < minNodesPerSec {
				gateErrs = append(gateErrs, fmt.Sprintf(
					"scale_%s_%d: %.0f node·s/s below floor %.0f", proto, n, r.NodeSecPerSec, minNodesPerSec))
			}
			if maxAllocsPerRx > 0 && r.AllocsPerRx > maxAllocsPerRx {
				gateErrs = append(gateErrs, fmt.Sprintf(
					"scale_%s_%d: %.2f allocs/rx above ceiling %.2f", proto, n, r.AllocsPerRx, maxAllocsPerRx))
			}
		}
	}
	if len(gateErrs) > 0 {
		for _, e := range gateErrs {
			fmt.Fprintf(os.Stderr, "GATE: %s\n", e)
		}
		return fmt.Errorf("%d scale gate(s) failed", len(gateErrs))
	}
	return nil
}

func hybrid(rep *BenchReport) error {
	r, err := harness.MeasureHybrid(7)
	if err != nil {
		return err
	}
	fmt.Printf("7-node line, one far discovery:\n")
	fmt.Printf("  RREQ re-broadcasts: reactive(DYMO)=%d hybrid(ZRP)=%d\n", r.ReactiveForwards, r.HybridForwards)
	fmt.Printf("  discovery+delivery: reactive=%v hybrid=%v\n",
		r.ReactiveDelay.Round(time.Millisecond), r.HybridDelay.Round(time.Millisecond))
	fmt.Printf("  zone answers=%d; in-zone send triggered %d discoveries (zone is proactive)\n",
		r.ZoneAnswers, r.NearDiscoveries)
	rep.add("hybrid", map[string]BenchValue{
		"reactive_forwards": det(float64(r.ReactiveForwards), "frames"),
		"hybrid_forwards":   det(float64(r.HybridForwards), "frames"),
		"reactive_delay":    det(ms(r.ReactiveDelay), "ms"),
		"hybrid_delay":      det(ms(r.HybridDelay), "ms"),
		"zone_answers":      det(float64(r.ZoneAnswers), "replies"),
		"near_discoveries":  det(float64(r.NearDiscoveries), "discoveries"),
	})
	return nil
}

func table1(rep *BenchReport) error {
	t, err := harness.MeasureTable1()
	if err != nil {
		return err
	}
	t.Print()
	// Message-processing times are host time per message, handler only
	// (the published row 1 is the standing benchmark's rx_table1); route
	// establishment runs on the virtual clock and is deterministic.
	rep.add("table1", map[string]BenchValue{
		"proc_olsr_mono":  wall(float64(t.ProcOLSRMono), "ns"),
		"proc_olsr_kit":   wall(float64(t.ProcOLSRKit), "ns"),
		"proc_dymo_mono":  wall(float64(t.ProcDYMOMono), "ns"),
		"proc_dymo_kit":   wall(float64(t.ProcDYMOKit), "ns"),
		"route_olsr_mono": det(ms(t.RouteOLSRMono), "ms"),
		"route_olsr_kit":  det(ms(t.RouteOLSRKit), "ms"),
		"route_dymo_mono": det(ms(t.RouteDYMOMono), "ms"),
		"route_dymo_kit":  det(ms(t.RouteDYMOKit), "ms"),
	})
	return nil
}

func table2(rep *BenchReport) error {
	t, err := harness.MeasureTable2()
	if err != nil {
		return err
	}
	t.Print()
	rep.add("table2", map[string]BenchValue{
		"mono_olsr":       wall(t.MonoOLSR, "KB"),
		"kit_olsr":        wall(t.KitOLSR, "KB"),
		"mono_dymo":       wall(t.MonoDYMO, "KB"),
		"kit_dymo":        wall(t.KitDYMO, "KB"),
		"mono_both":       wall(t.MonoBoth, "KB"),
		"kit_both":        wall(t.KitBoth, "KB"),
		"kit_both_sealed": wall(t.KitBothSealed, "KB"),
	})
	return nil
}

func concurrency(rep *BenchReport) error {
	fmt.Printf("%-26s %14s %12s\n", "model", "events/sec", "elapsed")
	values := map[string]BenchValue{}
	for _, m := range []core.Model{core.SingleThreaded, core.PerMessage, core.PerN} {
		r, err := harness.MeasureConcurrency(m, 4, 20000, 3000)
		if err != nil {
			return err
		}
		fmt.Printf("%-26s %14.0f %12s\n", r.Model, r.PerSecond, r.Elapsed.Round(time.Millisecond))
		values["events_per_sec_"+r.Model.String()] = wall(r.PerSecond, "events/s")
	}
	rep.add("concurrency", values)
	return nil
}

func variants(rep *BenchReport) error {
	fish, err := harness.MeasureFisheye(16, 4, 60*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("fisheye: TC transmissions over 60s on a 4x4 grid: %d -> %d (%.0f%% reduction)\n",
		fish.BaselineTCTx, fish.FisheyeTCTx, 100*fish.Reduction)

	pw, err := harness.MeasurePowerAware()
	if err != nil {
		return err
	}
	fmt.Printf("power-aware: drained relay selected as MPR: base=%v power-aware=%v\n",
		pw.DrainedSelectedBase, pw.DrainedSelectedPower)
	rep.add("variants", map[string]BenchValue{
		"fisheye_baseline_tc_tx":       det(float64(fish.BaselineTCTx), "frames"),
		"fisheye_tc_tx":                det(float64(fish.FisheyeTCTx), "frames"),
		"power_drained_selected_base":  det(b2f(pw.DrainedSelectedBase), "bool"),
		"power_drained_selected_power": det(b2f(pw.DrainedSelectedPower), "bool"),
	})
	return nil
}

func dymoVariants(rep *BenchReport) error {
	fl, err := harness.MeasureDYMOFlooding(8)
	if err != nil {
		return err
	}
	fmt.Printf("flooding: RREQ re-broadcasts on an 8-clique: blind=%d gossip(p=0.65)=%d mpr=%d (%.0f%% reduction blind->mpr)\n",
		fl.BlindForwards, fl.GossipForwards, fl.OptimisedForwards, 100*fl.Reduction)

	mp, err := harness.MeasureMultipath()
	if err != nil {
		return err
	}
	fmt.Printf("multipath: route discoveries across diamond link failure: base=%d multipath=%d\n",
		mp.BaseDiscoveries, mp.MultipathDiscoveries)
	rep.add("dymo", map[string]BenchValue{
		"blind_forwards":        det(float64(fl.BlindForwards), "frames"),
		"gossip_forwards":       det(float64(fl.GossipForwards), "frames"),
		"mpr_forwards":          det(float64(fl.OptimisedForwards), "frames"),
		"base_discoveries":      det(float64(mp.BaseDiscoveries), "discoveries"),
		"multipath_discoveries": det(float64(mp.MultipathDiscoveries), "discoveries"),
	})
	return nil
}
