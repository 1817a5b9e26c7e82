package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"manetkit"
)

// reconfig measures what the paper's headline mechanism charges one node
// per adaptation: on a converged 4x4 OLSR grid one interior node switches to
// DYMO and back through the public Stack facade, as every node of the
// benchmark's reconfig_switch workload does. Heap objects per half switch
// and per Rewire that changes nothing are properties of the code (the
// virtual clock is not advanced, so no timer runs in between) and gated
// exactly; the times are this host's.
func reconfig(rep *BenchReport) error {
	const trips = 200
	clk := manetkit.NewVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := manetkit.NewNetwork(clk, 1)
	stacks, err := manetkit.NewStacks(net, manetkit.Addrs(16), manetkit.StackOptions{})
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range stacks {
			s.Close()
		}
	}()
	if err := manetkit.BuildGrid(net, manetkit.Addrs(16), 4, manetkit.DefaultQuality()); err != nil {
		return err
	}
	for _, s := range stacks {
		if _, err := s.DeployOLSR(manetkit.OLSRConfig{}); err != nil {
			return err
		}
	}
	clk.Advance(30 * time.Second)

	s := stacks[5]
	toDYMO := func() error {
		if err := s.UndeployOLSR(); err != nil {
			return err
		}
		if err := s.UndeployMPR(); err != nil {
			return err
		}
		_, err := s.DeployDYMO(manetkit.DYMOConfig{})
		return err
	}
	toOLSR := func() error {
		if err := s.UndeployDYMO(); err != nil {
			return err
		}
		_, err := s.DeployOLSR(manetkit.OLSRConfig{})
		return err
	}
	// measure runs step, returning the heap objects it allocated and the
	// time it took.
	host := manetkit.RealClock()
	var before, after runtime.MemStats
	measure := func(step func() error) (allocs uint64, took time.Duration, err error) {
		runtime.ReadMemStats(&before)
		start := host.Now()
		err = step()
		took = host.Since(start)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, took, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: nobody else allocates
	steps := []func() error{toDYMO, toOLSR, func() error { s.Manager().Rewire(); return nil }}
	allocs := make([]uint64, len(steps))
	us := make([][]float64, len(steps))
	for i := -1; i < trips; i++ { // trip -1 warms maps and scratch up, uncounted
		for k, step := range steps {
			n, took, err := measure(step)
			if err != nil {
				return err
			}
			if i >= 0 {
				allocs[k] += n
				us[k] = append(us[k], float64(took.Nanoseconds())/1e3)
			}
		}
	}
	median := func(v []float64) float64 { sort.Float64s(v); return v[len(v)/2] }
	values := map[string]BenchValue{
		"switch_allocs_to_dymo": det(float64(allocs[0]/trips), "allocs"),
		"switch_allocs_to_olsr": det(float64(allocs[1]/trips), "allocs"),
		"rewire_allocs":         det(float64(allocs[2]/trips), "allocs"),
		"switch_us_to_dymo":     wall(median(us[0]), "us"),
		"switch_us_to_olsr":     wall(median(us[1]), "us"),
	}
	fmt.Printf("one node of a converged 4x4 grid, %d round trips:\n", trips)
	fmt.Printf("  OLSR -> DYMO: %4.0f heap objects, %6.1f us (median)\n", values["switch_allocs_to_dymo"].Value, values["switch_us_to_dymo"].Value)
	fmt.Printf("  DYMO -> OLSR: %4.0f heap objects, %6.1f us (median)\n", values["switch_allocs_to_olsr"].Value, values["switch_us_to_olsr"].Value)
	fmt.Printf("  Rewire with nothing changed: %.0f heap objects\n", values["rewire_allocs"].Value)
	rep.add("reconfig", values)
	return nil
}
