// Adaptive: the complete closed-loop reconfigurable system the paper
// sketches in §4.5 — MANETKit supplies context monitoring (the concentrator)
// and reconfiguration enactment, and leaves the decision making to the
// software above it. Here that software is this program: it subscribes to
// the draining node's POWER_STATUS events and makes two threshold
// decisions:
//
//   - low battery  -> enable power-aware OLSR (relay selection spares the
//     draining node);
//   - battery critical -> enable fisheye (cut long-range TC overhead).
//
// The node's battery drains in simulation, and the reconfigurations land
// without any protocol restart.
package main

import (
	"fmt"
	"log"
	"time"

	"manetkit"
)

// threshold is one decision: enact once the battery reads below the mark.
type threshold struct {
	name  string
	below float64
	why   string
	enact func() error
	fired bool
}

func main() {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := manetkit.NewVirtualClock(start)
	net := manetkit.NewNetwork(clk, 1)
	addrs := manetkit.Addrs(4)

	// Node 1 runs on a draining battery: 2%/s idle drain.
	var stacks []*manetkit.Stack
	for i, a := range addrs {
		opts := manetkit.StackOptions{}
		if i == 0 {
			opts.Battery = manetkit.NewBattery(1.0, 0.02, 0, clk.Now())
		}
		s, err := manetkit.NewStack(net, a, opts)
		if err != nil {
			log.Fatal(err)
		}
		stacks = append(stacks, s)
	}
	defer func() {
		for _, s := range stacks {
			s.Close()
		}
	}()
	if err := manetkit.BuildLine(net, addrs, manetkit.DefaultQuality()); err != nil {
		log.Fatal(err)
	}
	for _, s := range stacks {
		if _, err := s.DeployOLSR(manetkit.OLSRConfig{}); err != nil {
			log.Fatal(err)
		}
	}

	// The decision making, on the draining node.
	s0 := stacks[0]
	decisions := []*threshold{
		{name: "low-battery->power-aware", below: 0.6, why: "enabling power-aware OLSR (battery low)",
			enact: func() error { return s0.OLSRUnit().EnablePowerAware() }},
		{name: "critical-battery->fisheye", below: 0.3, why: "enabling fisheye (battery critical)",
			enact: func() error { return s0.EnableFisheye(nil) }},
	}
	battery := 1.0
	var firings []string
	s0.SubscribeContext("POWER_STATUS", func(ev *manetkit.Event) {
		if ev.Power == nil {
			return
		}
		battery = ev.Power.Fraction
		for _, d := range decisions {
			if d.fired || battery >= d.below {
				continue
			}
			d.fired = true
			fmt.Printf("[%v] rule fired: %s\n", clk.Now().Sub(start), d.why)
			status := "ok"
			if err := d.enact(); err != nil {
				status = err.Error()
			}
			firings = append(firings, fmt.Sprintf("%s at %v (%s)", d.name, clk.Now().Format("15:04:05"), status))
		}
	})

	fmt.Println("running: node 1's battery drains at 2%/s; policy watches POWER_STATUS")
	for i := 0; i < 8; i++ {
		clk.Advance(5 * time.Second)
		fmt.Printf("  t+%2ds battery=%3.0f%% power-aware=%v fisheye-interposed=%v\n",
			(i+1)*5, 100*battery, s0.OLSRUnit().PowerAware(), fisheyeOn(s0))
	}

	fmt.Println("\npolicy firing log:")
	for _, f := range firings {
		fmt.Println("  " + f)
	}
}

func fisheyeOn(s *manetkit.Stack) bool {
	inter, _ := s.Manager().Chain("TC_OUT")
	return len(inter) > 0
}
