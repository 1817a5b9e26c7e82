// Variants: the paper's fine-grained dynamic reconfigurations (§5), all
// applied to a live network without redeploying the protocols.
//
//  1. Fisheye OLSR — a component that requires and provides TC_OUT is
//     deployed, and the Framework Manager automatically interposes it in
//     the TC_OUT path; undeploying it heals the path.
//  2. Power-aware OLSR — the MPR calculator component is swapped for the
//     battery-weighing version, and a ResidualPower handler is plugged in.
//  3. Multipath DYMO — the RE and RERR handler components are replaced
//     under quiescence; a single discovery then yields link-disjoint
//     paths, and a link break fails over with no new discovery.
package main

import (
	"fmt"
	"log"
	"time"

	"manetkit"
)

func main() {
	clk := manetkit.NewVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := manetkit.NewNetwork(clk, 1)

	// Diamond topology: 1-2-4 and 1-3-4; an extra tail 4-5 for TC traffic.
	addrs := manetkit.Addrs(5)
	stacks, err := manetkit.NewStacks(net, addrs, manetkit.StackOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, s := range stacks {
			s.Close()
		}
	}()
	q := manetkit.DefaultQuality()
	for _, pair := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}, {3, 4}} {
		if err := net.SetLink(addrs[pair[0]], addrs[pair[1]], q); err != nil {
			log.Fatal(err)
		}
	}
	for _, s := range stacks {
		if _, err := s.DeployOLSR(manetkit.OLSRConfig{}); err != nil {
			log.Fatal(err)
		}
		if _, err := s.DeployDYMO(manetkit.DYMOConfig{}); err != nil {
			log.Fatal(err)
		}
	}
	clk.Advance(20 * time.Second)
	fmt.Println("baseline: OLSR+DYMO deployed on 5 nodes (diamond + tail)")

	// --- 1. Fisheye ---------------------------------------------------
	fmt.Println("\n[1] fisheye OLSR: deploy the TC_OUT interposer on node 4")
	if err := stacks[3].EnableFisheye([]uint8{1, 255}); err != nil {
		log.Fatal(err)
	}
	inter, _ := stacks[3].Manager().Chain("TC_OUT")
	fmt.Printf("    TC_OUT chain on node 4 now runs through: %v\n", inter)
	clk.Advance(20 * time.Second)
	if err := stacks[3].DisableFisheye(); err != nil {
		log.Fatal(err)
	}
	inter, _ = stacks[3].Manager().Chain("TC_OUT")
	fmt.Printf("    after removal the chain is direct again (interposers: %d)\n", len(inter))

	// --- 2. Power-aware OLSR -------------------------------------------
	fmt.Println("\n[2] power-aware OLSR: swap the MPR calculator on node 1")
	o := stacks[0].OLSRUnit()
	fmt.Printf("    calculator before: %s\n", stacks[0].MPRUnit().CalculatorName())
	if err := o.EnablePowerAware(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    calculator after:  %s (ResidualPower handler plugged, tuple requires POWER_STATUS)\n",
		stacks[0].MPRUnit().CalculatorName())
	clk.Advance(10 * time.Second)
	if err := o.DisablePowerAware(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    reverted to:       %s\n", stacks[0].MPRUnit().CalculatorName())

	// --- 3. Multipath DYMO ---------------------------------------------
	fmt.Println("\n[3] multipath DYMO: replace the RE/RERR handlers on every node")
	for _, s := range stacks {
		if err := s.DYMOUnit().EnableMultipath(2); err != nil {
			log.Fatal(err)
		}
	}
	// Let the proactive routes age out so DYMO discovers its own. (OLSR is
	// undeployed here to keep the FIB reactive-only for the demo.) The
	// shared MPR flooder is also detached: multipath mining needs the
	// duplicate RREQs that optimised flooding deliberately suppresses —
	// the two variants trade off against each other.
	for _, s := range stacks {
		if err := s.UndeployOLSR(); err != nil {
			log.Fatal(err)
		}
		s.DYMOUnit().SetFlooder(nil)
	}
	clk.Advance(20 * time.Second)

	d := stacks[0].DYMOUnit()
	if err := stacks[0].SendData(addrs[3], []byte("multipath probe")); err != nil {
		log.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if e, ok := d.Routes().Get(addrs[3]); ok {
		fmt.Printf("    one discovery yielded %d link-disjoint paths to %v:\n", len(e.Paths), addrs[3])
		for _, p := range e.Paths {
			fmt.Printf("      via %v (%d hops)\n", p.NextHop, p.Metric)
		}
	}
	before := d.State().Stats().Discoveries
	net.CutLink(addrs[0], addrs[1])
	if err := stacks[0].SendData(addrs[3], []byte("after break")); err != nil {
		log.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if _, p, err := d.Routes().Lookup(addrs[3]); err == nil {
		fmt.Printf("    after breaking 1-2: failover to via %v, discoveries %d -> %d (no re-discovery)\n",
			p.NextHop, before, d.State().Stats().Discoveries)
	}
}
