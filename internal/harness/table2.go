package harness

import (
	"fmt"
	"runtime"

	"manetkit/internal/emunet"
	"manetkit/internal/mono"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

// Table2 holds the memory-footprint measurements of the paper's Table 2
// (kilobytes of live heap attributable to each deployment).
type Table2 struct {
	MonoOLSR      float64
	KitOLSR       float64
	MonoDYMO      float64
	KitDYMO       float64
	MonoBoth      float64 // Unik-olsrd + DYMOUM analogues side by side
	KitBoth       float64 // both protocols in one MANETKit deployment
	KitBothSealed float64 // same, after unloading the kernel machinery (§6.2 fn.3)
}

// Print renders the table in the paper's layout.
func (t Table2) Print() {
	fmt.Println("Table 2. Comparative Resource Overhead of MANETKit Protocols")
	fmt.Printf("%-24s %10s %10s %10s %10s %16s %16s %18s\n", "",
		"Mono-olsr", "MKit-OLSR", "Mono-dymo", "MKit-DYMO", "Mono olsr+dymo", "MKit OLSR+DYMO", "MKit sealed")
	fmt.Printf("%-24s %10.1f %10.1f %10.1f %10.1f %16.1f %16.1f %18.1f\n",
		"Memory Footprint (KB)",
		t.MonoOLSR, t.KitOLSR, t.MonoDYMO, t.KitDYMO, t.MonoBoth, t.KitBoth, t.KitBothSealed)
}

// heapDelta measures the live-heap growth caused by build, keeping the
// built object reachable until after measurement.
func heapDelta(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if delta < 0 {
		delta = 0
	}
	return float64(delta) / 1024
}

// MeasureTable2 builds each deployment and records its heap footprint. A
// MANETKit column is one node of FamilyCluster, composed and started the
// way every experiment and a library user deploy it; a monolithic column
// is the twin on its own NIC.
func MeasureTable2() (Table2, error) {
	var t Table2
	var buildErr error

	clk := vclock.NewVirtual(testbed.Epoch)
	monoOn := func(n int, build func(nics []*emunet.NIC) any) float64 {
		return heapDelta(func() any {
			net := emunet.New(clk, 1)
			nics := make([]*emunet.NIC, n)
			for i, addr := range emunet.Addrs(n) {
				nic, err := net.Attach(addr)
				if err != nil {
					buildErr = err
					return nil
				}
				nics[i] = nic
			}
			return build(nics)
		})
	}
	t.MonoOLSR = monoOn(1, func(nics []*emunet.NIC) any { return mono.NewOLSR(nics[0], clk, mono.OLSRConfig{}) })
	t.MonoDYMO = monoOn(1, func(nics []*emunet.NIC) any { return mono.NewDYMO(nics[0], clk, mono.DYMOConfig{}) })
	t.MonoBoth = monoOn(2, func(nics []*emunet.NIC) any {
		return []any{mono.NewOLSR(nics[0], clk, mono.OLSRConfig{}), mono.NewDYMO(nics[1], clk, mono.DYMOConfig{})}
	})

	kit := func(family string, seal bool) float64 {
		return heapDelta(func() any {
			c, nodes, err := FamilyCluster(1, family)
			if err != nil {
				buildErr = err
				return nil
			}
			if seal {
				// "Once a desired configuration has been achieved it is
				// possible to unload the OpenCom kernel to free up memory":
				// Seal drops the kernel metadata and the integrity rules.
				c.Nodes[0].Mgr.Seal()
			}
			return []any{c, nodes}
		})
	}
	t.KitOLSR = kit("olsr", false)
	t.KitDYMO = kit("dymo", false)
	// The co-deployment shares the manager, the System CF and the MPR CF,
	// which DYMO floods through: the paper's "leaner deployment" (§5.2).
	t.KitBoth = kit("olsr+dymo", false)
	t.KitBothSealed = kit("olsr+dymo", true)
	return t, buildErr
}
