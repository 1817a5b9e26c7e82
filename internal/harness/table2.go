package harness

import (
	"fmt"
	"runtime"
	"runtime/pprof"

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
	// Medium is the emulated medium with one NIC attached, which every
	// column above includes: a column less Medium is the deployment alone.
	Medium float64
}

// Print renders the table in the paper's layout.
func (t Table2) Print() {
	fmt.Println("Table 2. Comparative Resource Overhead of MANETKit Protocols")
	fmt.Printf("%-24s %10s %10s %10s %10s %16s %16s %18s %8s\n", "",
		"Mono-olsr", "MKit-OLSR", "Mono-dymo", "MKit-DYMO", "Mono olsr+dymo", "MKit OLSR+DYMO", "MKit sealed", "Medium")
	fmt.Printf("%-24s %10.1f %10.1f %10.1f %10.1f %16.1f %16.1f %18.1f %8.1f\n",
		"Memory Footprint (KB)",
		t.MonoOLSR, t.KitOLSR, t.MonoDYMO, t.KitDYMO, t.MonoBoth, t.KitBoth, t.KitBothSealed, t.Medium)
}

// heapDelta measures the live-heap growth caused by build, keeping the
// built object reachable until after measurement. The runtime allocates
// about 5 KB of heap for each OS thread it starts, at moments of its own
// choosing; a window in which one started is measured again.
func heapDelta(build func() any) float64 {
	threads := pprof.Lookup("threadcreate")
	var delta int64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		n := threads.Count()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		keep := build()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		delta = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if threads.Count() == n {
			break
		}
	}
	if delta < 0 {
		delta = 0
	}
	return float64(delta) / 1024
}

// MeasureTable2 builds each deployment and records its heap footprint. A
// MANETKit column is one node of FamilyCluster, composed and started the
// way every experiment and a library user deploy it; a monolithic column
// is the twin, started, on its own NIC and clock.
func MeasureTable2() (Table2, error) {
	var t Table2
	var buildErr error

	// Each twin is started, as the kit columns are, on its own clock so
	// its timers are counted with it.
	type twin interface{ Start() }
	monoOn := func(n int, build func(nics []*emunet.NIC, clk vclock.Clock) []twin) float64 {
		return heapDelta(func() any {
			clk := vclock.NewVirtual(testbed.Epoch)
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
			twins := build(nics, clk)
			for _, tw := range twins {
				tw.Start()
			}
			return twins
		})
	}

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
				// Seal drops the CFs' integrity rules.
				c.Nodes[0].Mgr.Seal()
			}
			return []any{c, nodes}
		})
	}
	// The first build of the run pays one-off runtime and package
	// initialisation; building and discarding one deployment first keeps
	// that out of whichever column comes first.
	kit("olsr+dymo", false)
	t.MonoOLSR = monoOn(1, func(nics []*emunet.NIC, clk vclock.Clock) []twin {
		return []twin{mono.NewOLSR(nics[0], clk, mono.OLSRConfig{})}
	})
	t.MonoDYMO = monoOn(1, func(nics []*emunet.NIC, clk vclock.Clock) []twin {
		return []twin{mono.NewDYMO(nics[0], clk, mono.DYMOConfig{})}
	})
	t.MonoBoth = monoOn(2, func(nics []*emunet.NIC, clk vclock.Clock) []twin {
		return []twin{mono.NewOLSR(nics[0], clk, mono.OLSRConfig{}), mono.NewDYMO(nics[1], clk, mono.DYMOConfig{})}
	})
	t.KitOLSR = kit("olsr", false)
	t.KitDYMO = kit("dymo", false)
	// The co-deployment shares the manager, the System CF and the MPR CF,
	// which DYMO floods through: the paper's "leaner deployment" (§5.2).
	t.KitBoth = kit("olsr+dymo", false)
	t.KitBothSealed = kit("olsr+dymo", true)
	t.Medium = heapDelta(func() any {
		nic, err := emunet.New(vclock.NewVirtual(testbed.Epoch), 1).Attach(emunet.Addrs(1)[0])
		if err != nil {
			buildErr = err
		}
		return nic
	})
	return t, buildErr
}
