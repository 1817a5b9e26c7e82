package harness

import (
	"fmt"
	"runtime"

	"manetkit/internal/core"
	"manetkit/internal/dymo"
	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/mono"
	"manetkit/internal/mpr"
	"manetkit/internal/neighbor"
	"manetkit/internal/olsr"
	"manetkit/internal/route"
	"manetkit/internal/system"
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

// kitDeployment is the retained object graph for footprint measurement.
type kitDeployment struct {
	mgr   *core.Manager
	sys   *system.System
	extra []any
}

// buildKitBase constructs a single-node MANETKit deployment (manager +
// System CF) on its own emulated medium.
func buildKitBase() (*kitDeployment, *testbed.Cluster, error) {
	c, err := testbed.New(1, testbed.Options{})
	if err != nil {
		return nil, nil, err
	}
	n := c.Nodes[0]
	return &kitDeployment{mgr: n.Mgr, sys: n.Sys}, c, nil
}

// MeasureTable2 builds each deployment and records its heap footprint.
func MeasureTable2() (Table2, error) {
	var t Table2
	var buildErr error

	clk := vclock.NewVirtual(testbed.Epoch)

	t.MonoOLSR = heapDelta(func() any {
		net := emunet.New(clk, 1)
		nic, err := net.Attach(mnet.AddrFrom(0x0a000001))
		if err != nil {
			buildErr = err
			return nil
		}
		return mono.NewOLSR(nic, clk, mono.OLSRConfig{})
	})
	t.MonoDYMO = heapDelta(func() any {
		net := emunet.New(clk, 1)
		nic, err := net.Attach(mnet.AddrFrom(0x0a000001))
		if err != nil {
			buildErr = err
			return nil
		}
		return mono.NewDYMO(nic, clk, mono.DYMOConfig{})
	})
	t.MonoBoth = heapDelta(func() any {
		net := emunet.New(clk, 1)
		nicA, err := net.Attach(mnet.AddrFrom(0x0a000001))
		if err != nil {
			buildErr = err
			return nil
		}
		nicB, err := net.Attach(mnet.AddrFrom(0x0a000002))
		if err != nil {
			buildErr = err
			return nil
		}
		return []any{
			mono.NewOLSR(nicA, clk, mono.OLSRConfig{}),
			mono.NewDYMO(nicB, clk, mono.DYMOConfig{}),
		}
	})

	t.KitOLSR = heapDelta(func() any {
		dep, c, err := buildKitBase()
		if err != nil {
			buildErr = err
			return nil
		}
		relay := mpr.New("", mpr.Config{HelloInterval: HelloInterval})
		o := olsr.New("", relay, olsr.Config{Clock: c.Clock, FIB: route.NewFIB()})
		if err := dep.mgr.Deploy(relay.Protocol()); err != nil {
			buildErr = err
		}
		if err := dep.mgr.Deploy(o.Protocol()); err != nil {
			buildErr = err
		}
		dep.extra = append(dep.extra, relay, o, c)
		return dep
	})
	t.KitDYMO = heapDelta(func() any {
		dep, c, err := buildKitBase()
		if err != nil {
			buildErr = err
			return nil
		}
		nd := neighbor.New("", neighbor.Config{HelloInterval: HelloInterval})
		d := dymo.New("", dymo.Config{Clock: c.Clock, FIB: route.NewFIB()})
		if err := dep.mgr.Deploy(nd.Protocol()); err != nil {
			buildErr = err
		}
		if err := dep.mgr.Deploy(d.Protocol()); err != nil {
			buildErr = err
		}
		dep.extra = append(dep.extra, nd, d, c)
		return dep
	})

	buildBoth := func() (*kitDeployment, error) {
		// The co-deployment shares the manager, the System CF and the MPR
		// CF: DYMO uses MPR as its optimised-flooding / neighbour sensing
		// substrate instead of a private Neighbour Detection CF — the
		// paper's "leaner deployment" (§5.2).
		dep, c, err := buildKitBase()
		if err != nil {
			return nil, err
		}
		relay := mpr.New("", mpr.Config{HelloInterval: HelloInterval})
		o := olsr.New("", relay, olsr.Config{Clock: c.Clock, FIB: route.NewFIB()})
		d := dymo.New("", dymo.Config{Clock: c.Clock, FIB: route.NewFIB()})
		d.SetFlooder(relay.Flooder())
		for _, u := range []*core.Protocol{relay.Protocol(), o.Protocol(), d.Protocol()} {
			if err := dep.mgr.Deploy(u); err != nil {
				return nil, err
			}
		}
		dep.extra = append(dep.extra, relay, o, d, c)
		return dep, nil
	}

	t.KitBoth = heapDelta(func() any {
		dep, err := buildBoth()
		if err != nil {
			buildErr = err
		}
		return dep
	})
	t.KitBothSealed = heapDelta(func() any {
		dep, err := buildBoth()
		if err != nil {
			buildErr = err
			return nil
		}
		// "Once a desired configuration has been achieved it is possible
		// to unload the OpenCom kernel to free up memory" — Seal drops the
		// kernel metadata and the integrity rules.
		dep.mgr.Seal()
		return dep
	})
	return t, buildErr
}
