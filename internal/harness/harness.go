// Package harness builds the paper's evaluation (§6): deployments of the
// MANETKit protocol compositions and their monolithic comparators on the
// emulated testbed, plus the measurement procedures behind Table 1 (time
// to process a message, route establishment delay), Table 2 (memory
// footprint) and the variant/concurrency ablations. cmd/mkbench drives it.
// Host time is read through vclock.Real, the one wall clock.
package harness

import (
	"manetkit/internal/dymo"
	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/mono"
	"manetkit/internal/neighbor"
	"manetkit/internal/olsr"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

// Protocol intervals used across all experiments — identical for the
// MANETKit and monolithic implementations, as the paper requires
// ("identical HELLO and Topology Change intervals, and route hold times").
// They are the MANETKit protocols' own constants, which is what
// DeployFamily composes; the monolithic twins are handed them explicitly.
const (
	HelloInterval = neighbor.HelloInterval
	TCInterval    = olsr.TCInterval
	RouteLifetime = dymo.RouteLifetime
)

// MonoCluster is an emulated network of monolithic protocol instances.
type MonoCluster struct {
	Clock *vclock.Virtual
	Net   *emunet.Network
	Addrs []mnet.Addr
	OLSR  []*mono.OLSR
	DYMO  []*mono.DYMO
}

// MonoOLSRCluster builds n monolithic OLSR nodes (unlinked).
func MonoOLSRCluster(n int) (*MonoCluster, error) {
	mc, err := monoBase(n)
	if err != nil {
		return nil, err
	}
	for _, a := range mc.Addrs {
		nic, _ := mc.Net.NIC(a)
		o := mono.NewOLSR(nic, mc.Clock, mono.OLSRConfig{HelloInterval: HelloInterval, TCInterval: TCInterval})
		o.Start()
		mc.OLSR = append(mc.OLSR, o)
	}
	return mc, nil
}

// MonoDYMOCluster builds n monolithic DYMO nodes (unlinked).
func MonoDYMOCluster(n int) (*MonoCluster, error) {
	mc, err := monoBase(n)
	if err != nil {
		return nil, err
	}
	for _, a := range mc.Addrs {
		nic, _ := mc.Net.NIC(a)
		d := mono.NewDYMO(nic, mc.Clock, mono.DYMOConfig{RouteLifetime: RouteLifetime})
		d.Start()
		mc.DYMO = append(mc.DYMO, d)
	}
	return mc, nil
}

func monoBase(n int) (*MonoCluster, error) {
	clk := vclock.NewVirtual(testbed.Epoch)
	net := emunet.New(clk, 1)
	mc := &MonoCluster{Clock: clk, Net: net, Addrs: emunet.Addrs(n)}
	for _, a := range mc.Addrs {
		if _, err := net.Attach(a); err != nil {
			return nil, err
		}
	}
	return mc, nil
}

// Line links the mono cluster in a chain.
func (mc *MonoCluster) Line() error {
	for i := 0; i+1 < len(mc.Addrs); i++ {
		if err := mc.Net.SetLink(mc.Addrs[i], mc.Addrs[i+1], emunet.DefaultQuality()); err != nil {
			return err
		}
	}
	return nil
}

// Close stops all protocol instances.
func (mc *MonoCluster) Close() {
	for _, o := range mc.OLSR {
		o.Stop()
	}
	for _, d := range mc.DYMO {
		d.Stop()
	}
}
