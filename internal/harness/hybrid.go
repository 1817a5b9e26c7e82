package harness

import (
	"fmt"
	"sync"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/testbed"
)

// HybridResult compares the zone-routing hybrid against pure reactive
// routing for one end-to-end discovery on a line topology (the §2/§7
// hybridisation claim: the zone terminates discoveries early).
type HybridResult struct {
	ReactiveForwards uint64 // DYMO RREQ re-broadcasts
	HybridForwards   uint64 // ZRP RREQ re-broadcasts
	ReactiveDelay    time.Duration
	HybridDelay      time.Duration
	ZoneAnswers      uint64 // replies issued by in-zone nodes on the target's behalf
	// NearDiscoveries counts discoveries triggered by the in-zone send —
	// 0 under ZRP, whose proactive zone covers it before NO_ROUTE can
	// even fire.
	NearDiscoveries uint64
}

// MeasureHybrid runs the same workload — one discovery to the far end of
// an n-node line, plus one send to a 2-hop neighbour — under DYMO and
// under ZRP, comparing flood depth and discovery latency.
func MeasureHybrid(n int) (HybridResult, error) {
	var r HybridResult

	// Reactive baseline.
	{
		c, kits, err := FamilyCluster(n, "dymo")
		if err != nil {
			return r, err
		}
		if err := c.Line(); err != nil {
			c.Close()
			return r, err
		}
		c.Run(5 * time.Second)
		delay, err := timedDelivery(c, kits[len(kits)-1].Node, func() error {
			return kits[0].Node.Sys.Filter().SendData(c.Addrs()[n-1], []byte("x"))
		})
		if err != nil {
			c.Close()
			return r, err
		}
		r.ReactiveDelay = delay
		for _, k := range kits {
			r.ReactiveForwards += k.Set.DYMO().State().Stats().RREQForwards
		}
		c.Close()
	}

	// Hybrid.
	{
		c, kits, err := FamilyCluster(n, "zrp")
		if err != nil {
			return r, err
		}
		defer c.Close()
		if err := c.Line(); err != nil {
			return r, err
		}
		c.Run(8 * time.Second)

		// In-zone traffic: the proactive zone serves it with no discovery.
		if err := c.Nodes[0].Sys.Filter().SendData(c.Addrs()[2], []byte("near")); err != nil {
			return r, err
		}
		c.Run(time.Second)
		r.NearDiscoveries = kits[0].Set.ZRP().State().Stats().Discoveries

		delay, err := timedDelivery(c, c.Nodes[n-1], func() error {
			return c.Nodes[0].Sys.Filter().SendData(c.Addrs()[n-1], []byte("x"))
		})
		if err != nil {
			return r, err
		}
		r.HybridDelay = delay
		for _, k := range kits {
			st := k.Set.ZRP().State().Stats()
			r.HybridForwards += st.RREQForwards
			r.ZoneAnswers += st.ZoneAnswers
		}
	}
	return r, nil
}

// timedDelivery measures the simulated time from send until the node's
// packet filter delivers something locally.
func timedDelivery(c *testbed.Cluster, dst *testbed.Node, send func() error) (time.Duration, error) {
	var mu sync.Mutex
	done := false
	dst.Sys.Filter().OnDeliver(func(mnet.Addr, []byte) {
		mu.Lock()
		done = true
		mu.Unlock()
	})
	start := c.Clock.Now()
	if err := send(); err != nil {
		return 0, err
	}
	deadline := start.Add(30 * time.Second)
	for {
		mu.Lock()
		ok := done
		mu.Unlock()
		if ok {
			return c.Clock.Now().Sub(start), nil
		}
		if !c.Clock.Step() || c.Clock.Now().After(deadline) {
			return 0, fmt.Errorf("harness: delivery never happened")
		}
	}
}
