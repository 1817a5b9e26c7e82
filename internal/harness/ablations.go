package harness

import (
	"fmt"
	"sync"
	"time"

	"manetkit/internal/compose"
	"manetkit/internal/core"
	"manetkit/internal/dymo"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/mnet"
	"manetkit/internal/mpr"
	"manetkit/internal/packetbb"
	"manetkit/internal/system"
	"manetkit/internal/testbed"
	"manetkit/internal/vclock"
)

// ConcurrencyResult reports one concurrency model's throughput (§4.4
// ablation).
type ConcurrencyResult struct {
	Model     core.Model
	Dedicated bool // every consumer ran on its own thread
	Events    int
	Elapsed   time.Duration
	PerSecond float64
	// Dropped counts deliveries a full dedicated queue refused: a flood
	// faster than its consumer overflows DedicatedQueueBound by design.
	Dropped uint64
}

// Name is the §4.4 model the run measured.
func (r ConcurrencyResult) Name() string {
	if r.Dedicated {
		return "thread-per-ManetProtocol"
	}
	return r.Model.String()
}

// MeasureConcurrency floods events through a stack of consumer protocols
// under the given model, with every consumer on its own thread when
// dedicated is set, and reports wall-clock throughput, exposing the
// resource/throughput trade-off of §4.4. Handlers carry a small CPU cost
// (cost iterations of work) so parallelism can pay off.
func MeasureConcurrency(model core.Model, dedicated bool, consumers, events, cost int) (ConcurrencyResult, error) {
	mgr, err := core.NewManager(core.Config{
		Node:  mnet.AddrFrom(0x0a000001),
		Clock: vclock.NewVirtual(testbed.Epoch),
		Model: model,
	})
	if err != nil {
		return ConcurrencyResult{}, err
	}
	defer mgr.Close()

	src := core.NewProtocol("src")
	src.SetTuple(event.Tuple{Provided: []event.Type{event.HelloIn}})
	if err := mgr.Deploy(src); err != nil {
		return ConcurrencyResult{}, err
	}
	var total int64
	var mu sync.Mutex
	for i := 0; i < consumers; i++ {
		p := core.NewProtocol(fmt.Sprintf("consumer-%d", i))
		p.SetTuple(event.Tuple{Required: []event.Requirement{{Type: event.HelloIn}}})
		p.PreferDedicatedThread(dedicated)
		p.AddHandler(core.NewHandler("work", event.HelloIn, func(*core.Context, *event.Event) error {
			// Busy work standing in for protocol processing.
			acc := 0
			for j := 0; j < cost; j++ {
				acc += j * j
			}
			mu.Lock()
			total += int64(acc)
			mu.Unlock()
			return nil
		}))
		if err := mgr.Deploy(p); err != nil {
			return ConcurrencyResult{}, err
		}
	}

	host := vclock.Real()
	start := host.Now()
	for i := 0; i < events; i++ {
		_ = src.Emit(&event.Event{Type: event.HelloIn})
	}
	mgr.WaitIdle()
	elapsed := host.Since(start)
	return ConcurrencyResult{
		Model:     model,
		Dedicated: dedicated,
		Events:    events,
		Elapsed:   elapsed,
		PerSecond: float64(events) / elapsed.Seconds(),
		Dropped:   mgr.Stats().Dropped,
	}, nil
}

// FisheyeResult compares TC transmission overhead with and without the
// fisheye interposer (§5.1 variant ablation).
type FisheyeResult struct {
	BaselineTCTx uint64 // TC-bearing frames transmitted, plain OLSR
	FisheyeTCTx  uint64 // with the fisheye interposer on every node
	Reduction    float64
}

// MeasureFisheye runs a grid OLSR network for the given duration and counts
// TC-bearing transmissions with and without the fisheye variant.
func MeasureFisheye(nodes, cols int, duration time.Duration) (FisheyeResult, error) {
	run := func(withFisheye bool) (uint64, error) {
		c, kits, err := FamilyCluster(nodes, "olsr")
		if err != nil {
			return 0, err
		}
		defer c.Close()
		if err := c.Grid(cols); err != nil {
			return 0, err
		}
		if withFisheye {
			for _, k := range kits {
				if err := k.Set.Compose(compose.Spec{Family: compose.Fisheye}); err != nil {
					return 0, err
				}
			}
		}
		c.Run(30 * time.Second) // converge
		// The tap fires once per delivery; counting distinct
		// (sender, originator, seq, hopcount) tuples yields the number of
		// TC transmissions regardless of receiver fan-out.
		var tcTx uint64
		var mu sync.Mutex
		seen := make(map[string]bool)
		c.Net.SetTap(func(f emunet.Frame, rcv mnet.Addr) {
			pkt, err := system.DecodeControl(f)
			if err != nil {
				return
			}
			for _, m := range pkt.Messages {
				if m.Type != packetbb.MsgTC {
					continue
				}
				key := fmt.Sprintf("%v|%v|%d|%d", f.Src, m.Originator, m.SeqNum, m.HopCount)
				mu.Lock()
				if !seen[key] {
					seen[key] = true
					tcTx++
				}
				mu.Unlock()
			}
		})
		c.Run(duration)
		c.Net.SetTap(nil)
		return tcTx, nil
	}
	base, err := run(false)
	if err != nil {
		return FisheyeResult{}, err
	}
	fish, err := run(true)
	if err != nil {
		return FisheyeResult{}, err
	}
	r := FisheyeResult{BaselineTCTx: base, FisheyeTCTx: fish}
	if base > 0 {
		r.Reduction = 1 - float64(fish)/float64(base)
	}
	return r, nil
}

// FloodingResult compares RREQ dissemination cost across flooding
// strategies (§5.2 variant plus the §2 gossip alternative).
type FloodingResult struct {
	BlindForwards     uint64
	GossipForwards    uint64 // probabilistic flooding at p=0.65
	OptimisedForwards uint64 // MPR flooding
	Reduction         float64
}

// floodMode selects a flooding strategy for MeasureDYMOFlooding.
type floodMode int

const (
	floodBlind floodMode = iota
	floodGossip
	floodMPR
)

// MeasureDYMOFlooding runs one route discovery across a dense (clique)
// network under each flooding regime and compares RREQ re-broadcasts.
func MeasureDYMOFlooding(nodes int) (FloodingResult, error) {
	run := func(mode floodMode) (uint64, error) {
		c, kits, err := FamilyCluster(nodes, "dymo")
		if err != nil {
			return 0, err
		}
		defer c.Close()
		switch mode {
		case floodMPR:
			for i, node := range c.Nodes {
				relay := mpr.New("")
				if err := node.Mgr.Deploy(relay.Protocol()); err != nil {
					return 0, err
				}
				if err := relay.Protocol().Start(); err != nil {
					return 0, err
				}
				kits[i].Set.DYMO().SetFlooder(relay.Flooder())
			}
		case floodGossip:
			for i := range c.Nodes {
				kits[i].Set.DYMO().SetFlooder(dymo.NewGossipFlooder(0.65, int64(i+1)))
			}
		}
		if err := c.Clique(); err != nil {
			return 0, err
		}
		c.Run(15 * time.Second)
		if err := kits[0].Node.Sys.Filter().SendData(c.Addrs()[nodes-1], []byte("x")); err != nil {
			return 0, err
		}
		c.Run(2 * time.Second)
		var forwards uint64
		for _, k := range kits {
			forwards += k.Set.DYMO().State().Stats().RREQForwards
		}
		if _, _, err := kits[0].Set.DYMO().Routes().Lookup(c.Addrs()[nodes-1]); err != nil {
			return 0, fmt.Errorf("harness: discovery failed (mode=%d): %w", mode, err)
		}
		return forwards, nil
	}
	var r FloodingResult
	var err error
	if r.BlindForwards, err = run(floodBlind); err != nil {
		return r, err
	}
	if r.GossipForwards, err = run(floodGossip); err != nil {
		return r, err
	}
	if r.OptimisedForwards, err = run(floodMPR); err != nil {
		return r, err
	}
	if r.BlindForwards > 0 {
		r.Reduction = 1 - float64(r.OptimisedForwards)/float64(r.BlindForwards)
	}
	return r, nil
}

// MultipathResult compares re-discovery counts under link failure with and
// without the multipath DYMO variant (§5.2).
type MultipathResult struct {
	BaseDiscoveries      uint64
	MultipathDiscoveries uint64
}

// MeasureMultipath establishes a route across a diamond topology, breaks
// the active path, keeps sending, and counts how many route discoveries
// each variant needed.
func MeasureMultipath() (MultipathResult, error) {
	run := func(multipath bool) (uint64, error) {
		c, kits, err := FamilyCluster(4, "dymo")
		if err != nil {
			return 0, err
		}
		defer c.Close()
		a := c.Addrs()
		for _, pair := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
			if err := c.Net.SetLink(a[pair[0]], a[pair[1]], linkQuality()); err != nil {
				return 0, err
			}
		}
		if multipath {
			for _, k := range kits {
				if err := k.Set.DYMO().EnableMultipath(2); err != nil {
					return 0, err
				}
			}
		}
		c.Run(5 * time.Second)
		send := func() {
			_ = kits[0].Node.Sys.Filter().SendData(a[3], []byte("x"))
			c.Run(time.Second)
		}
		send() // discovery #1
		c.Net.CutLink(a[0], a[1])
		send() // triggers LINK_BREAK; multipath fails over, base re-discovers
		send()
		send()
		return kits[0].Set.DYMO().State().Stats().Discoveries, nil
	}
	base, err := run(false)
	if err != nil {
		return MultipathResult{}, err
	}
	mp, err := run(true)
	if err != nil {
		return MultipathResult{}, err
	}
	return MultipathResult{BaseDiscoveries: base, MultipathDiscoveries: mp}, nil
}

// PowerAwareResult reports the relay burden placed on a battery-drained
// node with and without the power-aware variant (§5.1).
type PowerAwareResult struct {
	DrainedSelectedBase  bool // drained node serves as MPR under base OLSR
	DrainedSelectedPower bool // ... under power-aware OLSR
}

// MeasurePowerAware builds a topology where a drained node and a charged
// node can both cover the 2-hop neighbourhood, and checks which one relay
// selection picks under each variant.
func MeasurePowerAware() (PowerAwareResult, error) {
	run := func(powerAware bool) (bool, error) {
		// Topology: 0 is the selector. The drained node 1 covers both
		// 2-hop targets {3,4}; the charged nodes 2 and 5 cover one each.
		// Coverage-greedy selection prefers the drained hub; power-aware
		// selection pays the extra relay to spare it.
		c, kits, err := FamilyCluster(6, "olsr")
		if err != nil {
			return false, err
		}
		defer c.Close()
		a := c.Addrs()
		for _, pair := range [][2]int{{0, 1}, {0, 2}, {0, 5}, {1, 3}, {1, 4}, {2, 3}, {5, 4}} {
			if err := c.Net.SetLink(a[pair[0]], a[pair[1]], linkQuality()); err != nil {
				return false, err
			}
		}
		if powerAware {
			for _, k := range kits {
				if err := k.Set.OLSR().EnablePowerAware(); err != nil {
					return false, err
				}
			}
		}
		// Node 1 advertises a nearly flat battery, nodes 2 and 5 full
		// ones. The fake sensor units stand in for the System CF battery
		// sensor. Deploy in fixed node order: each deploy records rewire
		// spans in the node's trace, and the run's fingerprint must not
		// depend on map iteration order.
		for _, bat := range []struct {
			node int
			frac float64
		}{{1, 0.15}, {2, 1.0}, {5, 1.0}} {
			sensor := core.NewProtocol("fake-power")
			sensor.SetTuple(event.Tuple{Provided: []event.Type{event.PowerStatus}})
			if err := c.Nodes[bat.node].Mgr.Deploy(sensor); err != nil {
				return false, err
			}
			if err := sensor.Emit(&event.Event{
				Type:  event.PowerStatus,
				Power: &event.PowerPayload{Fraction: bat.frac, Draining: true},
			}); err != nil {
				return false, err
			}
		}
		c.Run(20 * time.Second)
		for _, sel := range kits[0].Set.MPR().State().Selected() {
			if sel == a[1] {
				return true, nil
			}
		}
		return false, nil
	}
	base, err := run(false)
	if err != nil {
		return PowerAwareResult{}, err
	}
	power, err := run(true)
	if err != nil {
		return PowerAwareResult{}, err
	}
	return PowerAwareResult{DrainedSelectedBase: base, DrainedSelectedPower: power}, nil
}
