// Package testbed assembles multi-node MANETKit deployments over the
// emulated medium — the in-process analogue of the paper's 5-node testbed
// with its Ethernet management backplane. It is used by the protocol
// integration tests, the examples and the experiment harness.
package testbed

import (
	"fmt"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/emunet"
	"manetkit/internal/inspect"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/route"
	"manetkit/internal/system"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
)

// Epoch is the virtual-clock start time used throughout the experiments.
var Epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Node is one emulated MANET host: its framework deployment and System CF.
type Node struct {
	Addr mnet.Addr
	Mgr  *core.Manager
	Sys  *system.System
}

// FIB returns the node's simulated kernel forwarding table.
func (n *Node) FIB() *route.FIB { return n.Sys.FIB() }

// Options tunes cluster construction.
type Options struct {
	// Model is the concurrency model (default core.SingleThreaded).
	Model core.Model
	// Seed drives the medium's loss process (default 1).
	Seed int64
	// LinkQuality is applied by the topology helpers (default
	// emunet.DefaultQuality()).
	LinkQuality emunet.Quality
	// BatteryTemplate, when non-nil, is cloned per node: every System CF
	// powers its POWER_STATUS sensor from its own battery with the
	// template's level and drain rates.
	BatteryTemplate *system.Battery
	// Metrics, when non-nil, is shared by the medium and every node's
	// Framework Manager (one registry per cluster).
	Metrics *metrics.Registry
	// Telemetry, when non-nil, receives structured spans from the medium
	// and every node, from the first node's deployment on, and the
	// medium's engine epochs; under the cluster's virtual clock the record
	// is byte-identical run to run for the same seed. Its epoch must be
	// Epoch.
	Telemetry *telemetry.Bus
}

// Cluster is a set of co-emulated MANETKit nodes on one virtual clock.
type Cluster struct {
	Clock *vclock.Virtual
	Net   *emunet.Network
	Nodes []*Node
	opts  Options
}

// New builds a cluster of n nodes with deployed, started System CFs and no
// links (use Line/Grid/Clique or the Net directly).
func New(n int, opts Options) (*Cluster, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Model == 0 {
		opts.Model = core.SingleThreaded
	}
	if opts.LinkQuality == (emunet.Quality{}) {
		opts.LinkQuality = emunet.DefaultQuality()
	}
	clk := vclock.NewVirtual(Epoch)
	net := emunet.New(clk, opts.Seed)
	if opts.Metrics != nil {
		net.SetMetrics(opts.Metrics)
	}
	if opts.Telemetry != nil {
		net.SetTelemetry(opts.Telemetry)
		// With both installed, every event the recorder evicts shows up
		// as a cluster-wide counter.
		opts.Metrics.Attach(opts.Telemetry.ReadMetrics)
	}
	c := &Cluster{Clock: clk, Net: net, opts: opts}
	for _, addr := range emunet.Addrs(n) {
		node, err := c.AddNode(addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		_ = node
	}
	return c, nil
}

// AddNode attaches one more host at addr — used by the route-establishment
// experiment, where a new node joins a running network.
func (c *Cluster) AddNode(addr mnet.Addr) (*Node, error) {
	nic, err := c.Net.Attach(addr)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	mgr, err := core.NewManager(core.Config{
		Node: addr, Clock: c.Clock, Model: c.opts.Model,
		Metrics: c.opts.Metrics, Telemetry: c.opts.Telemetry,
	})
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	var battery *system.Battery
	if c.opts.BatteryTemplate != nil {
		battery = c.opts.BatteryTemplate.Clone()
	}
	sys, err := system.New(system.Config{NIC: nic, Battery: battery})
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	if err := mgr.Deploy(sys.Protocol()); err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	if err := sys.Protocol().Start(); err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	node := &Node{Addr: addr, Mgr: mgr, Sys: sys}
	c.Nodes = append(c.Nodes, node)
	return node, nil
}

// Addrs returns the node addresses in order.
func (c *Cluster) Addrs() []mnet.Addr {
	out := make([]mnet.Addr, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Addr
	}
	return out
}

// Node returns the node at index i.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// Snapshot captures the live architecture meta-model of every node.
func (c *Cluster) Snapshot() inspect.Snapshot {
	mgrs := make([]*core.Manager, len(c.Nodes))
	for i, n := range c.Nodes {
		mgrs[i] = n.Mgr
	}
	return inspect.Capture(mgrs...)
}

// Line links the nodes into the paper's linear chain topology.
func (c *Cluster) Line() error { return emunet.BuildLine(c.Net, c.Addrs(), c.opts.LinkQuality) }

// Grid links the nodes as a cols-wide grid.
func (c *Cluster) Grid(cols int) error {
	return emunet.BuildGrid(c.Net, c.Addrs(), cols, c.opts.LinkQuality)
}

// Clique links every pair of nodes.
func (c *Cluster) Clique() error { return emunet.BuildClique(c.Net, c.Addrs(), c.opts.LinkQuality) }

// Random links nodes with the given density (plus a connectivity chain).
func (c *Cluster) Random(density float64, seed int64) error {
	return emunet.BuildRandom(c.Net, c.Addrs(), density, seed, c.opts.LinkQuality)
}

// Run advances the shared virtual clock by d, executing all protocol
// timers and in-flight deliveries in deterministic order.
func (c *Cluster) Run(d time.Duration) { c.Clock.Advance(d) }

// Settle drains all pending timers (bounded by maxEvents; -1 unbounded).
func (c *Cluster) Settle(maxEvents int) int { return c.Clock.RunUntilIdle(maxEvents) }

// Close shuts down every node's manager.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		n.Mgr.Close()
	}
}
