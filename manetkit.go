// Package manetkit is the public API of this MANETKit reproduction: a
// runtime component framework for the construction, dynamic deployment and
// runtime reconfiguration of mobile ad-hoc network (MANET) routing
// protocols, after Ramdhany, Grace, Coulson & Hutchison, "MANETKit:
// Supporting the Dynamic Deployment and Reconfiguration of Ad-Hoc Routing
// Protocols" (Middleware 2009).
//
// A deployment is a Stack: one node's Framework Manager plus its System CF
// grounded in an emulated 802.11 medium (Network). Protocols — OLSR over
// multipoint relaying, reactive DYMO, or custom compositions built from
// core.Protocol — are deployed into the stack serially or simultaneously;
// their <required-events, provided-events> tuples wire them together
// automatically, and fine-grained variants (fisheye, power-aware routing,
// multipath DYMO, MPR-optimised flooding) are applied by runtime
// reconfiguration.
//
//	clk := manetkit.NewVirtualClock(time.Now())
//	net := manetkit.NewNetwork(clk, 1)
//	stacks, _ := manetkit.NewStacks(net, manetkit.Addrs(5), manetkit.StackOptions{})
//	manetkit.BuildLine(net, manetkit.Addrs(5), manetkit.DefaultQuality())
//	for _, s := range stacks { s.DeployDYMO(manetkit.DYMOConfig{}) }
//	stacks[0].SendData(stacks[4].Addr(), []byte("hello multi-hop world"))
//	clk.Advance(time.Second)
package manetkit

import (
	"fmt"
	"time"

	"manetkit/internal/aodv"
	"manetkit/internal/compose"
	"manetkit/internal/core"
	"manetkit/internal/dymo"
	"manetkit/internal/emunet"
	"manetkit/internal/event"
	"manetkit/internal/inspect"
	"manetkit/internal/invariant"
	"manetkit/internal/metrics"
	"manetkit/internal/mnet"
	"manetkit/internal/mpr"
	"manetkit/internal/neighbor"
	"manetkit/internal/olsr"
	"manetkit/internal/route"
	"manetkit/internal/system"
	"manetkit/internal/telemetry"
	"manetkit/internal/vclock"
	"manetkit/internal/zrp"
)

// Re-exported core types. The aliases make the internal packages' rich
// APIs available through the public module path.
type (
	// Addr is a 4-byte node address.
	Addr = mnet.Addr
	// Prefix is an address prefix (CIDR-style).
	Prefix = mnet.Prefix
	// Clock abstracts time (real or virtual).
	Clock = vclock.Clock
	// VirtualClock is the deterministic simulation clock.
	VirtualClock = vclock.Virtual
	// Network is the emulated wireless medium.
	Network = emunet.Network
	// Quality describes one emulated link.
	Quality = emunet.Quality
	// Scenario is a scripted mobility trace.
	Scenario = emunet.Scenario
	// Manager is the Framework Manager / MANETKit CF.
	Manager = core.Manager
	// Protocol is the generic ManetProtocol CF.
	Protocol = core.Protocol
	// Event is the unit of communication between CFS units.
	Event = event.Event
	// EventType names an event kind.
	EventType = event.Type
	// Tuple is the <required-events, provided-events> declaration.
	Tuple = event.Tuple
	// Model selects the concurrency model.
	Model = core.Model
	// OLSR is the proactive protocol composition.
	OLSR = olsr.OLSR
	// DYMO is the reactive protocol composition.
	DYMO = dymo.DYMO
	// MPR is the multipoint-relay CF.
	MPR = mpr.MPR
	// NeighborDetector is the Neighbour Detection CF.
	NeighborDetector = neighbor.Detector
	// System is the System CF.
	System = system.System
	// Battery models a node power source.
	Battery = system.Battery
	// AODV is the on-demand distance-vector protocol composition.
	AODV = aodv.AODV
	// ZRP is the zone-routing hybrid composition.
	ZRP = zrp.ZRP
	// FaultPlan is a seeded, scripted fault schedule for the emulated
	// medium: partitions, crashes, corruption, duplication, reordering.
	FaultPlan = emunet.FaultPlan
	// Injector applies a FaultPlan; it exposes the deterministic fault log.
	Injector = emunet.Injector
	// Violation is one protocol-invariant breach.
	Violation = invariant.Violation
	// InvariantSuite is a pluggable set of snapshot invariant checkers.
	InvariantSuite = invariant.Suite
	// SeqWatcher is the live monotonic-sequence-number invariant.
	SeqWatcher = invariant.SeqWatcher
	// MetricsRegistry reads the layers' counters and owns the latency
	// histograms; a nil registry is a valid no-op (zero-overhead disabled
	// path).
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of every counter, gauge and
	// histogram.
	MetricsSnapshot = metrics.Snapshot
	// Span is one traced event (emit, dispatch, handle, frame-tx, ...),
	// recorded on a TelemetryBus and read back with TelemetryBus.Spans.
	Span = telemetry.Span
	// RouteTable is the protocol-facing RIB template.
	RouteTable = route.Table
	// ArchSnapshot is a point-in-time serialization of the live
	// architecture meta-model: nodes × units × tuples × derived bindings.
	ArchSnapshot = inspect.Snapshot
	// NodeArch is one node's slice of an ArchSnapshot.
	NodeArch = inspect.NodeSnapshot
	// ArchDelta names the structural differences of one node between two
	// snapshots.
	ArchDelta = inspect.Delta
	// RewireJournal records every topology re-derivation as a timestamped
	// snapshot diff.
	RewireJournal = inspect.Journal
	// JournalEntry is one journalled reconfiguration.
	JournalEntry = inspect.Entry
	// PacketPath is the cross-node causal reconstruction of one correlated
	// message (flood tree or unicast chain with per-hop latency).
	PacketPath = inspect.Path
	// PacketHop is one link traversal of a PacketPath.
	PacketHop = inspect.Hop
	// HealthMonitor rolls per-unit watchdogs into a health report.
	HealthMonitor = inspect.Monitor
	// HealthTarget is one node under health watch.
	HealthTarget = inspect.Target
	// HealthReport is the outcome of one HealthMonitor check.
	HealthReport = inspect.Report
	// HealthFinding is one watchdog observation.
	HealthFinding = inspect.Finding
	// TelemetryBus multiplexes spans, health transitions, journal entries,
	// metrics deltas and engine epochs into one ordered, subscribable
	// stream with a bounded flight recorder. Slow subscribers drop (and
	// count) events; they never stall the run.
	TelemetryBus = telemetry.Bus
	// TelemetryEvent is one bus event: sequence, virtual time, stream
	// name, pre-encoded JSON payload.
	TelemetryEvent = telemetry.Event
	// TelemetrySubscription is one consumer's bounded channel plus its
	// exact published/delivered/dropped accounting.
	TelemetrySubscription = telemetry.Subscription
)

// NewFaultPlan starts an empty seeded fault schedule.
func NewFaultPlan(seed int64) *FaultPlan { return emunet.NewFaultPlan(seed) }

// NewSeqWatcher builds the live sequence-number checker; install it with
// Network.SetTap(w.Observe).
func NewSeqWatcher() *SeqWatcher { return invariant.NewSeqWatcher() }

// DefaultInvariants returns the standard protocol invariants: no routing
// loops, route liveness, neighbour-table symmetry.
func DefaultInvariants() *InvariantSuite { return invariant.DefaultSuite() }

// NewMetricsRegistry builds a metrics registry; share one per cluster
// and pass it via StackOptions.Metrics and Network.SetMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// CaptureArch snapshots the live architecture meta-model of the given
// stacks; the result serializes deterministically to JSON and Graphviz DOT.
func CaptureArch(stacks ...*Stack) ArchSnapshot {
	mgrs := make([]*core.Manager, len(stacks))
	for i, s := range stacks {
		mgrs[i] = s.mgr
	}
	return inspect.Capture(mgrs...)
}

// DiffArch computes per-node structural deltas between two snapshots.
func DiffArch(a, b ArchSnapshot) []ArchDelta { return inspect.Diff(a, b) }

// ParseArchSnapshot inverts ArchSnapshot.JSON.
func ParseArchSnapshot(data []byte) (ArchSnapshot, error) { return inspect.ParseSnapshot(data) }

// NewRewireJournal creates a journal of topology re-derivations that also
// publishes each entry on bus (nil for none); install it with Watch on each
// stack's Manager.
func NewRewireJournal(epoch time.Time, bus *TelemetryBus) *RewireJournal {
	return inspect.NewJournal(epoch, bus)
}

// CorrelatePaths stitches a cluster trace into per-message causal paths.
func CorrelatePaths(spans []Span) []PacketPath { return inspect.Correlate(spans) }

// RenderPacketPaths renders up to limit reconstructed paths as propagation
// trees (limit <= 0 renders all).
func RenderPacketPaths(paths []PacketPath, limit int) string {
	return inspect.RenderPaths(paths, limit)
}

// NewHealthMonitor builds a watchdog monitor over the shared registry
// (reg may be nil) that publishes its level transitions on bus (nil for
// none).
func NewHealthMonitor(epoch time.Time, reg *MetricsRegistry, bus *TelemetryBus) *HealthMonitor {
	return inspect.NewMonitor(epoch, reg, bus)
}

// NewTelemetryBus builds a streaming telemetry bus anchored at epoch with
// the default flight-recorder capacity. Hand it to the producers:
// StackOptions.Telemetry, Network.SetTelemetry, NewRewireJournal,
// NewHealthMonitor or harness.ChaosConfig.Telemetry.
func NewTelemetryBus(epoch time.Time) *TelemetryBus {
	return telemetry.New(telemetry.Config{Epoch: epoch})
}

// Concurrency models (§4.4 of the paper).
const (
	SingleThreaded = core.SingleThreaded
	PerMessage     = core.PerMessage
	PerN           = core.PerN
)

// Broadcast is the link-local broadcast address.
var Broadcast = mnet.Broadcast

// ParseAddr parses a dotted-quad node address.
func ParseAddr(s string) (Addr, error) { return mnet.ParseAddr(s) }

// MustParseAddr parses a dotted-quad address, panicking on error.
func MustParseAddr(s string) Addr { return mnet.MustParseAddr(s) }

// Addrs returns n sequential addresses starting at 10.0.0.1.
func Addrs(n int) []Addr { return emunet.Addrs(n) }

// NewVirtualClock returns a deterministic clock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock { return vclock.NewVirtual(start) }

// NewBattery models a node power source for the POWER_STATUS sensor:
// initial fraction, idle drain per second, drain per transmitted frame.
func NewBattery(initial, perSecond, perFrame float64, start time.Time) *Battery {
	return system.NewBattery(initial, perSecond, perFrame, start)
}

// RealClock returns the wall clock.
func RealClock() Clock { return vclock.Real() }

// NewNetwork creates an emulated medium on the given clock; seed drives
// the loss process.
func NewNetwork(clock Clock, seed int64) *Network { return emunet.New(clock, seed) }

// DefaultQuality approximates a healthy one-hop 802.11b/g link.
func DefaultQuality() Quality { return emunet.DefaultQuality() }

// Topology helpers.
func BuildLine(n *Network, addrs []Addr, q Quality) error { return emunet.BuildLine(n, addrs, q) }
func BuildGrid(n *Network, addrs []Addr, cols int, q Quality) error {
	return emunet.BuildGrid(n, addrs, cols, q)
}
func BuildClique(n *Network, addrs []Addr, q Quality) error { return emunet.BuildClique(n, addrs, q) }

// StackOptions tunes a node deployment.
type StackOptions struct {
	// Model is the concurrency model (default SingleThreaded).
	Model Model
	// Battery, when non-nil, powers the POWER_STATUS context sensor.
	Battery *Battery
	// Metrics, when non-nil, reads the node's counters and collects its
	// latency histograms; share one registry across a cluster (and
	// Network.SetMetrics) for a global view. Nil disables metrics at zero
	// cost.
	Metrics *MetricsRegistry
	// Telemetry, when non-nil, records structured spans from the node's
	// dispatch path. Nil disables tracing at zero cost; a dormant bus costs
	// one atomic load per span site.
	Telemetry *TelemetryBus
}

// OLSRConfig parameterises an OLSR deployment. OLSR runs on its RFC 3626
// constants, so it has no fields yet.
type OLSRConfig struct{}

// DYMOConfig parameterises a DYMO deployment.
type DYMOConfig struct {
	HopLimit uint8 // control-message propagation cap, default 10
}

// FamilySpec names one protocol family (olsr, dymo, aodv, zrp) or variant
// (fisheye) for Stack.Compose, with its parameters; a zero field takes the
// protocol's default.
type FamilySpec = compose.Spec

// Stack is one node's MANETKit deployment: Framework Manager + System CF,
// into which routing protocols are deployed and reconfigured at runtime.
type Stack struct {
	mgr  *core.Manager
	sys  *system.System
	comp *compose.Set
}

// NewStack attaches a node at addr to the network and boots its framework
// and System CF.
func NewStack(net *Network, addr Addr, opts StackOptions) (*Stack, error) {
	if opts.Model == 0 {
		opts.Model = SingleThreaded
	}
	nic, err := net.Attach(addr)
	if err != nil {
		return nil, fmt.Errorf("manetkit: %w", err)
	}
	mgr, err := core.NewManager(core.Config{
		Node: addr, Clock: net.Clock(), Model: opts.Model,
		Metrics: opts.Metrics, Telemetry: opts.Telemetry,
	})
	if err != nil {
		return nil, fmt.Errorf("manetkit: %w", err)
	}
	sys, err := system.New(system.Config{NIC: nic, Battery: opts.Battery})
	if err != nil {
		return nil, fmt.Errorf("manetkit: %w", err)
	}
	if err := mgr.Deploy(sys.Protocol()); err != nil {
		return nil, fmt.Errorf("manetkit: %w", err)
	}
	if err := sys.Protocol().Start(); err != nil {
		return nil, fmt.Errorf("manetkit: %w", err)
	}
	return &Stack{mgr: mgr, sys: sys, comp: compose.New(mgr, sys)}, nil
}

// NewStacks builds one stack per address.
func NewStacks(net *Network, addrs []Addr, opts StackOptions) ([]*Stack, error) {
	stacks := make([]*Stack, 0, len(addrs))
	for _, a := range addrs {
		s, err := NewStack(net, a, opts)
		if err != nil {
			for _, built := range stacks {
				built.Close()
			}
			return nil, err
		}
		stacks = append(stacks, s)
	}
	return stacks, nil
}

// Addr returns the node address.
func (s *Stack) Addr() Addr { return s.mgr.Node() }

// Manager exposes the Framework Manager (deployment, rewiring, context
// concentrator, architecture meta-model).
func (s *Stack) Manager() *Manager { return s.mgr }

// System exposes the System CF.
func (s *Stack) System() *System { return s.sys }

// Deploy installs a custom protocol unit and starts it. A unit whose start
// hook fails is undeployed again: a failed Deploy leaves nothing behind.
func (s *Stack) Deploy(p *Protocol) error { return compose.Deploy(s.mgr, p) }

// Undeploy stops and removes a protocol unit by name.
func (s *Stack) Undeploy(name string) error { return s.mgr.Undeploy(name) }

// Compose deploys protocol families and variants in order, each family
// after the helper CF it declares (MPR for OLSR and ZRP, Neighbour Detection
// for AODV, and for DYMO the MPR CF when one is deployed, else Neighbour
// Detection). Helpers are shared and counted: the last family holding one
// takes it along when it is undeployed. The Deploy* methods are Compose
// with one spec.
func (s *Stack) Compose(specs ...FamilySpec) error { return s.comp.Compose(specs...) }

// RouteTables returns the RIBs of the stack's deployed routing protocols,
// keyed by unit name — the route-staleness targets for a HealthMonitor.
func (s *Stack) RouteTables() map[string]*RouteTable { return s.comp.RIBs() }

// DeployOLSR installs the proactive composition (MPR CF + OLSR CF). The
// deployment is idempotent per stack.
func (s *Stack) DeployOLSR(OLSRConfig) (*OLSR, error) {
	err := s.comp.Compose(compose.Spec{Family: olsr.UnitName})
	return s.comp.OLSR(), err
}

// UndeployOLSR removes the OLSR CF and the fisheye variant riding on it,
// and the MPR CF unless another protocol (DYMO, ZRP) still shares it.
func (s *Stack) UndeployOLSR() error { return s.comp.Decompose(olsr.UnitName) }

// UndeployMPR removes the MPR CF. The MPR CF leaves with the last protocol
// stacked on it, so this is a no-op once that has happened, and refused,
// naming the protocol, while one is still there.
func (s *Stack) UndeployMPR() error { return s.comp.Decompose(mpr.UnitName) }

// MPRUnit returns the deployed MPR CF, if any.
func (s *Stack) MPRUnit() *MPR { return s.comp.MPR() }

// DeployDYMO installs the reactive composition (Neighbour Detection CF +
// DYMO CF). If an MPR CF is already deployed (e.g. OLSR is co-deployed),
// DYMO shares it for optimised flooding instead of a private detector —
// the paper's leaner co-deployment (§5.2).
func (s *Stack) DeployDYMO(cfg DYMOConfig) (*DYMO, error) {
	err := s.comp.Compose(compose.Spec{Family: dymo.UnitName, HopLimit: cfg.HopLimit})
	return s.comp.DYMO(), err
}

// UndeployDYMO removes the DYMO CF and the helper CF it held, unless
// another protocol still shares that helper.
func (s *Stack) UndeployDYMO() error { return s.comp.Decompose(dymo.UnitName) }

// AODVConfig parameterises an AODV deployment.
type AODVConfig struct {
	PiggybackRoutes bool // share routes on HELLO beacons (§4.3)
}

// DeployAODV installs the on-demand composition (Neighbour Detection CF +
// AODV CF). AODV and DYMO are alternatives; install the single-reactive
// integrity rule (RestrictToOneReactive) to have the framework police it.
func (s *Stack) DeployAODV(cfg AODVConfig) (*AODV, error) {
	err := s.comp.Compose(compose.Spec{Family: aodv.UnitName, PiggybackRoutes: cfg.PiggybackRoutes})
	return s.comp.AODV(), err
}

// UndeployAODV removes the AODV CF and the Neighbour Detection CF, unless
// a DYMO still shares it.
func (s *Stack) UndeployAODV() error { return s.comp.Decompose(aodv.UnitName) }

// AODVUnit returns the deployed AODV CF, if any.
func (s *Stack) AODVUnit() *AODV { return s.comp.AODV() }

// DeployZRP installs the hybrid zone-routing composition (MPR CF + ZRP
// CF): proactive routing within the radius-2 zone, reactive discovery
// beyond it, with in-zone nodes answering on out-of-zone targets' behalf.
func (s *Stack) DeployZRP() (*ZRP, error) {
	err := s.comp.Compose(compose.Spec{Family: zrp.UnitName})
	return s.comp.ZRP(), err
}

// UndeployZRP removes the ZRP CF and the MPR CF, unless another protocol
// still shares it.
func (s *Stack) UndeployZRP() error { return s.comp.Decompose(zrp.UnitName) }

// ZRPUnit returns the deployed ZRP CF, if any.
func (s *Stack) ZRPUnit() *ZRP { return s.comp.ZRP() }

// RestrictToOneReactive installs the paper's example integrity rule: at
// most one reactive routing protocol (AODV, DYMO, or ZRP, whose interzone
// half is reactive) in this deployment (§4.2).
func (s *Stack) RestrictToOneReactive() error {
	return s.mgr.AddRule(aodv.RuleSingleReactive(aodv.UnitName, dymo.UnitName, zrp.UnitName))
}

// OLSRUnit returns the deployed OLSR CF, if any.
func (s *Stack) OLSRUnit() *OLSR { return s.comp.OLSR() }

// DYMOUnit returns the deployed DYMO CF, if any.
func (s *Stack) DYMOUnit() *DYMO { return s.comp.DYMO() }

// EnableFisheye deploys the fisheye interposer into the TC_OUT path
// (OLSR's scalability variant); it needs OLSR deployed and leaves with it.
// Pass nil for the default TTL pattern.
func (s *Stack) EnableFisheye(pattern []uint8) error {
	return s.comp.Compose(compose.Spec{Family: compose.Fisheye, Pattern: pattern})
}

// DisableFisheye removes the interposer; the TC_OUT path heals
// automatically.
func (s *Stack) DisableFisheye() error { return s.comp.Decompose(compose.Fisheye) }

// SendData originates an application data packet; a reactive protocol
// (DYMO) discovers the route on demand, a proactive one (OLSR) should
// already have installed it.
func (s *Stack) SendData(dst Addr, payload []byte) error {
	return s.sys.Filter().SendData(dst, payload)
}

// OnDeliver installs the upcall for data packets addressed to this node.
// payload is lent for the call, as a kernel hook sees a packet buffer only
// while it runs: fn must not write to it, and copies what it keeps.
func (s *Stack) OnDeliver(fn func(src Addr, payload []byte)) {
	s.sys.Filter().OnDeliver(fn)
}

// SubscribeContext taps the Framework Manager's context concentrator, where
// software above the kit makes its reconfiguration decisions (§4.5;
// examples/adaptive). fn may use the event only until it returns; to keep
// it, it copies it (its message by Msg.Clone()).
func (s *Stack) SubscribeContext(pattern EventType, fn func(*Event)) {
	s.mgr.SubscribeContext(pattern, fn)
}

// Sniff deploys a passive diagnostic unit that observes every event
// flowing through this stack (the framework-level packet capture). It
// returns the unit so it can be undeployed by name. fn may use the event
// only until it returns; to keep it, it copies it (its message by
// Msg.Clone()).
func (s *Stack) Sniff(name string, fn func(*Event)) (*Protocol, error) {
	sniffer, err := core.NewSniffer(name, fn)
	if err != nil {
		return nil, err
	}
	if err := s.mgr.Deploy(sniffer); err != nil {
		return nil, err
	}
	return sniffer, nil
}

// Close shuts the node down.
func (s *Stack) Close() { s.mgr.Close() }
