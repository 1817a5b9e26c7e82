package harness

// Family deployment: one switchable entry point that installs any of the
// four protocol-family compositions (olsr, dymo, aodv, zrp) on a testbed
// node and hands back the state the measurement layers need — the routing
// units in start order (to crash/restart them), the per-protocol RIBs and
// the neighbour table (to snapshot them for the invariant suite). The
// chaos scenarios and the evaluation campaign (internal/eval) both deploy
// through here, so a protocol family behaves identically under fault
// injection and under the metric sweeps. It composes through
// internal/compose, as manetkit.Stack does, so a family here is also the
// composition a library user gets.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"manetkit/internal/compose"
	"manetkit/internal/core"
	"manetkit/internal/invariant"
	"manetkit/internal/neighbor"
	"manetkit/internal/route"
	"manetkit/internal/testbed"
)

// Families lists the deployable protocol families in a stable order.
func Families() []string { return []string{"olsr", "dymo", "aodv", "zrp"} }

// FamilyNode is one deployed protocol-family composition plus the handles
// needed to crash it, flush its state and snapshot it.
type FamilyNode struct {
	Node *testbed.Node
	// Set is the node's composition, with typed handles on its units.
	Set *compose.Set
	// Units are the routing units in start order.
	Units []*core.Protocol
	// RIBs are the composition's routing tables keyed by protocol name.
	RIBs map[string]*route.Table
	// Links is the composition's neighbour table.
	Links *neighbor.Table
}

// DeployFamily composes the requested family on a node with the protocols'
// default parameters and returns the crash/snapshot handles. Families
// joined by "+" are co-deployed in order over shared helper CFs
// ("olsr+dymo": DYMO floods through OLSR's MPR CF); a variant joins the
// same way ("olsr+fisheye").
func DeployFamily(c *testbed.Cluster, node *testbed.Node, family string) (*FamilyNode, error) {
	set := compose.New(node.Mgr, node.Sys)
	for _, f := range strings.Split(family, "+") {
		if err := set.Compose(compose.Spec{Family: f}); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	return &FamilyNode{Node: node, Set: set, Units: set.Units(), RIBs: set.RIBs(), Links: set.Links()}, nil
}

// FamilyCluster composes family on every node of a fresh n-node cluster.
func FamilyCluster(n int, family string) (*testbed.Cluster, []*FamilyNode, error) {
	c, err := testbed.New(n, testbed.Options{})
	if err != nil {
		return nil, nil, err
	}
	nodes := make([]*FamilyNode, n)
	for i, node := range c.Nodes {
		if nodes[i], err = DeployFamily(c, node, family); err != nil {
			c.Close()
			return nil, nil, err
		}
	}
	return c, nodes, nil
}

// Crash stops the node's routing units (reverse start order) — the node
// has typically already been detached from the medium by a fault plan.
func (fn *FamilyNode) Crash() {
	for i := len(fn.Units) - 1; i >= 0; i-- {
		fn.Units[i].Stop()
	}
}

// Restart models a reboot with state loss: RIBs (and their FIB mirrors)
// and the neighbour table are flushed before the units start again.
func (fn *FamilyNode) Restart(now time.Time) error {
	for _, rib := range fn.RIBs {
		rib.Clear()
	}
	if fn.Links != nil {
		// Expire marks every entry lost, Drop then removes them: a full
		// neighbour-table flush without synthesising link-break events
		// (the node was dead — nothing was listening).
		flushAt := now.Add(time.Hour)
		fn.Links.Expire(flushAt)
		fn.Links.Drop(flushAt)
	}
	for _, u := range fn.Units {
		if err := u.Start(); err != nil {
			return err
		}
	}
	return nil
}

// State captures the node for the invariant snapshot.
func (fn *FamilyNode) State() invariant.NodeState {
	st := invariant.NodeState{Addr: fn.Node.Addr, FIB: fn.Node.FIB().List()}
	protos := make([]string, 0, len(fn.RIBs))
	for name := range fn.RIBs {
		protos = append(protos, name)
	}
	sort.Strings(protos)
	for _, name := range protos {
		st.RIBs = append(st.RIBs, invariant.RIB{Proto: name, Entries: fn.RIBs[name].Entries()})
	}
	if fn.Links != nil {
		st.Neighbors = fn.Links.AppendNeighbors(nil, false)
	}
	return st
}

// SnapshotFamilies captures every deployed node against the live link
// graph, ready for the invariant suite.
func SnapshotFamilies(c *testbed.Cluster, nodes []*FamilyNode) *invariant.Snapshot {
	snap := &invariant.Snapshot{Now: c.Clock.Now(), Topo: c.Net}
	for _, fn := range nodes {
		snap.Nodes = append(snap.Nodes, fn.State())
	}
	return snap
}
