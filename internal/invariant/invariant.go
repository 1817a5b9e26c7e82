// Package invariant machine-checks protocol correctness conditions over a
// running emulated deployment — the safety net behind the paper's claim
// that MANETKit protocols keep routing while being reconfigured on a lossy,
// churning network (§4.5, §6).
//
// Two kinds of checkers exist. Snapshot checkers examine a point-in-time
// Snapshot of the whole cluster (every node's RIBs, FIB and neighbour
// table, plus the live link graph) and report Violations: routing loops,
// routes through dead links or to unreachable destinations, asymmetric
// neighbour perceptions. The SeqWatcher is a live checker: installed as the
// medium tap (Network.SetTap), it decodes every delivered control frame and
// flags originator sequence numbers that move backwards.
//
// Snapshots are meaningful only after the network has been quiescent for
// the protocols' convergence bound (hold times, TC/HELLO intervals); the
// chaos harness (internal/harness) settles the cluster before checking.
package invariant

import (
	"fmt"
	"sort"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
	"manetkit/internal/route"
)

// Violation is one invariant breach.
type Violation struct {
	// Checker names the invariant that failed.
	Checker string
	// Node is the node at which the breach was observed (zero when the
	// breach is network-wide).
	Node mnet.Addr
	// Detail is a human-readable description.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Node.IsUnspecified() {
		return fmt.Sprintf("[%s] %s", v.Checker, v.Detail)
	}
	return fmt.Sprintf("[%s] %v: %s", v.Checker, v.Node, v.Detail)
}

// Topology is the live link graph the checkers validate routes against.
// emunet.Network satisfies it.
type Topology interface {
	// Linked reports whether from can reach to in one hop.
	Linked(from, to mnet.Addr) bool
	// Nodes lists the attached addresses, sorted.
	Nodes() []mnet.Addr
}

// RIB is one protocol's routing table on one node.
type RIB struct {
	Proto   string
	Entries []route.Entry
}

// NodeState is the checkable state of one node.
type NodeState struct {
	Addr mnet.Addr
	// FIB is the node's kernel forwarding table.
	FIB []route.FIBRoute
	// RIBs are the node's per-protocol routing tables.
	RIBs []RIB
	// Neighbors is the node's neighbour-table view (nil when the deployed
	// composition exposes none).
	Neighbors []neighbor.Info
}

// Snapshot is a point-in-time capture of the cluster, taken after the
// convergence bound has elapsed.
type Snapshot struct {
	// Now is the virtual time of the capture (route lifetimes are evaluated
	// against it).
	Now time.Time
	// Topo is the live link graph.
	Topo Topology
	// Nodes is the per-node state, sorted by address.
	Nodes []NodeState
}

// Checker is one pluggable snapshot invariant.
type Checker interface {
	// Name identifies the invariant in Violations.
	Name() string
	// Check examines the snapshot and returns every breach found.
	Check(s *Snapshot) []Violation
}

// Suite is an ordered set of checkers run together.
type Suite struct {
	checkers []Checker
}

// NewSuite returns a suite over the given checkers.
func NewSuite(checkers ...Checker) *Suite { return &Suite{checkers: checkers} }

// DefaultSuite returns the standard protocol invariants: no routing loops,
// route liveness, neighbour-table symmetry.
func DefaultSuite() *Suite {
	return NewSuite(NoLoops{}, RouteLiveness{}, NeighborSymmetry{})
}

// Register appends further checkers.
func (s *Suite) Register(c ...Checker) { s.checkers = append(s.checkers, c...) }

// Checkers lists the registered checker names.
func (s *Suite) Checkers() []string {
	out := make([]string, len(s.checkers))
	for i, c := range s.checkers {
		out[i] = c.Name()
	}
	return out
}

// Run executes every checker against the snapshot and returns all
// violations, sorted for deterministic reporting.
func (s *Suite) Run(snap *Snapshot) []Violation {
	var out []Violation
	for _, c := range s.checkers {
		out = append(out, c.Check(snap)...)
	}
	SortViolations(out)
	return out
}

// SortViolations orders violations by (checker, node, detail) so reports
// are reproducible run to run.
func SortViolations(v []Violation) {
	sort.Slice(v, func(i, j int) bool {
		if v[i].Checker != v[j].Checker {
			return v[i].Checker < v[j].Checker
		}
		if v[i].Node != v[j].Node {
			return v[i].Node.Less(v[j].Node)
		}
		return v[i].Detail < v[j].Detail
	})
}

// nodeIndex maps addresses to their snapshot state.
func (s *Snapshot) nodeIndex() map[mnet.Addr]*NodeState {
	idx := make(map[mnet.Addr]*NodeState, len(s.Nodes))
	for i := range s.Nodes {
		idx[s.Nodes[i].Addr] = &s.Nodes[i]
	}
	return idx
}

// lookupFIB finds dst's host route in a snapshot FIB.
func lookupFIB(fib []route.FIBRoute, dst mnet.Addr) (route.FIBRoute, bool) {
	for _, r := range fib {
		if r.Dst.Addr == dst {
			return r, true
		}
	}
	return route.FIBRoute{}, false
}

// reachable reports whether to can be reached from from over live links,
// searching breadth-first over the snapshot's node set.
func reachable(topo Topology, nodes []NodeState, from, to mnet.Addr) bool {
	if from == to {
		return true
	}
	visited := map[mnet.Addr]bool{from: true}
	queue := []mnet.Addr{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range nodes {
			if visited[n.Addr] || !topo.Linked(cur, n.Addr) {
				continue
			}
			if n.Addr == to {
				return true
			}
			visited[n.Addr] = true
			queue = append(queue, n.Addr)
		}
	}
	return false
}
