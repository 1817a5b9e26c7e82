package invariant

import (
	"fmt"
	"strings"

	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
)

// NoLoops walks every forwarding decision hop by hop across the cluster's
// FIBs and reports any cycle: the distance-vector protocols' loop-freedom
// guarantee (DYMO/AODV sequence numbers, OLSR shortest-path trees) made
// machine-checkable.
type NoLoops struct{}

// Name implements Checker.
func (NoLoops) Name() string { return "no-loops" }

// Check implements Checker.
func (NoLoops) Check(s *Snapshot) []Violation {
	idx := s.nodeIndex()
	var out []Violation
	for _, n := range s.Nodes {
		for _, r := range n.FIB {
			dst := r.Dst.Addr
			if dst == n.Addr {
				continue
			}
			path := []mnet.Addr{n.Addr}
			visited := map[mnet.Addr]bool{n.Addr: true}
			cur := n.Addr
			for {
				state, ok := idx[cur]
				if !ok {
					break // next hop outside the snapshot: liveness's department
				}
				if cur == dst {
					break // delivered
				}
				hop, ok := lookupFIB(state.FIB, dst)
				if !ok {
					break // dead end, not a loop
				}
				next := hop.NextHop
				if visited[next] {
					out = append(out, Violation{
						Checker: "no-loops",
						Node:    n.Addr,
						Detail: fmt.Sprintf("routing loop towards %v: %s -> %v",
							dst, pathString(path), next),
					})
					break
				}
				visited[next] = true
				path = append(path, next)
				cur = next
			}
		}
	}
	return out
}

func pathString(path []mnet.Addr) string {
	parts := make([]string, len(path))
	for i, a := range path {
		parts[i] = a.String()
	}
	return strings.Join(parts, " -> ")
}

// RouteLiveness checks that every valid, unexpired route corresponds to the
// live network: its next hop must be reachable in one hop, and its
// destination must be reachable at all over current links. Run only after
// the convergence bound — mid-churn, stale routes are expected.
type RouteLiveness struct{}

// Name implements Checker.
func (RouteLiveness) Name() string { return "route-liveness" }

// Check implements Checker.
func (RouteLiveness) Check(s *Snapshot) []Violation {
	idx := s.nodeIndex()
	var out []Violation
	for _, n := range s.Nodes {
		for _, rib := range n.RIBs {
			for _, e := range rib.Entries {
				if !e.Valid {
					continue
				}
				best, ok := e.Best(s.Now)
				if !ok {
					continue // all paths expired: harmlessly stale
				}
				dst := e.Dst.Addr
				if dst == n.Addr {
					continue
				}
				if !s.Topo.Linked(n.Addr, best.NextHop) {
					out = append(out, Violation{
						Checker: "route-liveness",
						Node:    n.Addr,
						Detail: fmt.Sprintf("%s route to %v via %v, but the link to %v is down",
							rib.Proto, dst, best.NextHop, best.NextHop),
					})
					continue
				}
				if _, known := idx[dst]; !known {
					out = append(out, Violation{
						Checker: "route-liveness",
						Node:    n.Addr,
						Detail: fmt.Sprintf("%s route to %v, which is not an attached node",
							rib.Proto, dst),
					})
					continue
				}
				if !reachable(s.Topo, s.Nodes, n.Addr, dst) {
					out = append(out, Violation{
						Checker: "route-liveness",
						Node:    n.Addr,
						Detail: fmt.Sprintf("%s route to %v, which is unreachable over live links",
							rib.Proto, dst),
					})
				}
			}
		}
	}
	return out
}

// NeighborSymmetry checks the sensing layer: a neighbour a node believes
// symmetric must be linked both ways on the medium, and (when the peer
// exposes a neighbour table) the peer must still know about the node.
type NeighborSymmetry struct{}

// Name implements Checker.
func (NeighborSymmetry) Name() string { return "neighbor-symmetry" }

// Check implements Checker.
func (NeighborSymmetry) Check(s *Snapshot) []Violation {
	idx := s.nodeIndex()
	var out []Violation
	for _, n := range s.Nodes {
		for _, nb := range n.Neighbors {
			if nb.Status != neighbor.StatusSymmetric {
				continue
			}
			if !s.Topo.Linked(n.Addr, nb.Addr) || !s.Topo.Linked(nb.Addr, n.Addr) {
				out = append(out, Violation{
					Checker: "neighbor-symmetry",
					Node:    n.Addr,
					Detail: fmt.Sprintf("believes %v symmetric but the medium link is down",
						nb.Addr),
				})
				continue
			}
			peer, ok := idx[nb.Addr]
			if !ok || peer.Neighbors == nil {
				continue
			}
			mutual := false
			for _, back := range peer.Neighbors {
				if back.Addr == n.Addr && back.Status != neighbor.StatusLost {
					mutual = true
					break
				}
			}
			if !mutual {
				out = append(out, Violation{
					Checker: "neighbor-symmetry",
					Node:    n.Addr,
					Detail: fmt.Sprintf("believes %v symmetric but %v does not hear it back",
						nb.Addr, nb.Addr),
				})
			}
		}
	}
	return out
}
