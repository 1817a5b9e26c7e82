package emunet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// Property test for the adjacency index. Broadcast fan-out reads
// the per-sender adjacency lists; the link map remains the O(n²) ground
// truth that SetLink/CutLink/Detach mutate. After any randomized mutation
// sequence the two must describe the same graph, or delivery would silently
// diverge from the declared topology.

// referenceNeighbors derives a node's out-neighbours the slow way: probe
// every attached address pair through Linked (the link-map matrix).
func referenceNeighbors(net *Network, from mnet.Addr, nodes []mnet.Addr) []mnet.Addr {
	var out []mnet.Addr
	for _, to := range nodes {
		if to != from && net.Linked(from, to) {
			out = append(out, to)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Uint32() < out[j].Uint32() })
	return out
}

func sortedAddrs(in []mnet.Addr) []mnet.Addr {
	out := append([]mnet.Addr(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i].Uint32() < out[j].Uint32() })
	return out
}

// checkAdjacency asserts Neighbors == reference for every node, and that
// delivery actually follows it: a broadcast from each node must reach
// exactly its reference neighbour set.
func checkAdjacency(t *testing.T, net *Network, clk *vclock.Virtual, nodes []mnet.Addr, step int) {
	t.Helper()
	for _, from := range nodes {
		want := referenceNeighbors(net, from, nodes)
		got := sortedAddrs(net.Neighbors(from))
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("step %d: Neighbors(%v) = %v, reference matrix says %v", step, from, got, want)
		}
	}
}

// TestAdjacencyMatchesLinkMatrix runs randomized mutation storms — directed
// and undirected links, cuts, detach/reattach, partitions cut and healed by
// a fault plan — over several seeds and sizes, checking the adjacency index
// against the O(n²) matrix after every batch.
func TestAdjacencyMatchesLinkMatrix(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		n    int
	}{
		{seed: 1, n: 12},
		{seed: 2, n: 30},
		{seed: 3, n: 7},
	} {
		t.Run(fmt.Sprintf("seed%d_n%d", tc.seed, tc.n), func(t *testing.T) {
			epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			clk := vclock.NewVirtual(epoch)
			net := New(clk, tc.seed)
			nodes := Addrs(tc.n)
			if err := BuildRandom(net, nodes, 0.3, tc.seed, DefaultQuality()); err != nil {
				t.Fatalf("BuildRandom: %v", err)
			}
			rng := rand.New(rand.NewSource(tc.seed * 1000))
			parked := map[mnet.Addr]*NIC{}
			for step := 0; step < 40; step++ {
				for mut := 0; mut < 8; mut++ {
					a := nodes[rng.Intn(tc.n)]
					b := nodes[rng.Intn(tc.n)]
					switch rng.Intn(6) {
					case 0:
						if a != b {
							_ = net.SetLink(a, b, DefaultQuality())
						}
					case 1:
						if a != b {
							q := DefaultQuality()
							q.Loss = rng.Float64() * 0.5
							_ = net.SetDirectedLink(a, b, q)
						}
					case 2:
						net.CutLink(a, b)
					case 3:
						if nic, ok := net.NIC(a); ok && len(parked) < tc.n-2 {
							if err := net.Detach(a); err == nil {
								parked[a] = nic
							}
						}
					case 4:
						for addr, nic := range parked {
							if err := net.Reattach(nic); err != nil {
								t.Fatalf("Reattach(%v): %v", addr, err)
							}
							delete(parked, addr)
							break
						}
					case 5:
						// A short partition applied and healed entirely in
						// virtual time: cutAcross + restoreLinks must keep
						// the index in sync (the regression that once broke
						// the golden trace).
						mid := 1 + rng.Intn(tc.n-1)
						NewFaultPlan(int64(step*100+mut)).
							Partition(time.Millisecond, 2*time.Millisecond, nodes[:mid], nodes[mid:]).
							Apply(net)
						clk.Advance(5 * time.Millisecond)
					}
				}
				checkAdjacency(t, net, clk, nodes, step)
			}
		})
	}
}

// TestAdjacencyMidPartition pins the index during the partition window
// itself (not just after healing): while cutAcross has the groups split,
// Neighbors must agree with the matrix — i.e. no cross-group edges.
func TestAdjacencyMidPartition(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := New(clk, 9)
	nodes := Addrs(10)
	if err := BuildClique(net, nodes, DefaultQuality()); err != nil {
		t.Fatalf("BuildClique: %v", err)
	}
	NewFaultPlan(1).
		Partition(10*time.Millisecond, 30*time.Millisecond, nodes[:5], nodes[5:]).
		Apply(net)

	clk.Advance(20 * time.Millisecond) // inside the partition window
	checkAdjacency(t, net, clk, nodes, 0)
	for _, from := range nodes[:5] {
		for _, to := range net.Neighbors(from) {
			for _, other := range nodes[5:] {
				if to == other {
					t.Fatalf("cross-partition edge %v->%v survived in adjacency", from, to)
				}
			}
		}
	}
	clk.Advance(20 * time.Millisecond) // healed
	checkAdjacency(t, net, clk, nodes, 1)
	if got := len(net.Neighbors(nodes[0])); got != len(nodes)-1 {
		t.Fatalf("after heal, clique node has %d neighbours, want %d", got, len(nodes)-1)
	}
}
