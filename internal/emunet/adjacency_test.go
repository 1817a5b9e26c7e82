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

// Property tests for the link set: the per-sender adjacency lists that
// SetLink/CutLink/Detach mutate, partitions cut and heal, and fan-out reads.
// The oracle is a directed-link model the tests maintain from their own
// mutation scripts; after any randomized mutation sequence the medium must
// describe the same graph, or delivery would silently diverge from the
// declared topology.

// linkModel is the oracle: the directed links the script has declared, and
// which nodes are attached.
type linkModel struct {
	links    map[[2]mnet.Addr]Quality
	attached map[mnet.Addr]bool
}

// newLinkModel models nodes attached with no links.
func newLinkModel(nodes []mnet.Addr) *linkModel {
	m := &linkModel{links: map[[2]mnet.Addr]Quality{}, attached: map[mnet.Addr]bool{}}
	for _, a := range nodes {
		m.attached[a] = true
	}
	return m
}

// set mirrors SetLink.
func (m *linkModel) set(a, b mnet.Addr, q Quality) {
	m.setDirected(a, b, q)
	m.setDirected(b, a, q)
}

// setDirected mirrors SetDirectedLink: both ends must be attached.
func (m *linkModel) setDirected(a, b mnet.Addr, q Quality) {
	if a != b && m.attached[a] && m.attached[b] {
		m.links[[2]mnet.Addr{a, b}] = q
	}
}

func (m *linkModel) cut(a, b mnet.Addr) {
	delete(m.links, [2]mnet.Addr{a, b})
	delete(m.links, [2]mnet.Addr{b, a})
}

func (m *linkModel) detach(a mnet.Addr) {
	delete(m.attached, a)
	for k := range m.links {
		if k[0] == a || k[1] == a {
			delete(m.links, k)
		}
	}
}

// neighbors is a node's sorted out-neighbours in the model.
func (m *linkModel) neighbors(from mnet.Addr) []mnet.Addr {
	var out []mnet.Addr
	for k := range m.links {
		if k[0] == from {
			out = append(out, k[1])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Uint32() < out[j].Uint32() })
	return out
}

// checkAdjacency asserts that every node's Neighbors, and every pair's
// Linked and LinkQuality, agree with the model.
func checkAdjacency(t *testing.T, net *Network, m *linkModel, nodes []mnet.Addr, step int) {
	t.Helper()
	for _, from := range nodes {
		want, got := m.neighbors(from), net.Neighbors(from)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("step %d: Neighbors(%v) = %v, model says %v", step, from, got, want)
		}
		for _, to := range nodes {
			wq, wok := m.links[[2]mnet.Addr{from, to}]
			q, ok := net.LinkQuality(from, to)
			if ok != wok || q != wq || net.Linked(from, to) != wok {
				t.Fatalf("step %d: link %v->%v is %v %+v, model says %v %+v", step, from, to, ok, q, wok, wq)
			}
		}
	}
}

// TestAdjacencyMatchesLinkMatrix runs randomized mutation storms — directed
// and undirected links, cuts, detach/reattach, partitions cut and healed by
// a fault plan — over several seeds and sizes, checking the link set
// against the model after every batch.
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
			// BuildRandom's graph: a chain, plus each farther pair with
			// probability 0.3 drawn from the seed.
			model := newLinkModel(nodes)
			build := rand.New(rand.NewSource(tc.seed))
			for i := range nodes {
				if i+1 < tc.n {
					model.set(nodes[i], nodes[i+1], DefaultQuality())
				}
			}
			for i := range nodes {
				for j := i + 2; j < tc.n; j++ {
					if build.Float64() < 0.3 {
						model.set(nodes[i], nodes[j], DefaultQuality())
					}
				}
			}
			checkAdjacency(t, net, model, nodes, -1)
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
							model.set(a, b, DefaultQuality())
						}
					case 1:
						if a != b {
							q := DefaultQuality()
							q.Loss = rng.Float64() * 0.5
							_ = net.SetDirectedLink(a, b, q)
							model.setDirected(a, b, q)
						}
					case 2:
						net.CutLink(a, b)
						model.cut(a, b)
					case 3:
						if nic, ok := net.NIC(a); ok && len(parked) < tc.n-2 {
							if err := net.Detach(a); err == nil {
								parked[a] = nic
								model.detach(a)
							}
						}
					case 4:
						for addr, nic := range parked {
							if err := net.Reattach(nic); err != nil {
								t.Fatalf("Reattach(%v): %v", addr, err)
							}
							delete(parked, addr)
							model.attached[addr] = true
							break
						}
					case 5:
						// A short partition applied and healed entirely in
						// virtual time leaves the link set as it was (a
						// partition path that once forgot to keep the index
						// in sync broke the golden trace).
						mid := 1 + rng.Intn(tc.n-1)
						NewFaultPlan(int64(step*100+mut)).
							Partition(time.Millisecond, 2*time.Millisecond, nodes[:mid], nodes[mid:]).
							Apply(net)
						clk.Advance(5 * time.Millisecond)
					}
				}
				checkAdjacency(t, net, model, nodes, step)
			}
		})
	}
}

// TestAdjacencyMidPartition pins the link set during the partition window
// itself (not just after healing): while the groups are split, it must be
// the clique minus every cross-group link.
func TestAdjacencyMidPartition(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(epoch)
	net := New(clk, 9)
	nodes := Addrs(10)
	if err := BuildClique(net, nodes, DefaultQuality()); err != nil {
		t.Fatalf("BuildClique: %v", err)
	}
	clique, split := newLinkModel(nodes), newLinkModel(nodes)
	for _, a := range nodes {
		for _, b := range nodes {
			clique.setDirected(a, b, DefaultQuality())
			if (a.Less(nodes[5])) == (b.Less(nodes[5])) {
				split.setDirected(a, b, DefaultQuality())
			}
		}
	}
	NewFaultPlan(1).
		Partition(10*time.Millisecond, 30*time.Millisecond, nodes[:5], nodes[5:]).
		Apply(net)

	clk.Advance(20 * time.Millisecond) // inside the partition window
	checkAdjacency(t, net, split, nodes, 0)
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
	checkAdjacency(t, net, clique, nodes, 1)
	if got := len(net.Neighbors(nodes[0])); got != len(nodes)-1 {
		t.Fatalf("after heal, clique node has %d neighbours, want %d", got, len(nodes)-1)
	}
}
