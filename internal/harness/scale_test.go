package harness

import (
	"testing"
	"time"
)

// TestScaleOLSRRandom30 converges the proactive composition on a 30-node
// random topology and checks every node can route to every other — the
// "network grows" regime of the paper's motivation (§2).
func TestScaleOLSRRandom30(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	c, kits, err := FamilyCluster(30, "olsr")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Random(0.08, 42); err != nil {
		t.Fatal(err)
	}
	c.Run(60 * time.Second)

	addrs := c.Addrs()
	missing := 0
	for i, k := range kits {
		for j, dst := range addrs {
			if i == j {
				continue
			}
			if _, _, err := k.Set.OLSR().Routes().Lookup(dst); err != nil {
				missing++
			}
		}
	}
	if missing != 0 {
		t.Fatalf("%d of %d node pairs unroutable after convergence", missing, 30*29)
	}
	// MPR selection thinned the relay graph: the total number of
	// (selector, relay) edges is well below the symmetric link count.
	selections, links := 0, 0
	for _, k := range kits {
		selections += len(k.Set.MPR().State().Selected())
		links += len(k.Set.MPR().State().Links.SymmetricAddrs())
	}
	if selections == 0 || selections >= links {
		t.Fatalf("MPR selection did not thin the graph: %d selections over %d links", selections, links)
	}
}

// TestScaleDYMODiscoveries30 runs several cold discoveries across the same
// random 30-node topology and verifies they complete with plausible
// metrics.
func TestScaleDYMODiscoveries30(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	c, kits, err := FamilyCluster(30, "dymo")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Random(0.08, 42); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Second)

	addrs := c.Addrs()
	pairs := [][2]int{{0, 29}, {5, 22}, {13, 2}, {29, 7}}
	for _, pair := range pairs {
		src, dst := pair[0], pair[1]
		if err := kits[src].Node.Sys.Filter().SendData(addrs[dst], []byte("probe")); err != nil {
			t.Fatal(err)
		}
		c.Run(3 * time.Second)
		_, p, err := kits[src].Set.DYMO().Routes().Lookup(addrs[dst])
		if err != nil {
			t.Fatalf("discovery %d->%d failed: %v", src, dst, err)
		}
		if p.Metric < 1 || p.Metric > 29 {
			t.Fatalf("discovery %d->%d metric %d implausible", src, dst, p.Metric)
		}
	}
}

// TestScaleMixedProtocolsPartition stresses co-deployment under a
// partition/heal cycle on a 12-node grid.
func TestScaleMixedProtocolsPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	c, kits, err := FamilyCluster(12, "olsr")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Grid(4); err != nil {
		t.Fatal(err)
	}
	c.Run(40 * time.Second)
	if got := kits[0].Set.OLSR().Routes().ValidCount(); got != 11 {
		t.Fatalf("pre-partition routes = %d", got)
	}
	// Sever the middle column pair boundaries: cut all links between
	// column 1 and column 2 (grid is 4 wide, 3 rows).
	addrs := c.Addrs()
	for row := 0; row < 3; row++ {
		c.Net.CutLink(addrs[row*4+1], addrs[row*4+2])
	}
	c.Run(40 * time.Second)
	left := kits[0].Set.OLSR().Routes().ValidCount()
	if left >= 11 {
		t.Fatalf("partition not observed: %d routes", left)
	}
	// Heal.
	q := linkQuality()
	for row := 0; row < 3; row++ {
		if err := c.Net.SetLink(addrs[row*4+1], addrs[row*4+2], q); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(40 * time.Second)
	if got := kits[0].Set.OLSR().Routes().ValidCount(); got != 11 {
		t.Fatalf("post-heal routes = %d", got)
	}
}
