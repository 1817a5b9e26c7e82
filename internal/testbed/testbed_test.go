package testbed

import (
	"testing"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
)

// deployDetector puts a HELLO-beaconing neighbour detector on a node so
// the cluster has periodic traffic to observe.
func deployDetector(t *testing.T, n *Node) *neighbor.Detector {
	t.Helper()
	d := neighbor.New("", neighbor.Config{HelloInterval: 2 * time.Second})
	if err := n.Mgr.Deploy(d.Protocol()); err != nil {
		t.Fatalf("deploy detector: %v", err)
	}
	if err := d.Protocol().Start(); err != nil {
		t.Fatalf("start detector: %v", err)
	}
	return d
}

func TestNewBuildsStartedNodes(t *testing.T) {
	c, err := New(4, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if len(c.Nodes) != 4 {
		t.Fatalf("got %d nodes", len(c.Nodes))
	}
	if got := c.Clock.Now(); !got.Equal(Epoch) {
		t.Fatalf("clock starts at %v, want %v", got, Epoch)
	}
	for i, n := range c.Nodes {
		if n.Addr != emunet.Addrs(4)[i] {
			t.Fatalf("node %d addr %v", i, n.Addr)
		}
		if !n.Sys.Protocol().Started() {
			t.Fatalf("node %d System CF not started", i)
		}
		if n.FIB() == nil {
			t.Fatalf("node %d has no FIB", i)
		}
		if c.Node(i) != n {
			t.Fatalf("Node(%d) mismatch", i)
		}
	}
	if len(c.Addrs()) != 4 {
		t.Fatalf("Addrs: %v", c.Addrs())
	}
}

// TestSharedVirtualClock verifies every node's timers run off the one
// cluster clock: advancing it moves HELLO traffic on all nodes at once.
func TestSharedVirtualClock(t *testing.T) {
	c, err := New(2, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if err := c.Line(); err != nil {
		t.Fatalf("Line: %v", err)
	}
	var dets []*neighbor.Detector
	for _, n := range c.Nodes {
		dets = append(dets, deployDetector(t, n))
	}
	c.Run(10 * time.Second)
	if got := c.Net.Stats().TxFrames; got == 0 {
		t.Fatalf("no frames after 10s: the nodes are not on the cluster clock")
	}
	// Both nodes beaconed off the one clock, and heard each other.
	for i, n := range c.Nodes {
		st := n.Sys.Stats()
		if tx, rx := st.CtrlSent, st.CtrlReceived; tx == 0 || rx == 0 {
			t.Fatalf("node %d tx=%d rx=%d: not driven by the cluster clock", i, tx, rx)
		}
		peer := c.Nodes[1-i].Addr
		if got, ok := dets[i].Table().Get(peer); !ok || got.Status != neighbor.StatusSymmetric {
			t.Fatalf("node %d never sensed %v", i, peer)
		}
	}
	want := Epoch.Add(10 * time.Second)
	if got := c.Clock.Now(); !got.Equal(want) {
		t.Fatalf("clock at %v, want %v", got, want)
	}
}

func TestTopologyHelpers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(c *Cluster) error
		links [][2]int // expected sample links (node indices)
	}{
		{"line", func(c *Cluster) error { return c.Line() }, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"grid", func(c *Cluster) error { return c.Grid(2) }, [][2]int{{0, 1}, {0, 2}, {1, 3}}},
		{"clique", func(c *Cluster) error { return c.Clique() }, [][2]int{{0, 3}, {1, 2}}},
		{"random", func(c *Cluster) error { return c.Random(0.5, 3) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(4, Options{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer c.Close()
			if err := tc.build(c); err != nil {
				t.Fatalf("build: %v", err)
			}
			addrs := c.Addrs()
			for _, l := range tc.links {
				if !c.Net.Linked(addrs[l[0]], addrs[l[1]]) {
					t.Fatalf("%s: nodes %d and %d not linked", tc.name, l[0], l[1])
				}
			}
			// Random must at least leave every node connected somehow.
			if tc.name == "random" {
				for i, a := range addrs {
					any := false
					for _, b := range addrs {
						if a != b && c.Net.Linked(a, b) {
							any = true
						}
					}
					if !any {
						t.Fatalf("random left node %d isolated", i)
					}
				}
			}
		})
	}
}

// TestAddNodeJoinsRunningCluster covers the route-establishment
// experiment's shape: a node joins (and re-joins) a live network.
func TestAddNodeJoinsRunningCluster(t *testing.T) {
	c, err := New(2, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if err := c.Line(); err != nil {
		t.Fatalf("Line: %v", err)
	}
	c.Run(5 * time.Second)

	late := mnet.MustParseAddr("10.0.0.100")
	node, err := c.AddNode(late)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if len(c.Nodes) != 3 || node.Addr != late {
		t.Fatalf("join failed: %d nodes", len(c.Nodes))
	}
	if err := c.Net.SetLink(late, c.Nodes[1].Addr, emunet.DefaultQuality()); err != nil {
		t.Fatalf("SetLink: %v", err)
	}
	if !c.Net.Linked(late, c.Nodes[1].Addr) {
		t.Fatalf("late node not linked")
	}
	// A second node at the same address must be refused while attached.
	if _, err := c.AddNode(late); err == nil {
		t.Fatalf("duplicate address accepted")
	}
}

// TestNodeReattachAfterCrash exercises the crash-modeling path: detach a
// node's NIC mid-run, then re-attach the same NIC and verify traffic
// flows again.
func TestNodeReattachAfterCrash(t *testing.T) {
	c, err := New(3, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if err := c.Line(); err != nil {
		t.Fatalf("Line: %v", err)
	}
	for _, n := range c.Nodes {
		deployDetector(t, n)
	}
	c.Run(4 * time.Second)

	victim := c.Nodes[1]
	nic := victim.Sys.NIC()
	saved := c.Net.Neighbors(victim.Addr)
	if len(saved) == 0 {
		t.Fatalf("victim has no links to lose")
	}
	if err := c.Net.Detach(victim.Addr); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	rxAtDetach := c.Net.Stats().RxFrames
	ctrlRxAtDetach := victim.Sys.Stats().CtrlReceived
	c.Run(4 * time.Second)
	if c.Net.Linked(c.Nodes[0].Addr, victim.Addr) {
		t.Fatalf("victim still linked after detach")
	}
	if rx := victim.Sys.Stats().CtrlReceived; rx != ctrlRxAtDetach {
		t.Fatalf("detached node still receiving: %d -> %d", ctrlRxAtDetach, rx)
	}

	if err := c.Net.Reattach(nic); err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	for _, nb := range saved {
		if err := c.Net.SetLink(victim.Addr, nb, emunet.DefaultQuality()); err != nil {
			t.Fatalf("relink: %v", err)
		}
	}
	c.Run(4 * time.Second)
	if got := c.Net.Stats().RxFrames; got <= rxAtDetach {
		t.Fatalf("no deliveries after re-attach: %d then %d", rxAtDetach, got)
	}
}

// TestCloseIsIdempotentTeardown verifies teardown silences the cluster
// and can run twice without panicking.
func TestCloseIsIdempotentTeardown(t *testing.T) {
	c, err := New(2, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Line(); err != nil {
		t.Fatalf("Line: %v", err)
	}
	for _, n := range c.Nodes {
		deployDetector(t, n)
	}
	c.Run(3 * time.Second)
	if c.Net.Stats().TxFrames == 0 {
		t.Fatalf("cluster silent before Close")
	}
	c.Close()
	before := c.Net.Stats().TxFrames
	c.Run(5 * time.Second)
	if got := c.Net.Stats().TxFrames; got != before {
		t.Fatalf("closed cluster still transmits: %d -> %d", before, got)
	}
	c.Close() // second Close must not panic
}
