package inspect_test

import (
	"strings"
	"testing"
	"time"

	"manetkit/internal/harness"
	"manetkit/internal/inspect"
	"manetkit/internal/metrics"
	"manetkit/internal/testbed"
	"manetkit/internal/trace"
)

// hop is the pinned shape of one reconstructed link traversal.
type hop struct {
	from, to string
	lat      time.Duration
}

// TestGoldenAODVPathReconstruction pins the causal packet paths of one
// seeded AODV route discovery on a 3-node line: the RREQ flood tree, the
// unicast RREP back along the reverse route, and the data packet over the
// established route. The virtual clock and seeded medium make every hop
// and latency a pure function of (composition, seed), so this is a golden
// test — if it drifts, either the discovery logic or the correlation-ID
// propagation changed.
func TestGoldenAODVPathReconstruction(t *testing.T) {
	tr := trace.New(testbed.Epoch, 0)
	c, err := testbed.New(3, testbed.Options{Seed: 1, Tracer: tr, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatalf("testbed.New: %v", err)
	}
	defer c.Close()
	if err := c.Line(); err != nil {
		t.Fatalf("Line: %v", err)
	}
	for _, node := range c.Nodes {
		if _, err := harness.DeployFamily(c, node, "aodv"); err != nil {
			t.Fatalf("DeployFamily: %v", err)
		}
	}
	c.Run(13 * time.Second)
	tr.Reset() // isolate the discovery from the convergence traffic
	if err := c.Nodes[0].Sys.Filter().SendData(c.Nodes[2].Addr, []byte("golden")); err != nil {
		t.Fatalf("SendData: %v", err)
	}
	c.Run(5 * time.Second)

	byCorr := make(map[string]inspect.Path)
	for _, p := range inspect.Correlate(tr.Spans()) {
		byCorr[p.Corr] = p
	}

	const ms = time.Millisecond
	golden := []struct {
		corr   string
		origin string
		start  time.Duration
		hops   []hop
	}{
		// The RREQ floods: node 1 broadcasts, node 2 rebroadcasts (heard
		// redundantly by 1, newly by 3). Each link adds the medium's 1.5ms.
		{"RREQ:10.0.0.1:1", "10.0.0.1", 13 * time.Second, []hop{
			{"10.0.0.1", "10.0.0.2", 1500 * time.Microsecond},
			{"10.0.0.2", "10.0.0.1", 1500 * time.Microsecond},
			{"10.0.0.2", "10.0.0.3", 1500 * time.Microsecond},
		}},
		// The RREP unicasts back along the reverse route.
		{"RREP:10.0.0.3:1", "10.0.0.3", 13*time.Second + 3*ms, []hop{
			{"10.0.0.3", "10.0.0.2", 1500 * time.Microsecond},
			{"10.0.0.2", "10.0.0.1", 1500 * time.Microsecond},
		}},
		// The held data packet forwards over the established route.
		{"DATA:10.0.0.1:1", "10.0.0.1", 13 * time.Second, []hop{
			{"10.0.0.1", "10.0.0.2", 1500 * time.Microsecond},
			{"10.0.0.2", "10.0.0.3", 1500 * time.Microsecond},
		}},
	}
	for _, g := range golden {
		p, ok := byCorr[g.corr]
		if !ok {
			t.Errorf("no reconstructed path for %s; have %v", g.corr, corrs(byCorr))
			continue
		}
		if p.Origin != g.origin {
			t.Errorf("%s origin = %s, want %s", g.corr, p.Origin, g.origin)
		}
		if p.Start != g.start {
			t.Errorf("%s start = %s, want %s", g.corr, p.Start, g.start)
		}
		if p.Drops != 0 {
			t.Errorf("%s records %d frame drops, want 0", g.corr, p.Drops)
		}
		if len(p.Hops) != len(g.hops) {
			t.Errorf("%s has %d hops, want %d: %+v", g.corr, len(p.Hops), len(g.hops), p.Hops)
			continue
		}
		for i, h := range p.Hops {
			want := g.hops[i]
			if h.From != want.from || h.To != want.to {
				t.Errorf("%s hop %d = %s -> %s, want %s -> %s", g.corr, i, h.From, h.To, want.from, want.to)
			}
			if h.Latency != want.lat {
				t.Errorf("%s hop %d latency = %s, want %s", g.corr, i, h.Latency, want.lat)
			}
			if h.Rx-h.Tx != h.Latency {
				t.Errorf("%s hop %d latency %s inconsistent with tx=%s rx=%s", g.corr, i, h.Latency, h.Tx, h.Rx)
			}
		}
	}

	// The RREQ's propagation tree renders as a flood rooted at the
	// originator, with node 2's rebroadcast fanning out underneath.
	tree := byCorr["RREQ:10.0.0.1:1"].Tree()
	for _, want := range []string{
		"RREQ:10.0.0.1:1",
		"10.0.0.1 -> 10.0.0.2  (+1.5ms)",
		"  10.0.0.2 -> 10.0.0.1  (+1.5ms)",
		"  10.0.0.2 -> 10.0.0.3  (+1.5ms)",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("RREQ tree missing %q:\n%s", want, tree)
		}
	}

	// Rendering caps honour the limit and report the elision.
	all := inspect.Correlate(tr.Spans())
	if len(all) < 3 {
		t.Fatalf("expected at least 3 correlated paths, got %d", len(all))
	}
	out := inspect.RenderPaths(all, 2)
	if !strings.Contains(out, "more paths elided") {
		t.Errorf("RenderPaths(limit=2) did not report elision:\n%s", out)
	}
}

func corrs(m map[string]inspect.Path) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCorrelateDeterministic: correlation over two identical runs yields
// identical renderings (path order, hops, latencies).
func TestCorrelateDeterministic(t *testing.T) {
	render := func() string {
		tr := trace.New(testbed.Epoch, 0)
		c, err := testbed.New(3, testbed.Options{Seed: 1, Tracer: tr})
		if err != nil {
			t.Fatalf("testbed.New: %v", err)
		}
		defer c.Close()
		if err := c.Line(); err != nil {
			t.Fatalf("Line: %v", err)
		}
		for _, node := range c.Nodes {
			if _, err := harness.DeployFamily(c, node, "aodv"); err != nil {
				t.Fatalf("DeployFamily: %v", err)
			}
		}
		c.Run(13 * time.Second)
		if err := c.Nodes[0].Sys.Filter().SendData(c.Nodes[2].Addr, []byte("x")); err != nil {
			t.Fatalf("SendData: %v", err)
		}
		c.Run(5 * time.Second)
		return inspect.RenderPaths(inspect.Correlate(tr.Spans()), 0)
	}
	if a, b := render(), render(); a != b {
		t.Errorf("path reconstructions of identical runs differ:\n%s\nvs\n%s", a, b)
	}
}
