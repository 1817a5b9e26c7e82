package harness

// The scale ablation: how large an emulated network the medium sustains
// with routing protocols live. The MANET evaluation literature runs
// 50–1000-node scenarios as table stakes; the discrete-event core
// (internal/emunet/engine.go) exists to put this repo in the same regime,
// and MeasureScale is the harness that proves it — node counts into the
// thousands with OLSR or AODV deployed on every node, deterministic frame
// counts for the CI gate, and wall-clock throughput for trending.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/testbed"
)

// ScaleSpec configures one cell of the scale ablation.
type ScaleSpec struct {
	// Protocol is "olsr" or "aodv".
	Protocol string
	// Nodes is the network size (default 100).
	Nodes int
	// Cols is the grid width (default ~sqrt(Nodes)).
	Cols int
	// Window is the virtual time driven (default 4s: two HELLO rounds plus
	// AODV discovery wavefronts, deliberately inside the first TCInterval —
	// a topology-wide TC flood is O(n²) deliveries and gets its own regime
	// once the mobility models land).
	Window time.Duration
	// Probes is the number of AODV route discoveries injected (default
	// 4 + Nodes/500, ignored for olsr). Most target a destination a few
	// hops away so the expanding ring resolves inside the window; the last
	// targets the far corner, forcing a full-diameter RREQ flood.
	Probes int
	// Seed drives the medium's loss process (default 1).
	Seed int64
}

func (s ScaleSpec) withDefaults() ScaleSpec {
	if s.Nodes <= 0 {
		s.Nodes = 100
	}
	if s.Cols <= 0 {
		s.Cols = int(math.Ceil(math.Sqrt(float64(s.Nodes))))
	}
	if s.Window <= 0 {
		s.Window = 4 * time.Second
	}
	if s.Probes <= 0 {
		s.Probes = 4 + s.Nodes/500
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// ScaleResult reports one scale-ablation cell. Stats and Routes are pure
// functions of the spec (virtual clock + seeds) and must reproduce exactly
// on any host at any GOMAXPROCS — the replay tests pin that. Elapsed,
// NodeSecPerSec and AllocsPerRx are host measurements.
type ScaleResult struct {
	Spec    ScaleSpec
	Virtual time.Duration // virtual time driven
	Elapsed time.Duration // wall clock for the drive
	Stats   emunet.Stats  // medium counters over the window (deterministic)
	// Routes is the protocol-liveness evidence: for aodv, how many probes
	// established a route by the end of the window; for olsr, the valid
	// route count at a mid-grid node.
	Routes int
	// NodeSecPerSec is emulation throughput: simulated node·seconds per
	// wall second (Nodes × Window / Elapsed).
	NodeSecPerSec float64
	// AllocsPerRx is heap allocations per delivered frame over the drive.
	AllocsPerRx float64
}

// Print writes the human-readable cell summary.
func (r ScaleResult) Print() {
	fmt.Printf("%-5s n=%-5d window=%v wall=%-8v tx=%-8d rx=%-8d routes=%-4d %10.0f node·s/s %6.2f allocs/rx\n",
		r.Spec.Protocol, r.Spec.Nodes, r.Virtual, r.Elapsed.Round(time.Millisecond),
		r.Stats.TxFrames, r.Stats.RxFrames, r.Routes, r.NodeSecPerSec, r.AllocsPerRx)
}

// MeasureScale builds an n-node grid with the protocol deployed on every
// node, drives the window on the virtual clock, and reports medium counts
// plus emulation throughput. Cluster construction and teardown are outside
// the measured region.
func MeasureScale(spec ScaleSpec) (ScaleResult, error) {
	spec = spec.withDefaults()
	c, err := testbed.New(spec.Nodes, testbed.Options{Seed: spec.Seed})
	if err != nil {
		return ScaleResult{}, err
	}
	defer c.Close()

	if spec.Protocol != "olsr" && spec.Protocol != "aodv" {
		return ScaleResult{}, fmt.Errorf("harness: unknown scale protocol %q", spec.Protocol)
	}
	fams := make([]*FamilyNode, spec.Nodes)
	for i, node := range c.Nodes {
		if fams[i], err = DeployFamily(c, node, spec.Protocol); err != nil {
			return ScaleResult{}, err
		}
	}
	if err := c.Grid(spec.Cols); err != nil {
		return ScaleResult{}, err
	}

	addrs := c.Addrs()
	type probe struct{ src, dst int }
	var probes []probe
	if spec.Protocol == "aodv" {
		rows := (spec.Nodes + spec.Cols - 1) / spec.Cols
		for i := 0; i < spec.Probes; i++ {
			src := (i * 7919) % spec.Nodes
			// Step 2 rows and 3 columns (reflecting off the grid edges) so
			// every destination sits ~5 hops out — inside the expanding
			// ring's reach (TTLStart=2, +2 per try, 3 tries ⇒ max TTL 6)
			// with the third attempt landing about 2.2s after the send.
			r, col := src/spec.Cols, src%spec.Cols
			dr, dc := r+2, col+3
			if dr >= rows {
				dr = r - 2
			}
			if dc >= spec.Cols {
				dc = col - 3
			}
			dst := dr*spec.Cols + dc
			if i == spec.Probes-1 {
				// Far corner: exhausts the expanding ring without resolving,
				// exercising the retry/give-up path and its RREQ floods.
				src, dst = 0, spec.Nodes-1
			}
			if dst < 0 || dst >= spec.Nodes || src == dst {
				dst = (src + 1) % spec.Nodes
			}
			p := probe{src, dst}
			probes = append(probes, p)
			at := 200*time.Millisecond + time.Duration(i)*150*time.Millisecond
			c.Clock.AfterFunc(at, func() {
				_ = c.Nodes[p.src].Sys.Filter().SendData(addrs[p.dst], []byte("scale probe"))
			})
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now() //mk:allow determinism wall-clock throughput measurement, reports real elapsed time
	c.Run(spec.Window)
	elapsed := time.Since(start) //mk:allow determinism wall-clock throughput measurement, reports real elapsed time
	runtime.ReadMemStats(&m1)

	res := ScaleResult{
		Spec:    spec,
		Virtual: spec.Window,
		Elapsed: elapsed,
		Stats:   c.Net.Stats(),
	}
	if elapsed > 0 {
		res.NodeSecPerSec = float64(spec.Nodes) * spec.Window.Seconds() / elapsed.Seconds()
	}
	if res.Stats.RxFrames > 0 {
		res.AllocsPerRx = float64(m1.Mallocs-m0.Mallocs) / float64(res.Stats.RxFrames)
	}
	switch spec.Protocol {
	case "olsr":
		res.Routes = fams[spec.Nodes/2].RIBs["olsr"].ValidCount()
	case "aodv":
		for _, p := range probes {
			if _, _, err := fams[p.src].RIBs["aodv"].Lookup(addrs[p.dst]); err == nil {
				res.Routes++
			}
		}
	}
	return res, nil
}

// Digest is a compact rendering of a ScaleResult's deterministic fields,
// used by the replay tests to compare runs across GOMAXPROCS settings.
func (r ScaleResult) Digest() string {
	return fmt.Sprintf("proto=%s n=%d tx=%d rx=%d lostLoss=%d lostNoLink=%d txB=%d rxB=%d routes=%d",
		r.Spec.Protocol, r.Spec.Nodes, r.Stats.TxFrames, r.Stats.RxFrames,
		r.Stats.DroppedLoss, r.Stats.DroppedNoLink, r.Stats.TxBytes, r.Stats.RxBytes, r.Routes)
}
