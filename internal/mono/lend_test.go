package mono

import (
	"fmt"
	"testing"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// lossyGrid runs twin on a 3x3 grid of links that lose 10 % of frames,
// on medium seed 1, with a capture tap installed when tap is set, and
// returns the state twin reports.
func lossyGrid(t *testing.T, tap bool, twin func(clk *vclock.Virtual, nics []*emunet.NIC, addrs []mnet.Addr) string) string {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	net := emunet.New(clk, 1)
	addrs := emunet.Addrs(9)
	q := emunet.DefaultQuality()
	q.Loss = 0.1
	if err := emunet.BuildGrid(net, addrs, 3, q); err != nil {
		t.Fatal(err)
	}
	if tap {
		net.SetTap(func(emunet.Frame, mnet.Addr) {})
	}
	nics := make([]*emunet.NIC, len(addrs))
	for i, a := range addrs {
		nics[i], _ = net.NIC(a)
	}
	return twin(clk, nics, addrs)
}

// olsrState runs the OLSR twin for 40 s and reports every node's routes,
// next hops included, topology set, ANSNs and MPR selectors.
func olsrState(clk *vclock.Virtual, nics []*emunet.NIC, addrs []mnet.Addr) string {
	nodes := make([]*OLSR, len(nics))
	for i, nic := range nics {
		nodes[i] = NewOLSR(nic, clk, OLSRConfig{})
		nodes[i].Start()
		defer nodes[i].Stop()
	}
	clk.Advance(40 * time.Second)
	out := ""
	for _, n := range nodes {
		n.mu.Lock()
		out += fmt.Sprint(n.routes, n.topo, n.ansnSeen, n.selectors, "\n")
		n.mu.Unlock()
	}
	return out
}

// TestMonoTwinsKeepNoLentBytes: the twins decode the medium's lent payload
// privately (packetbb.DecodePacket aliases it) and read it only inside the
// receive upcall. Each twin runs the same seeded scenario twice: once with
// lending live, where a byte kept past the upcall would read the poison of
// a recycled buffer, and once with a capture tap installed, which makes the
// medium keep every buffer. The routing state must come out identical.
func TestMonoTwinsKeepNoLentBytes(t *testing.T) {
	dymo := func(clk *vclock.Virtual, nics []*emunet.NIC, addrs []mnet.Addr) string {
		nodes := make([]*DYMO, len(nics))
		for i, nic := range nics {
			nodes[i] = NewDYMO(nic, clk, DYMOConfig{})
			nodes[i].Start()
			defer nodes[i].Stop()
		}
		out := ""
		for i := range nodes {
			dst := addrs[len(addrs)-1-i]
			nodes[i].Discover(dst, func(ok bool) { out += fmt.Sprint(ok) })
			clk.Advance(500 * time.Millisecond)
		}
		for _, n := range nodes {
			for _, dst := range addrs {
				h, ok := n.Lookup(dst)
				out += fmt.Sprint(h, ok)
			}
			out += "\n"
		}
		return out
	}
	for name, twin := range map[string]func(*vclock.Virtual, []*emunet.NIC, []mnet.Addr) string{"olsr": olsrState, "dymo": dymo} {
		lent, kept := lossyGrid(t, false, twin), lossyGrid(t, true, twin)
		if lent != kept {
			t.Errorf("%s: routing state with lending live differs from a run that keeps every buffer:\nlent:\n%s\nkept:\n%s", name, lent, kept)
		}
	}
}

// TestMonoOLSRRoutesRepeatOnOneSeed: two runs of one seeded scenario
// install the same routes, next hops included. Among equal-cost next hops
// the twin takes the smallest, the kit's rule, not the first a map walk
// meets.
func TestMonoOLSRRoutesRepeatOnOneSeed(t *testing.T) {
	if a, b := lossyGrid(t, false, olsrState), lossyGrid(t, false, olsrState); a != b {
		t.Fatalf("two runs on one seed differ:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}
