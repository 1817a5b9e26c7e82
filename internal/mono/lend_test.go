package mono

import (
	"fmt"
	"testing"
	"time"

	"manetkit/internal/emunet"
	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// TestMonoTwinsKeepNoLentBytes: the twins decode the medium's lent payload
// privately (packetbb.DecodePacket aliases it) and read it only inside the
// receive upcall. Each twin runs the same seeded scenario twice: once with
// lending live, where a byte kept past the upcall would read the poison of
// a recycled buffer, and once with a capture tap installed, which makes the
// medium keep every buffer. The routing state must come out identical.
func TestMonoTwinsKeepNoLentBytes(t *testing.T) {
	run := func(tap bool, twin func(clk *vclock.Virtual, nics []*emunet.NIC, addrs []mnet.Addr) string) string {
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
	olsr := func(clk *vclock.Virtual, nics []*emunet.NIC, addrs []mnet.Addr) string {
		nodes := make([]*OLSR, len(nics))
		for i, nic := range nics {
			nodes[i] = NewOLSR(nic, clk, OLSRConfig{})
			nodes[i].Start()
			defer nodes[i].Stop()
		}
		clk.Advance(40 * time.Second)
		// Route metrics, not next hops: among equal-cost next hops the
		// twin picks by map order.
		out := ""
		for _, n := range nodes {
			n.mu.Lock()
			metrics := map[mnet.Addr]int{}
			for dst, h := range n.routes {
				metrics[dst] = h.Metric
			}
			out += fmt.Sprint(metrics, n.topo, n.ansnSeen, n.selectors, "\n")
			n.mu.Unlock()
		}
		return out
	}
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
	for name, twin := range map[string]func(*vclock.Virtual, []*emunet.NIC, []mnet.Addr) string{"olsr": olsr, "dymo": dymo} {
		lent, kept := run(false, twin), run(true, twin)
		if lent != kept {
			t.Errorf("%s: routing state with lending live differs from a run that keeps every buffer:\nlent:\n%s\nkept:\n%s", name, lent, kept)
		}
	}
}
