package emunet

// Edge cases of topology construction and link installation: self-loops,
// links naming unattached nodes, asymmetric (one-direction) links, ragged
// and degenerate grids, and random-topology parameter validation.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"manetkit/internal/mnet"
)

func TestLinkInstallEdgeCases(t *testing.T) {
	lossless := Quality{Delay: time.Millisecond, SignalDBm: -60}
	unknownA := mnet.MustParseAddr("10.9.9.8")
	unknownB := mnet.MustParseAddr("10.9.9.9")

	cases := []struct {
		name     string
		from, to func(attached []mnet.Addr) (mnet.Addr, mnet.Addr)
		wantErr  error
	}{
		{
			name:    "self loop",
			from:    func(a []mnet.Addr) (mnet.Addr, mnet.Addr) { return a[0], a[0] },
			wantErr: ErrSelfLink,
		},
		{
			name:    "self loop on unattached address",
			from:    func([]mnet.Addr) (mnet.Addr, mnet.Addr) { return unknownA, unknownA },
			wantErr: ErrSelfLink,
		},
		{
			name:    "unattached source",
			from:    func(a []mnet.Addr) (mnet.Addr, mnet.Addr) { return unknownA, a[1] },
			wantErr: ErrNotFound,
		},
		{
			name:    "unattached destination",
			from:    func(a []mnet.Addr) (mnet.Addr, mnet.Addr) { return a[0], unknownB },
			wantErr: ErrNotFound,
		},
		{
			name:    "both unattached",
			from:    func([]mnet.Addr) (mnet.Addr, mnet.Addr) { return unknownA, unknownB },
			wantErr: ErrNotFound,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := newNet(t)
			addrs := Addrs(2)
			for _, a := range addrs {
				attach(t, n, a)
			}
			from, to := tc.from(addrs)
			if err := n.SetDirectedLink(from, to, lossless); !errors.Is(err, tc.wantErr) {
				t.Errorf("SetDirectedLink(%v, %v) = %v, want %v", from, to, err, tc.wantErr)
			}
			if err := n.SetLink(from, to, lossless); !errors.Is(err, tc.wantErr) {
				t.Errorf("SetLink(%v, %v) = %v, want %v", from, to, err, tc.wantErr)
			}
			// A failed install must not leave a half-installed link behind.
			if n.Linked(from, to) || n.Linked(to, from) {
				t.Errorf("link %v<->%v partially installed after error", from, to)
			}
		})
	}
}

// TestAsymmetricLinkAccounting pins the medium-side semantics of a
// one-direction ("heard but not symmetric") link: frames flow with the
// link, unicast against it is counted as DroppedNoLink without erroring
// the sender, broadcast only radiates over outgoing links, and Neighbors
// reflects the directedness.
func TestAsymmetricLinkAccounting(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	na, nb := attach(t, n, addrs[0]), attach(t, n, addrs[1])
	if err := n.SetDirectedLink(addrs[0], addrs[1], Quality{Delay: time.Millisecond, SignalDBm: -60}); err != nil {
		t.Fatal(err)
	}

	if !n.Linked(addrs[0], addrs[1]) || n.Linked(addrs[1], addrs[0]) {
		t.Fatalf("directedness lost: a->b %v, b->a %v", n.Linked(addrs[0], addrs[1]), n.Linked(addrs[1], addrs[0]))
	}
	if nbs := n.Neighbors(addrs[1]); len(nbs) != 0 {
		t.Fatalf("Neighbors(b) = %v, want none", nbs)
	}

	var atA, atB []Frame
	keep := func(to *[]Frame) func(Frame) {
		return func(f Frame) {
			f.Payload = bytes.Clone(f.Payload) // lent for the call only
			*to = append(*to, f)
		}
	}
	na.SetReceiver(keep(&atA))
	nb.SetReceiver(keep(&atB))

	// With the link: delivered.
	if err := na.Send(addrs[1], []byte("with")); err != nil {
		t.Fatal(err)
	}
	// Against the link: silently dropped at the medium, like a real radio.
	if err := nb.Send(addrs[0], []byte("against")); err != nil {
		t.Fatal(err)
	}
	// Broadcast from b has no outgoing links, so it reaches nobody.
	if err := nb.Send(mnet.Broadcast, []byte("shout")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)

	if len(atB) != 1 || string(atB[0].Payload) != "with" {
		t.Fatalf("b received %v, want the one forward frame", atB)
	}
	if len(atA) != 0 {
		t.Fatalf("a received %v over a reverse-only path", atA)
	}
	if st := n.Stats(); st.DroppedNoLink != 1 {
		t.Fatalf("DroppedNoLink = %d, want 1 (the reverse unicast)", st.DroppedNoLink)
	}
}

func TestBuildLineDegenerate(t *testing.T) {
	for _, nodes := range []int{0, 1} {
		n, _ := newNet(t)
		if err := BuildLine(n, Addrs(nodes), DefaultQuality()); err != nil {
			t.Fatalf("BuildLine(%d nodes) = %v", nodes, err)
		}
		if got := len(n.Nodes()); got != nodes {
			t.Fatalf("BuildLine(%d nodes) attached %d", nodes, got)
		}
	}
}

// TestBuildLineDuplicateAddr: a repeated address degenerates into a
// self-link, which must be rejected rather than silently installed.
func TestBuildLineDuplicateAddr(t *testing.T) {
	n, _ := newNet(t)
	a := Addrs(1)[0]
	if err := BuildLine(n, []mnet.Addr{a, a}, DefaultQuality()); !errors.Is(err, ErrSelfLink) {
		t.Fatalf("BuildLine with duplicate address = %v, want ErrSelfLink", err)
	}
}

func TestBuildGridEdgeCases(t *testing.T) {
	link := func(i, j int) [2]int {
		if i > j {
			i, j = j, i
		}
		return [2]int{i, j}
	}
	cases := []struct {
		name    string
		nodes   int
		cols    int
		wantErr bool
		// wantLinks is the full undirected edge set by node index.
		wantLinks [][2]int
	}{
		{name: "zero columns", nodes: 4, cols: 0, wantErr: true},
		{name: "negative columns", nodes: 4, cols: -3, wantErr: true},
		{
			// More columns than nodes: the single partial row is a chain.
			name: "wider than node count", nodes: 3, cols: 10,
			wantLinks: [][2]int{{0, 1}, {1, 2}},
		},
		{
			// A ragged grid: last row shorter than cols.
			name: "ragged last row", nodes: 5, cols: 2,
			wantLinks: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}},
		},
		{
			name: "exact 2x2", nodes: 4, cols: 2,
			wantLinks: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := newNet(t)
			addrs := Addrs(tc.nodes)
			err := BuildGrid(n, addrs, tc.cols, DefaultQuality())
			if tc.wantErr {
				if err == nil {
					t.Fatalf("BuildGrid(cols=%d) succeeded, want error", tc.cols)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[[2]int]bool, len(tc.wantLinks))
			for _, l := range tc.wantLinks {
				want[l] = true
			}
			for i := 0; i < tc.nodes; i++ {
				for j := i + 1; j < tc.nodes; j++ {
					fwd, rev := n.Linked(addrs[i], addrs[j]), n.Linked(addrs[j], addrs[i])
					if fwd != rev {
						t.Errorf("grid link %d-%d asymmetric: %v/%v", i, j, fwd, rev)
					}
					if fwd != want[link(i, j)] {
						t.Errorf("link %d-%d = %v, want %v", i, j, fwd, want[link(i, j)])
					}
				}
			}
		})
	}
}

func TestBuildRandomValidation(t *testing.T) {
	for _, density := range []float64{-0.1, 1.01, 2} {
		n, _ := newNet(t)
		if err := BuildRandom(n, Addrs(4), density, 1, DefaultQuality()); err == nil {
			t.Errorf("BuildRandom(density=%v) succeeded, want error", density)
		}
	}
}

func TestBuildRandomExtremesAndDeterminism(t *testing.T) {
	addrs := Addrs(8)
	linkSet := func(n *Network) map[[2]int]bool {
		out := make(map[[2]int]bool)
		for i := range addrs {
			for j := i + 1; j < len(addrs); j++ {
				if n.Linked(addrs[i], addrs[j]) {
					out[[2]int{i, j}] = true
				}
			}
		}
		return out
	}

	// Density 0 still guarantees connectivity: exactly the chain.
	n0, _ := newNet(t)
	if err := BuildRandom(n0, addrs, 0, 1, DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	chain := linkSet(n0)
	if len(chain) != len(addrs)-1 {
		t.Fatalf("density 0 installed %d links, want the %d-link chain", len(chain), len(addrs)-1)
	}
	for i := 0; i+1 < len(addrs); i++ {
		if !chain[[2]int{i, i + 1}] {
			t.Fatalf("density 0 missing chain link %d-%d", i, i+1)
		}
	}

	// Density 1 is the clique.
	n1, _ := newNet(t)
	if err := BuildRandom(n1, addrs, 1, 1, DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	if got, want := len(linkSet(n1)), len(addrs)*(len(addrs)-1)/2; got != want {
		t.Fatalf("density 1 installed %d links, want %d", got, want)
	}

	// Same seed, same topology — the reproducibility the campaign relies on.
	nA, _ := newNet(t)
	nB, _ := newNet(t)
	for _, n := range []*Network{nA, nB} {
		if err := BuildRandom(n, addrs, 0.4, 42, DefaultQuality()); err != nil {
			t.Fatal(err)
		}
	}
	setA, setB := linkSet(nA), linkSet(nB)
	if len(setA) != len(setB) {
		t.Fatalf("same seed, different link counts: %d vs %d", len(setA), len(setB))
	}
	for l := range setA {
		if !setB[l] {
			t.Fatalf("same seed, link %v present in one build only", l)
		}
	}
}

func TestAddrsSequence(t *testing.T) {
	got := Addrs(3)
	want := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"}
	if len(got) != len(want) {
		t.Fatalf("Addrs(3) = %v", got)
	}
	for i, w := range want {
		if got[i] != mnet.MustParseAddr(w) {
			t.Errorf("Addrs(3)[%d] = %v, want %s", i, got[i], w)
		}
	}
	if len(Addrs(0)) != 0 {
		t.Error("Addrs(0) not empty")
	}
}
