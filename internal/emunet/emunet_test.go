package emunet

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newNet(t *testing.T) (*Network, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	return New(clk, 1), clk
}

func attach(t *testing.T, n *Network, a mnet.Addr) *NIC {
	t.Helper()
	nic, err := n.Attach(a)
	if err != nil {
		t.Fatalf("Attach(%v): %v", a, err)
	}
	return nic
}

func TestAttachDetach(t *testing.T) {
	n, _ := newNet(t)
	a := mnet.MustParseAddr("10.0.0.1")
	nic := attach(t, n, a)
	if nic.Addr() != a || nic.Device() != "emu0" {
		t.Fatalf("NIC = %v/%s", nic.Addr(), nic.Device())
	}
	if _, err := n.Attach(a); !errors.Is(err, ErrAttached) {
		t.Fatalf("double attach = %v", err)
	}
	if _, err := n.Attach(mnet.Broadcast); err == nil {
		t.Fatal("attached broadcast address")
	}
	if _, err := n.Attach(mnet.Addr{}); err == nil {
		t.Fatal("attached unspecified address")
	}
	if err := n.Detach(a); err != nil {
		t.Fatal(err)
	}
	if err := n.Detach(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double detach = %v", err)
	}
	if err := nic.Send(mnet.Broadcast, []byte("x")); !errors.Is(err, ErrDetached) {
		t.Fatalf("send on detached NIC = %v", err)
	}
}

func TestUnicastDelivery(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	na := attach(t, n, addrs[0])
	nb := attach(t, n, addrs[1])
	q := Quality{Delay: 2 * time.Millisecond, SignalDBm: -60}
	if err := n.SetLink(addrs[0], addrs[1], q); err != nil {
		t.Fatal(err)
	}
	var got []Frame
	nb.SetReceiver(func(f Frame) {
		f.Payload = bytes.Clone(f.Payload) // lent for the call only
		got = append(got, f)
	})
	if err := na.Send(addrs[1], []byte("hello")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if len(got) != 0 {
		t.Fatal("frame arrived before link delay")
	}
	clk.Advance(time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("got %d frames", len(got))
	}
	f := got[0]
	if f.Src != addrs[0] || f.Dst != addrs[1] || string(f.Payload) != "hello" || f.RSSI != -60 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestBroadcastReachesOnlyLinkedNodes(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(4)
	nics := make([]*NIC, 4)
	for i, a := range addrs {
		nics[i] = attach(t, n, a)
	}
	q := DefaultQuality()
	n.SetLink(addrs[0], addrs[1], q)
	n.SetLink(addrs[0], addrs[2], q)
	// addrs[3] is out of range.
	counts := make([]int, 4)
	for i := range nics {
		i := i
		nics[i].SetReceiver(func(Frame) { counts[i]++ })
	}
	nics[0].Send(mnet.Broadcast, []byte("beacon"))
	clk.RunUntilIdle(-1)
	if counts[0] != 0 {
		t.Fatal("sender received own broadcast")
	}
	if counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("linked nodes got %v", counts)
	}
	if counts[3] != 0 {
		t.Fatal("out-of-range node received broadcast")
	}
}

func TestUnicastWithoutLinkIsLost(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	na := attach(t, n, addrs[0])
	nb := attach(t, n, addrs[1])
	received := false
	nb.SetReceiver(func(Frame) { received = true })
	na.Send(addrs[1], []byte("x"))
	clk.RunUntilIdle(-1)
	if received {
		t.Fatal("frame crossed a non-existent link")
	}
	if st := n.Stats(); st.DroppedNoLink != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestAsymmetricLink(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	na := attach(t, n, addrs[0])
	nb := attach(t, n, addrs[1])
	if err := n.SetDirectedLink(addrs[0], addrs[1], DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	var aGot, bGot int
	na.SetReceiver(func(Frame) { aGot++ })
	nb.SetReceiver(func(Frame) { bGot++ })
	na.Send(addrs[1], []byte("fwd"))
	nb.Send(addrs[0], []byte("rev"))
	clk.RunUntilIdle(-1)
	if bGot != 1 || aGot != 0 {
		t.Fatalf("aGot=%d bGot=%d; directed link not enforced", aGot, bGot)
	}
	if !n.Linked(addrs[0], addrs[1]) || n.Linked(addrs[1], addrs[0]) {
		t.Fatal("Linked does not reflect direction")
	}
}

func TestSelfLinkRejected(t *testing.T) {
	n, _ := newNet(t)
	a := Addrs(1)[0]
	attach(t, n, a)
	if err := n.SetDirectedLink(a, a, DefaultQuality()); !errors.Is(err, ErrSelfLink) {
		t.Fatalf("self link = %v", err)
	}
}

func TestLossIsAppliedAndSeeded(t *testing.T) {
	run := func(seed int64) uint64 {
		clk := vclock.NewVirtual(epoch)
		n := New(clk, seed)
		addrs := Addrs(2)
		na, _ := n.Attach(addrs[0])
		n.Attach(addrs[1])
		n.SetLink(addrs[0], addrs[1], Quality{Delay: time.Millisecond, Loss: 0.5})
		for i := 0; i < 1000; i++ {
			na.Send(addrs[1], []byte("x"))
		}
		clk.RunUntilIdle(-1)
		return n.Stats().DroppedLoss
	}
	d1, d2 := run(7), run(7)
	if d1 != d2 {
		t.Fatalf("same seed, different loss: %d vs %d", d1, d2)
	}
	if d1 < 350 || d1 > 650 {
		t.Fatalf("loss count %d wildly off 50%%", d1)
	}
	if d3 := run(8); d3 == d1 {
		t.Fatalf("different seeds, same loss sequence (%d)", d3)
	}
}

func TestCutLinkStopsTraffic(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	na := attach(t, n, addrs[0])
	nb := attach(t, n, addrs[1])
	n.SetLink(addrs[0], addrs[1], DefaultQuality())
	var got int
	nb.SetReceiver(func(Frame) { got++ })
	na.Send(addrs[1], []byte("1"))
	clk.RunUntilIdle(-1)
	n.CutLink(addrs[0], addrs[1])
	na.Send(addrs[1], []byte("2"))
	clk.RunUntilIdle(-1)
	if got != 1 {
		t.Fatalf("got %d frames, want 1", got)
	}
}

func TestSendWithFeedback(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	na := attach(t, n, addrs[0])
	nb := attach(t, n, addrs[1])
	n.SetLink(addrs[0], addrs[1], DefaultQuality())
	var fb []bool
	var rx int
	nb.SetReceiver(func(Frame) { rx++ })
	na.SendWithFeedback(addrs[1], []byte("ok"), func(d bool) { fb = append(fb, d) })
	clk.RunUntilIdle(-1)
	n.CutLink(addrs[0], addrs[1])
	na.SendWithFeedback(addrs[1], []byte("fail"), func(d bool) { fb = append(fb, d) })
	clk.RunUntilIdle(-1)
	if rx != 1 {
		t.Fatalf("rx = %d", rx)
	}
	if len(fb) != 2 || fb[0] != true || fb[1] != false {
		t.Fatalf("feedback = %v", fb)
	}
}

// TestSendWithFeedbackTaggedNamesItsFrame: the tagged verdict hands one
// callback the frame it concerns — destination, correlation ID and the
// medium's copy of the bytes, a lost frame's included — so a sender needs
// no closure per frame.
func TestSendWithFeedbackTaggedNamesItsFrame(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	na := attach(t, n, addrs[0])
	attach(t, n, addrs[1])
	n.SetLink(addrs[0], addrs[1], DefaultQuality())
	type verdict struct {
		dst       mnet.Addr
		corr, pay string
		delivered bool
	}
	var got []verdict
	fn := func(f Frame, delivered bool) { got = append(got, verdict{f.Dst, f.Corr, string(f.Payload), delivered}) }
	buf := []byte("ok")
	if err := na.SendWithFeedbackTagged(addrs[1], buf, "c1", fn); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle(-1)
	n.CutLink(addrs[0], addrs[1])
	buf = []byte("lost")
	if err := na.SendWithFeedbackTagged(addrs[1], buf, "c2", fn); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX") // the sender's buffer is its own again
	clk.RunUntilIdle(-1)
	want := []verdict{{addrs[1], "c1", "ok", true}, {addrs[1], "c2", "lost", false}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts = %+v, want %+v", got, want)
	}
}

func TestPayloadIsCopied(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	na := attach(t, n, addrs[0])
	nb := attach(t, n, addrs[1])
	n.SetLink(addrs[0], addrs[1], DefaultQuality())
	var got []byte
	nb.SetReceiver(func(f Frame) { got = bytes.Clone(f.Payload) })
	buf := []byte("original")
	na.Send(addrs[1], buf)
	buf[0] = 'X' // sender mutates its buffer after Send
	clk.RunUntilIdle(-1)
	if string(got) != "original" {
		t.Fatalf("payload aliased sender buffer: %q", got)
	}
}

func TestTapSeesDeliveries(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(3)
	na := attach(t, n, addrs[0])
	attach(t, n, addrs[1])
	attach(t, n, addrs[2])
	n.SetLink(addrs[0], addrs[1], DefaultQuality())
	n.SetLink(addrs[0], addrs[2], DefaultQuality())
	var seen []mnet.Addr
	n.SetTap(func(f Frame, rcv mnet.Addr) { seen = append(seen, rcv) })
	na.Send(mnet.Broadcast, []byte("x"))
	clk.RunUntilIdle(-1)
	if len(seen) != 2 {
		t.Fatalf("tap saw %v", seen)
	}
	n.SetTap(nil)
	na.Send(mnet.Broadcast, []byte("x"))
	clk.RunUntilIdle(-1)
	if len(seen) != 2 {
		t.Fatal("tap fired after removal")
	}
}

func TestNeighborsSorted(t *testing.T) {
	n, _ := newNet(t)
	addrs := Addrs(4)
	for _, a := range addrs {
		attach(t, n, a)
	}
	n.SetLink(addrs[2], addrs[3], DefaultQuality())
	n.SetLink(addrs[2], addrs[0], DefaultQuality())
	n.SetLink(addrs[2], addrs[1], DefaultQuality())
	got := n.Neighbors(addrs[2])
	if len(got) != 3 || got[0] != addrs[0] || got[1] != addrs[1] || got[2] != addrs[3] {
		t.Fatalf("Neighbors = %v", got)
	}
}

func TestBuildLine(t *testing.T) {
	n, _ := newNet(t)
	addrs := Addrs(5)
	if err := BuildLine(n, addrs, DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < 5; i++ {
		if !n.Linked(addrs[i], addrs[i+1]) || !n.Linked(addrs[i+1], addrs[i]) {
			t.Fatalf("chain broken at %d", i)
		}
	}
	if n.Linked(addrs[0], addrs[2]) {
		t.Fatal("non-adjacent nodes linked in line")
	}
	if len(n.Nodes()) != 5 {
		t.Fatalf("Nodes = %v", n.Nodes())
	}
}

func TestBuildGrid(t *testing.T) {
	n, _ := newNet(t)
	addrs := Addrs(6) // 2 rows x 3 cols
	if err := BuildGrid(n, addrs, 3, DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	// Node 0 links: right (1) and down (3).
	if !n.Linked(addrs[0], addrs[1]) || !n.Linked(addrs[0], addrs[3]) {
		t.Fatal("grid adjacency missing")
	}
	if n.Linked(addrs[0], addrs[4]) || n.Linked(addrs[2], addrs[3]) {
		t.Fatal("grid has illegal diagonal/wrap link")
	}
	if err := BuildGrid(n, addrs, 0, DefaultQuality()); err == nil {
		t.Fatal("zero-width grid accepted")
	}
}

func TestBuildClique(t *testing.T) {
	n, _ := newNet(t)
	addrs := Addrs(4)
	if err := BuildClique(n, addrs, DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if got := len(n.Neighbors(addrs[i])); got != 3 {
			t.Fatalf("clique node %d has %d neighbours", i, got)
		}
	}
}

func TestBuildRandomConnectedAndSeeded(t *testing.T) {
	count := func(seed int64) int {
		clk := vclock.NewVirtual(epoch)
		n := New(clk, 1)
		addrs := Addrs(12)
		if err := BuildRandom(n, addrs, 0.3, seed, DefaultQuality()); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, a := range addrs {
			total += len(n.Neighbors(a))
		}
		// Chain guarantees connectivity.
		for i := 0; i+1 < len(addrs); i++ {
			if !n.Linked(addrs[i], addrs[i+1]) {
				t.Fatal("random graph missing connectivity chain")
			}
		}
		return total
	}
	if count(5) != count(5) {
		t.Fatal("same seed produced different graphs")
	}
	if err := BuildRandom(New(vclock.NewVirtual(epoch), 1), Addrs(3), 1.5, 1, DefaultQuality()); err == nil {
		t.Fatal("invalid density accepted")
	}
}

func TestScenarioPlayback(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(3)
	BuildLine(n, addrs, DefaultQuality())
	s := WalkAway(addrs[2], []mnet.Addr{addrs[1], addrs[0]}, 10*time.Millisecond, 5*time.Millisecond)
	s.Play(n)
	if !n.Linked(addrs[1], addrs[2]) {
		t.Fatal("link cut before scenario time")
	}
	clk.Advance(10 * time.Millisecond)
	if n.Linked(addrs[1], addrs[2]) {
		t.Fatal("first WalkAway step did not cut link")
	}
	clk.Advance(5 * time.Millisecond)
	if n.Linked(addrs[0], addrs[2]) {
		t.Fatal("second WalkAway step did not cut link")
	}
}

func TestDetachedNodeDropsInFlightFrames(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	na := attach(t, n, addrs[0])
	nb := attach(t, n, addrs[1])
	n.SetLink(addrs[0], addrs[1], Quality{Delay: 5 * time.Millisecond})
	var got int
	nb.SetReceiver(func(Frame) { got++ })
	na.Send(addrs[1], []byte("x"))
	n.Detach(addrs[1]) // detach while frame is in flight
	clk.RunUntilIdle(-1)
	if got != 0 {
		t.Fatal("detached node received in-flight frame")
	}
}

func TestStatsAccounting(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(3)
	na := attach(t, n, addrs[0])
	attach(t, n, addrs[1])
	attach(t, n, addrs[2])
	n.SetLink(addrs[0], addrs[1], DefaultQuality())
	n.SetLink(addrs[0], addrs[2], DefaultQuality())
	na.Send(mnet.Broadcast, []byte("abcd"))
	clk.RunUntilIdle(-1)
	st := n.Stats()
	if st.TxFrames != 1 || st.RxFrames != 2 || st.TxBytes != 4 || st.RxBytes != 8 {
		t.Fatalf("Stats = %+v", st)
	}
	// Later traffic accumulates on top: the medium's counts only rise.
	na.Send(addrs[1], []byte("post"))
	clk.RunUntilIdle(-1)
	if st := n.Stats(); st != (Stats{TxFrames: 2, RxFrames: 3, TxBytes: 8, RxBytes: 12}) {
		t.Fatalf("Stats = %+v after a second send, want 2 tx / 3 rx", st)
	}
}

// TestStatsConservation: every target of every transmission is counted
// exactly once, whatever became of it. A lossy A→D unicast stream either
// arrives or is lost; a unicast to an address with no link is a no-link
// drop; a broadcast counts one transmission and one outcome per neighbour;
// a duplicate is one extra delivery. Nothing is counted twice and nothing
// goes missing.
func TestStatsConservation(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(4)
	a, b, c, d := addrs[0], addrs[1], addrs[2], addrs[3]
	na := attach(t, n, a)
	attach(t, n, b)
	attach(t, n, c)
	attach(t, n, d)
	lossy := DefaultQuality()
	lossy.Loss = 0.4
	for _, to := range []mnet.Addr{c, d} {
		if err := n.SetDirectedLink(a, to, lossy); err != nil {
			t.Fatalf("SetDirectedLink: %v", err)
		}
	}
	NewFaultPlan(9).DuplicateFrames(0, time.Hour, 0.3).Apply(n)

	const sends = 50
	for k := 0; k < sends; k++ {
		clk.AfterFunc(time.Duration(k)*10*time.Millisecond, func() {
			_ = na.Send(d, []byte("x"))              // one target: arrives or is lost
			_ = na.Send(b, []byte("y"))              // no link a→b: a no-link drop
			_ = na.Send(mnet.Broadcast, []byte("z")) // two targets, c and d
		})
	}
	clk.Advance(2 * time.Second)

	st := n.Stats()
	if st.TxFrames != 3*sends || st.TxBytes != 3*sends {
		t.Errorf("tx %d frames / %d bytes, want %d of each (one per Send)", st.TxFrames, st.TxBytes, 3*sends)
	}
	if st.DroppedNoLink != sends {
		t.Errorf("no-link drops %d, want %d", st.DroppedNoLink, sends)
	}
	if got, want := st.RxFrames+st.DroppedLoss, uint64(3*sends)+st.Duplicated; got != want {
		t.Errorf("rx(%d)+loss(%d) = %d, want %d linked targets + %d duplicates = %d (each exactly once)",
			st.RxFrames, st.DroppedLoss, got, 3*sends, st.Duplicated, want)
	}
	if st.RxFrames == 0 || st.DroppedLoss == 0 || st.Duplicated == 0 {
		t.Errorf("lossy links under duplication should deliver, drop and duplicate: %+v", st)
	}
	if st.RxBytes != st.RxFrames {
		t.Errorf("rx bytes %d for %d one-byte frames", st.RxBytes, st.RxFrames)
	}
}
