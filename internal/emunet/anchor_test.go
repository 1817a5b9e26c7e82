package emunet

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// anchorOrder runs the scenario armLocked's comment is about and returns
// what fired, in order. Link 0→1 has delay d, link 1→2 has none, and node 1
// forwards what it hears, so the second delivery falls due at the very
// instant of the first. Around the sends, timers are queued on the clock
// for the same instants:
//
//	round k: timer "a" queued, frame sent (anchor armed), timer "b" queued
//
// The anchor must fire after "a" (queued before it was armed) and before
// "b"; the cascade's re-arm happens inside the epoch, when "b" is already
// queued at that instant, so the second delivery comes after "b". Rounds
// two and three re-arm an anchor that has fired before — the Reset path.
func anchorOrder(t *testing.T) []string {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	n := New(clk, 1)
	addrs := Addrs(3)
	nics := []*NIC{attach(t, n, addrs[0]), attach(t, n, addrs[1]), attach(t, n, addrs[2])}
	const d = 2 * time.Millisecond
	if err := n.SetDirectedLink(addrs[0], addrs[1], Quality{Delay: d}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetDirectedLink(addrs[1], addrs[2], Quality{Delay: 0}); err != nil {
		t.Fatal(err)
	}
	var got []string
	nics[1].SetReceiver(func(f Frame) {
		got = append(got, "rx1")
		_ = nics[1].SendWithFeedback(addrs[2], f.Payload, func(ok bool) { got = append(got, "ack2") })
	})
	nics[2].SetReceiver(func(Frame) { got = append(got, "rx2") })
	for round := 0; round < 3; round++ {
		clk.AfterFunc(d, func() { got = append(got, "a") })
		if err := nics[0].SendWithFeedback(addrs[1], []byte("x"), func(ok bool) { got = append(got, "ack1") }); err != nil {
			t.Fatal(err)
		}
		clk.AfterFunc(d, func() { got = append(got, "b") })
		clk.Advance(d)
		got = append(got, "|")
	}
	return got
}

func TestRearmedAnchorFiresAfterQueuedTimers(t *testing.T) {
	round := []string{"a", "rx1", "ack1", "b", "rx2", "ack2", "|"}
	var want []string
	for i := 0; i < 3; i++ {
		want = append(want, round...)
	}
	if got := anchorOrder(t); !reflect.DeepEqual(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
}

// TestAnchorDeadlineBehindClock: a deadline the clock has already passed
// must fire at the current instant behind the timers queued there, not
// ahead of them with a deadline in the past.
func TestAnchorDeadlineBehindClock(t *testing.T) {
	n, clk := newNet(t)
	var got []string
	clk.AfterFunc(0, func() { got = append(got, "queued") })
	d := n.newDeliveryLocked(nil, &Frame{}, nil, nil)
	d.cb = func(bool) { got = append(got, "late") }
	n.mu.Lock()
	n.eng.scheduleLocked(d, n.key(clk.Now().Add(-time.Second)))
	n.mu.Unlock()
	clk.Advance(0)
	if want := []string{"queued", "late"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if !clk.Now().Equal(epoch) {
		t.Fatalf("clock moved to %v", clk.Now())
	}
}

// TestAnchorRearmsUnderRealClock drives the one-timer anchor with the wall
// clock: an earlier deadline pulls a pending anchor forward, a drained
// engine re-arms the timer that already fired, and (when, seq) order holds
// throughout. Ordering against other wall-clock timers is not defined, so
// only the engine's own order is checked here.
func TestAnchorRearmsUnderRealClock(t *testing.T) {
	n := New(vclock.Real(), 1)
	addrs := Addrs(3)
	src := attach(t, n, addrs[0])
	slow, fast := attach(t, n, addrs[1]), attach(t, n, addrs[2])
	if err := n.SetDirectedLink(addrs[0], addrs[1], Quality{Delay: 40 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetDirectedLink(addrs[0], addrs[2], Quality{Delay: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	rx := make(chan string, 8) // one slot per frame the test sends
	slow.SetReceiver(func(Frame) { rx <- "slow" })
	fast.SetReceiver(func(Frame) { rx <- "fast" })
	next := func() string {
		t.Helper()
		select {
		case who := <-rx:
			return who
		case <-time.After(5 * time.Second):
			t.Fatal("frame never delivered: the anchor was not re-armed")
			return ""
		}
	}
	for round := 0; round < 3; round++ {
		start := time.Now()
		if err := src.Send(addrs[1], []byte("s")); err != nil {
			t.Fatal(err)
		}
		if err := src.Send(addrs[2], []byte("f")); err != nil { // earlier deadline: anchor pulled forward
			t.Fatal(err)
		}
		if who := next(); who != "fast" {
			t.Fatalf("round %d: %s link delivered first", round, who)
		}
		if who := next(); who != "slow" {
			t.Fatalf("round %d: second delivery from %s link", round, who)
		}
		if el := time.Since(start); el < 40*time.Millisecond {
			t.Fatalf("round %d: slow frame delivered after %v, before its 40ms deadline", round, el)
		}
	}
}

// TestWarmEngineAllocs pins the engine's share of the rx path: a warm
// engine carries a unicast frame with MAC feedback from send to a no-op
// receiver — schedule, arm, epoch, deliver, re-arm — without allocating,
// with or without a payload: the medium copies the payload into a
// recycled transmission record. A broadcast to one or two receivers that
// do not decode it allocates nothing either.
func TestWarmEngineAllocs(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	a, b := attach(t, n, addrs[0]), attach(t, n, addrs[1])
	if err := n.SetLink(addrs[0], addrs[1], DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	rx, acks := 0, 0
	b.SetReceiver(func(Frame) { rx++ })
	ack := func(bool) { acks++ }
	cycle := func(payload []byte) func() {
		return func() {
			if err := a.SendWithFeedback(addrs[1], payload, ack); err != nil {
				t.Fatal(err)
			}
			clk.Advance(DefaultQuality().Delay)
		}
	}
	payload := make([]byte, 82)
	cycle(payload)() // warm: anchor, free list, batch scratch
	if got := testing.AllocsPerRun(200, cycle(payload)); got != 0 {
		t.Errorf("send + epoch allocates %.1f objects, want 0", got)
	}
	if got := testing.AllocsPerRun(200, cycle(nil)); got != 0 {
		t.Errorf("send + epoch + re-arm without a payload allocates %.1f objects, want 0", got)
	}
	if rx != 1+201+201 || acks != rx {
		t.Fatalf("delivered %d frames and %d acks, want %d of each", rx, acks, 1+201+201)
	}
	st, _ := n.EngineStats()
	if st.Epochs != uint64(rx) {
		t.Fatalf("%d epochs for %d frames", st.Epochs, rx)
	}

	// A warm broadcast costs nothing either: the receiver list is the
	// network's scratch, not a slice per send.
	broadcast := func() {
		if err := a.Send(mnet.Broadcast, payload); err != nil {
			t.Fatal(err)
		}
		clk.Advance(DefaultQuality().Delay)
	}
	broadcast()
	if got := testing.AllocsPerRun(200, broadcast); got != 0 {
		t.Errorf("broadcast to one receiver allocates %.1f objects, want 0", got)
	}
	c := attach(t, n, mnet.MustParseAddr("10.0.0.99"))
	if err := n.SetLink(addrs[0], c.Addr(), DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	crx := 0
	c.SetReceiver(func(Frame) { crx++ })
	broadcast()
	if got := testing.AllocsPerRun(200, broadcast); got != 0 {
		t.Errorf("broadcast to two receivers allocates %.1f objects, want 0", got)
	}
	if crx != 1+201 {
		t.Fatalf("second receiver got %d broadcasts, want %d", crx, 1+201)
	}
}

// TestFiredAnchorResetUnderRealClock drives the one way a second epoch can
// be asked for under the wall clock now that nothing arms the anchor while
// an epoch runs: the anchor fires while the test holds the network mutex,
// so its run waits for it, and a delivery due before the anchor's deadline
// — behind the clock, over a negative link delay — is booked in that
// window, as a send from another goroutine would book it, resetting the
// fired anchor. Both firings then race for the mutex; one delivers both
// frames, earlier deadline first, and the other must not start a second
// epoch beside it. Meaningful under -race.
func TestFiredAnchorResetUnderRealClock(t *testing.T) {
	n := New(vclock.Real(), 1)
	addrs := Addrs(3)
	src, slow, behind := attach(t, n, addrs[0]), attach(t, n, addrs[1]), attach(t, n, addrs[2])
	if err := n.SetDirectedLink(addrs[0], addrs[1], Quality{Delay: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		inUpcall int
		got      []string
		done     = make(chan struct{}, 2) // one per frame
	)
	upcall := func(who string, d time.Duration) func(Frame) {
		return func(Frame) {
			mu.Lock()
			if inUpcall++; inUpcall > 1 {
				t.Errorf("%s delivered while another upcall was running: two epochs in flight", who)
			}
			got = append(got, who)
			mu.Unlock()
			time.Sleep(d) // long enough for the other firing to find the epoch running
			mu.Lock()
			inUpcall--
			mu.Unlock()
			done <- struct{}{}
		}
	}
	slow.SetReceiver(upcall("slow", 20*time.Millisecond))
	behind.SetReceiver(upcall("behind", 0))
	if err := src.Send(addrs[1], []byte("s")); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	time.Sleep(10 * time.Millisecond) // the anchor fires; its run waits for the mutex
	d := n.newDeliveryLocked(behind, &Frame{Src: addrs[0], Dst: addrs[2]}, nil, nil)
	n.waitLocked(d, n.nowKey(), -time.Second)
	n.mu.Unlock()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("a frame was never delivered")
		}
	}
	time.Sleep(5 * time.Millisecond) // a duplicate delivery would land here
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"behind", "slow"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if st, _ := n.EngineStats(); st.Epochs != 1 || st.Events != 2 {
		t.Fatalf("engine %+v, want one epoch of two events", st)
	}
}

// TestFiringDuringEpochIsAbsorbed pins the guard the firing above reaches:
// a firing of the anchor while an epoch is delivering starts no second
// epoch, and what fell due meanwhile waits for the running epoch's re-arm.
// The second firing is made by hand from inside an upcall.
func TestFiringDuringEpochIsAbsorbed(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	src, dst := attach(t, n, addrs[0]), attach(t, n, addrs[1])
	if err := n.SetDirectedLink(addrs[0], addrs[1], Quality{}); err != nil {
		t.Fatal(err)
	}
	var got []string
	dst.SetReceiver(func(f Frame) {
		if got = append(got, string(f.Payload)); len(got) > 1 {
			return
		}
		if err := src.Send(addrs[1], []byte("second")); err != nil { // due now
			t.Fatal(err)
		}
		n.eng.run()
		if len(got) != 1 {
			t.Fatalf("a firing during the epoch delivered %q", got[1:])
		}
	})
	if err := src.Send(addrs[1], []byte("first")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(0)
	if st, _ := n.EngineStats(); !reflect.DeepEqual(got, []string{"first", "second"}) || st.Epochs != 2 {
		t.Fatalf("delivered %q in %d epochs, want [first second] in 2", got, st.Epochs)
	}
}

// TestOneEpochInFlightUnderRealClock: under the wall clock a receiver upcall
// that outlasts the next deadline must not let a second epoch start beside
// the first — the two would share the batch and the free list. The slow
// receiver forwards each frame over a link whose delay is a fraction of the
// time the upcall then sleeps, so the forwarded frame falls due while the
// epoch is still delivering, as do further frames; the running epoch's
// re-arm must take them all. Every frame must be delivered exactly once, in
// (when, seq) order, and never while another upcall is running. Meaningful
// under -race.
func TestOneEpochInFlightUnderRealClock(t *testing.T) {
	n := New(vclock.Real(), 1)
	addrs := Addrs(3)
	src, slow, sink := attach(t, n, addrs[0]), attach(t, n, addrs[1]), attach(t, n, addrs[2])
	for _, l := range []struct {
		from, to int
		delay    time.Duration
	}{{0, 1, 2 * time.Millisecond}, {1, 2, 200 * time.Microsecond}} {
		if err := n.SetDirectedLink(addrs[l.from], addrs[l.to], Quality{Delay: l.delay}); err != nil {
			t.Fatal(err)
		}
	}
	const frames = 40
	type rx struct {
		who string
		id  int
	}
	var (
		mu       sync.Mutex
		inUpcall int
		got      []rx
		done     = make(chan struct{})
	)
	enter := func(who string, f Frame) {
		mu.Lock()
		defer mu.Unlock()
		if inUpcall++; inUpcall > 1 {
			t.Errorf("%s %d delivered while another upcall was running: two epochs in flight", who, f.Payload[0])
		}
		got = append(got, rx{who, int(f.Payload[0])})
	}
	leave := func() {
		mu.Lock()
		defer mu.Unlock()
		inUpcall--
		if len(got) == 2*frames {
			close(done)
		}
	}
	slow.SetReceiver(func(f Frame) {
		enter("slow", f)
		defer leave()
		if err := slow.Send(addrs[2], f.Payload); err != nil { // due 200µs out…
			t.Error(err)
		}
		time.Sleep(time.Millisecond) // …and outlasts it
	})
	sink.SetReceiver(func(f Frame) {
		enter("sink", f)
		leave()
	})
	for i := 0; i < frames; i++ { // all due at about the same instant: long epochs
		if err := src.Send(addrs[1], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("%d of %d deliveries after 30s: a frame was lost or the anchor never re-armed", len(got), 2*frames)
	}
	time.Sleep(5 * time.Millisecond) // a duplicate delivery would land here
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2*frames {
		t.Fatalf("%d deliveries, want %d (each frame exactly once per hop)", len(got), 2*frames)
	}
	// (when, seq) order: per receiver, frames arrive in the order they were
	// sent, and a frame reaches the sink only after the slow node forwarded it.
	next := map[string]int{}
	for _, r := range got {
		if r.id != next[r.who] {
			t.Fatalf("%s got frame %d, want %d: out of (when, seq) order in %v", r.who, r.id, next[r.who], got)
		}
		next[r.who]++
		if r.who == "sink" && r.id >= next["slow"] {
			t.Fatalf("sink got frame %d before the slow node forwarded it: %v", r.id, got)
		}
	}
	if st := n.Stats(); st.RxFrames != 2*frames || st.TxFrames != 2*frames {
		t.Fatalf("stats %+v, want %d tx and rx", st, 2*frames)
	}
}

// armCounter is a virtual clock that counts the anchor's arms: AfterFunc
// calls and Resets of the timers it returned.
type armCounter struct {
	*vclock.Virtual
	arms int
}

func (c *armCounter) AfterFunc(d time.Duration, f func()) vclock.Timer {
	c.arms++
	return countedTimer{c.Virtual.AfterFunc(d, f), c}
}

type countedTimer struct {
	vclock.Timer
	c *armCounter
}

func (t countedTimer) Reset(d time.Duration) bool {
	t.c.arms++
	return t.Timer.Reset(d)
}

// TestAnchorArmedOncePerEpoch: down a unicast chain, every epoch's upcall
// forwards the frame one hop, and the engine arms its anchor once per
// epoch — the send's first arm, then each epoch's re-arm — and never from
// inside a running epoch, whose re-arm would overwrite that arm unfired.
// The epochs and the timers fired are the hops, one each.
func TestAnchorArmedOncePerEpoch(t *testing.T) {
	const nodes = 6
	clk := &armCounter{Virtual: vclock.NewVirtual(epoch)}
	n := New(clk, 1)
	addrs := Addrs(nodes)
	nics := make([]*NIC, nodes)
	for i, a := range addrs {
		nics[i] = attach(t, n, a)
	}
	for i := 0; i+1 < nodes; i++ {
		if err := n.SetDirectedLink(addrs[i], addrs[i+1], DefaultQuality()); err != nil {
			t.Fatal(err)
		}
		next := i + 1
		nics[next].SetReceiver(func(f Frame) {
			if next+1 < nodes {
				_ = nics[next].Send(addrs[next+1], f.Payload)
			}
		})
	}
	if err := nics[0].Send(addrs[1], []byte("hop")); err != nil {
		t.Fatal(err)
	}
	fired := clk.RunUntilIdle(-1)
	const hops = nodes - 1
	st, _ := n.EngineStats()
	if want := (EngineStats{Epochs: hops, Events: hops, MaxEpochEvents: 1}); st != want || fired != hops {
		t.Fatalf("engine %+v and %d timers fired, want %+v and %d", st, fired, want, hops)
	}
	if clk.arms != hops {
		t.Fatalf("anchor armed %d times over %d epochs, want once per epoch", clk.arms, hops)
	}
}
