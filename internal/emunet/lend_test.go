package emunet

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// The medium lends a transmission's bytes: a payload is a view valid for the
// call it was handed to, and the record holding it is recycled, its buffer
// poisoned, once the transmission's last delivery has fired. These tests
// pin both halves of that rule: what breaks it reads the poison, and what
// may keep a frame (a decode, a tap, fault injection) keeps it intact.

// poisoned reports whether b holds nothing but the recycled-buffer poison.
func poisoned(b []byte) bool {
	return len(b) > 0 && len(bytes.Trim(b, "\xde")) == 0
}

// TestLentViewReadsPoisonAfterItsCall keeps payload views past their calls,
// against the rule: the receivers of a broadcast and of a unicast, and a
// MAC verdict. Once the epoch is over every view reads the poison, and once
// the next send has taken the recycled record, its bytes.
func TestLentViewReadsPoisonAfterItsCall(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(3)
	nics := []*NIC{attach(t, n, addrs[0]), attach(t, n, addrs[1]), attach(t, n, addrs[2])}
	n.SetLink(addrs[0], addrs[1], DefaultQuality())
	n.SetLink(addrs[0], addrs[2], DefaultQuality())
	var views [][]byte
	for _, nic := range nics[1:] {
		nic.SetReceiver(func(f Frame) { views = append(views, f.Payload) })
	}
	verdict := func(f Frame, delivered bool) { views = append(views, f.Payload) }
	if err := nics[0].Send(mnet.Broadcast, []byte("broadcast frame")); err != nil {
		t.Fatal(err)
	}
	if err := nics[0].SendWithFeedbackTagged(addrs[1], []byte("unicast frame!!"), "", verdict); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle(-1)
	if len(views) != 4 {
		t.Fatalf("%d views kept, want 4 (two broadcast receivers, a unicast and its verdict)", len(views))
	}
	for i, v := range views {
		if !poisoned(v) {
			t.Fatalf("view %d reads %q after its call, want the poison", i, v)
		}
	}
	for _, nic := range nics[1:] {
		nic.SetReceiver(nil)
	}
	if err := nics[0].Send(addrs[2], []byte("the next frame!")); err != nil {
		t.Fatal(err)
	}
	if got := string(views[3]); got != "the next frame!" {
		t.Fatalf("kept view reads %q after the next send, want that send's bytes", got)
	}
}

// TestLentFramesKeptUnderTapsAndFaults: while a capture tap, a transmission
// tap or a fault plan is installed, no buffer is lent twice, so payload
// views kept by the receivers stay byte-identical over many later sends.
func TestLentFramesKeptUnderTapsAndFaults(t *testing.T) {
	for _, tc := range []struct {
		name    string
		install func(*Network)
	}{
		{"tap", func(n *Network) { n.SetTap(func(Frame, mnet.Addr) {}) }},
		{"txtap", func(n *Network) { n.SetTxTap(func(Frame) {}) }},
		{"faultplan", func(n *Network) { NewFaultPlan(1).DuplicateFrames(0, time.Hour, 0.2).Apply(n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, clk := newNet(t)
			addrs := Addrs(3)
			if err := BuildClique(n, addrs, DefaultQuality()); err != nil {
				t.Fatal(err)
			}
			tc.install(n)
			type view struct{ live, seen []byte }
			var views []view
			for _, a := range addrs {
				nic, _ := n.NIC(a)
				nic.SetReceiver(func(f Frame) { views = append(views, view{f.Payload, bytes.Clone(f.Payload)}) })
			}
			src, _ := n.NIC(addrs[0])
			for i := 0; i < 100; i++ {
				dst := mnet.Broadcast
				if i%2 == 1 {
					dst = addrs[1+i%len(addrs[1:])]
				}
				if err := src.Send(dst, []byte(fmt.Sprintf("frame %03d", i))); err != nil {
					t.Fatal(err)
				}
				clk.Advance(10 * time.Millisecond)
			}
			if len(views) < 150 {
				t.Fatalf("%d frames kept, want at least 150", len(views))
			}
			for _, v := range views {
				if !bytes.Equal(v.live, v.seen) {
					t.Fatalf("kept frame %q now reads %q", v.seen, v.live)
				}
			}
		})
	}
}

// lentView is a decode that aliases the payload, as packetbb's does, and
// that the medium may lend: Poison marks it released.
type lentView struct {
	b        []byte
	poisoned bool
}

func (v *lentView) Poison() { v.b, v.poisoned = poison[:4], true }

// TestLentDecodeSurvivesRecordReuse: a decode is lent with the bytes it
// aliases. What survives the reuse of its record is a copy: a receiver that
// clones what it reads keeps it intact over many later sends, and one that
// keeps the value itself reads the poison once the record is released, and
// a later transmission's decode once that one has taken it as room.
// While the transmission is live its receivers share one decode, and the
// released values come back as the next decodes' room, so a run of
// transmissions needs no more values than roomCap. A transmission kept
// (Frame.Keep) keeps its decode: it stays intact and is never a room.
func TestLentDecodeSurvivesRecordReuse(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(3)
	if err := BuildClique(n, addrs, DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	fresh, keptVals := 0, map[*lentView]bool{}
	decode := func(p []byte, room any) (any, error) {
		v, _ := room.(*lentView)
		if v == nil {
			v = new(lentView)
			fresh++
		} else if keptVals[v] {
			t.Fatalf("the decode of kept transmission %q was handed out as room", v.b)
		}
		*v = lentView{b: p[1:]}
		return v, nil
	}
	type kept struct {
		v     *lentView
		clone []byte
		keep  bool
	}
	var decoded []kept
	for i, a := range addrs[1:] {
		nic, _ := n.NIC(a)
		nic.SetReceiver(func(f Frame) {
			got, _ := f.Decoded(decode)
			v := got.(*lentView)
			if k := len(decoded); i == 1 && decoded[k-1].v != v {
				t.Fatalf("the receivers of %q were handed two decodes", v.b)
			}
			keep := f.Payload[len(f.Payload)-1]%5 == 0
			if keep {
				f.Keep()
				keptVals[v] = true
			}
			decoded = append(decoded, kept{v, bytes.Clone(v.b), keep})
		})
	}
	src, _ := n.NIC(addrs[0])
	for i := 0; i < 50; i++ {
		if err := src.Send(mnet.Broadcast, []byte(fmt.Sprintf("#packet %02d", i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Millisecond)
		for _, d := range decoded[len(decoded)-2:] {
			if !d.keep && (!d.v.poisoned || !poisoned(d.v.b)) {
				t.Fatalf("decode of %q kept uncloned past its record reads %q, want the poison", d.clone, d.v.b)
			}
		}
	}
	if len(decoded) != 100 {
		t.Fatalf("%d decodes delivered, want 100", len(decoded))
	}
	if want := 10 + roomCap; fresh > want {
		t.Fatalf("%d values decoded for 50 transmissions, 10 of them kept: want at most %d", fresh, want)
	}
	for i, d := range decoded {
		want := fmt.Sprintf("packet %02d", i/2)
		if string(d.clone) != want {
			t.Fatalf("the clone of decode %d reads %q, want %q", i, d.clone, want)
		}
		if d.keep && (d.v.poisoned || string(d.v.b) != want) {
			t.Fatalf("the decode of kept transmission %q now reads %q", want, d.v.b)
		}
	}
}

// TestDecodedOnceAcrossGoroutines races the decode slot's sync.Once: the
// capture tap keeps every copy of one broadcast's frame and, in the call
// that hands it the last, has several goroutines call Decoded on those
// copies at once. The decode runs once, and every caller gets its value
// and its error.
func TestDecodedOnceAcrossGoroutines(t *testing.T) {
	const receivers, callers = 4, 16
	n, clk := newNet(t)
	if err := BuildClique(n, Addrs(receivers+1), DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	var decodes atomic.Int32
	decode := func(p []byte, _ any) (any, error) {
		decodes.Add(1)
		return new(byte), fmt.Errorf("decoded %q", p) // fresh each run: identity names the run
	}
	var frames []Frame
	type result struct {
		v   any
		err error
	}
	var results [callers]result
	n.SetTap(func(f Frame, _ mnet.Addr) {
		if frames = append(frames, f); len(frames) < receivers {
			return
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				results[i].v, results[i].err = frames[i%receivers].Decoded(decode)
			}()
		}
		close(start)
		wg.Wait()
	})
	src, _ := n.NIC(Addrs(1)[0])
	if err := src.Send(mnet.Broadcast, []byte("one frame")); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle(-1)
	if len(frames) != receivers {
		t.Fatalf("tap kept %d frames, want %d", len(frames), receivers)
	}
	for _, f := range frames {
		if f.shared == nil || f.shared != frames[0].shared {
			t.Fatal("the receivers of one broadcast do not share its record")
		}
	}
	if got := decodes.Load(); got != 1 {
		t.Fatalf("decode ran %d times for one transmission, want once", got)
	}
	for i, r := range results {
		if r.v == nil || r.v != results[0].v || r.err != results[0].err {
			t.Fatalf("caller %d got (%p, %v), caller 0 (%p, %v)", i, r.v, r.err, results[0].v, results[0].err)
		}
	}
}

// TestTapKeptFrameDecodesItsOwnBytes: a frame a capture tap keeps outlives
// its transmission's record, which the next send takes. Decoding the kept
// frame after the epoch decodes its own bytes and leaves the next send's
// receivers to decode theirs.
func TestTapKeptFrameDecodesItsOwnBytes(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	if err := BuildClique(n, addrs, DefaultQuality()); err != nil {
		t.Fatal(err)
	}
	decode := func(p []byte, _ any) (any, error) { return string(p), nil }
	var kept []Frame
	n.SetTap(func(f Frame, _ mnet.Addr) { kept = append(kept, f) })
	var got []any
	dst, _ := n.NIC(addrs[1])
	dst.SetReceiver(func(f Frame) {
		v, _ := f.Decoded(decode)
		got = append(got, v)
	})
	src, _ := n.NIC(addrs[0])
	if err := src.Send(addrs[1], []byte("first")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	n.SetTap(nil)
	if v, _ := kept[0].Decoded(decode); v != "first" {
		t.Fatalf("the kept frame decodes to %q, want \"first\"", v)
	}
	if err := src.Send(addrs[1], []byte("second")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	if len(got) != 2 || got[1] != "second" {
		t.Fatalf("the receiver decoded %q, want [first second]", got)
	}
}

// TestLentRecordFreeListPlateaus: a burst of more transmissions in flight
// than the record free list holds leaves it at its cap once they have all
// been delivered; the rest go to the collector.
func TestLentRecordFreeListPlateaus(t *testing.T) {
	n, clk := newNet(t)
	addrs := Addrs(2)
	na := attach(t, n, addrs[0])
	attach(t, n, addrs[1])
	n.SetLink(addrs[0], addrs[1], DefaultQuality())
	for i := 0; i < recordCap+50; i++ {
		if err := na.Send(addrs[1], []byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	n.mu.Lock()
	inFlight := len(n.records)
	n.mu.Unlock()
	clk.RunUntilIdle(-1)
	n.mu.Lock()
	free := len(n.records)
	n.mu.Unlock()
	if inFlight != 0 || free != recordCap {
		t.Fatalf("free list holds %d records with the burst in flight and %d after it, want 0 and %d", inFlight, free, recordCap)
	}
}

// TestLentRealClockRace lends buffers under the real clock, where epochs run
// on timer goroutines while two others send: every receiver and verdict
// checks its view inside the call, and each receiver of a broadcast
// answers with a unicast from inside its upcall. Run under -race it proves
// the records' holds and free list are only touched under the network's
// lock; a view reused under a running call reads the wrong bytes.
func TestLentRealClockRace(t *testing.T) {
	const nodes, perSender = 4, 60
	net := New(vclock.Real(), 1)
	addrs := Addrs(nodes)
	q := DefaultQuality()
	q.Delay = 50 * time.Microsecond
	if err := BuildClique(net, addrs, q); err != nil {
		t.Fatal(err)
	}
	var bad, rx, verdicts atomic.Int64
	// uniform is a frame's integrity check: every byte the same, and not
	// the poison.
	uniform := func(p []byte) bool {
		return len(p) > 0 && p[0] != 0xde && len(bytes.Trim(p, string(p[:1]))) == 0
	}
	verdict := func(f Frame, delivered bool) {
		if !uniform(f.Payload) {
			bad.Add(1)
		}
		verdicts.Add(1)
	}
	for _, a := range addrs {
		nic, _ := net.NIC(a)
		nic.SetReceiver(func(f Frame) {
			if !uniform(f.Payload) {
				bad.Add(1)
			}
			rx.Add(1)
			if len(f.Payload)%2 == 0 { // a broadcast: answer it once
				_ = nic.SendWithFeedbackTagged(f.Src, f.Payload[1:], "", verdict)
			}
		})
	}
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		nic, _ := net.NIC(addrs[s])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				_ = nic.Send(mnet.Broadcast, bytes.Repeat([]byte{byte(1 + i%200)}, 32))
				time.Sleep(20 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	want := int64(2 * perSender * 2 * (nodes - 1)) // each broadcast: n-1 receivers, n-1 answers
	for deadline := time.Now().Add(30 * time.Second); rx.Load() < want || verdicts.Load() < want/2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d deliveries and %d of %d verdicts after 30s", rx.Load(), want, verdicts.Load(), want/2)
		}
		time.Sleep(time.Millisecond)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d deliveries read bytes that were not their frame's", bad.Load())
	}
}
