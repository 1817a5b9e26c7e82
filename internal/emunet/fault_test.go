package emunet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

func faultFixture(t *testing.T, nodes int) (*vclock.Virtual, *Network, []mnet.Addr) {
	t.Helper()
	clk := vclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := New(clk, 1)
	addrs := Addrs(nodes)
	if err := BuildLine(net, addrs, DefaultQuality()); err != nil {
		t.Fatalf("BuildLine: %v", err)
	}
	return clk, net, addrs
}

func TestPartitionCutsAndHeals(t *testing.T) {
	clk, net, addrs := faultFixture(t, 4)
	plan := NewFaultPlan(1).Partition(time.Second, 2*time.Second,
		addrs[:2], addrs[2:])
	inj := plan.Apply(net)

	clk.Advance(time.Second)
	if net.Linked(addrs[1], addrs[2]) || net.Linked(addrs[2], addrs[1]) {
		t.Fatalf("cross-partition link survived the cut")
	}
	if !net.Linked(addrs[0], addrs[1]) || !net.Linked(addrs[2], addrs[3]) {
		t.Fatalf("intra-partition link was cut")
	}

	clk.Advance(time.Second)
	if !net.Linked(addrs[1], addrs[2]) || !net.Linked(addrs[2], addrs[1]) {
		t.Fatalf("partition did not heal")
	}
	if q, ok := net.LinkQuality(addrs[1], addrs[2]); !ok || q != DefaultQuality() {
		t.Fatalf("healed link lost its quality: %+v ok=%v", q, ok)
	}
	if len(inj.Log()) != 2 {
		t.Fatalf("expected 2 log lines, got %q", inj.Log())
	}
}

func TestCrashRestartRestoresNICAndLinks(t *testing.T) {
	clk, net, addrs := faultFixture(t, 3)
	mid := addrs[1]
	nic, _ := net.NIC(mid)

	var crashed, restarted []mnet.Addr
	plan := NewFaultPlan(1)
	plan.OnCrash = func(a mnet.Addr) { crashed = append(crashed, a) }
	plan.OnRestart = func(a mnet.Addr) { restarted = append(restarted, a) }
	plan.Crash(time.Second, 3*time.Second, mid)
	plan.Apply(net)

	clk.Advance(time.Second)
	if _, ok := net.NIC(mid); ok {
		t.Fatalf("crashed node still attached")
	}
	if err := nic.Send(addrs[0], []byte("x")); err != ErrDetached {
		t.Fatalf("send from crashed node: got %v, want ErrDetached", err)
	}
	if len(crashed) != 1 || crashed[0] != mid {
		t.Fatalf("OnCrash hook: %v", crashed)
	}

	clk.Advance(2 * time.Second)
	if _, ok := net.NIC(mid); !ok {
		t.Fatalf("restarted node not re-attached")
	}
	if !net.Linked(mid, addrs[0]) || !net.Linked(mid, addrs[2]) ||
		!net.Linked(addrs[0], mid) || !net.Linked(addrs[2], mid) {
		t.Fatalf("restart did not restore links")
	}
	if len(restarted) != 1 || restarted[0] != mid {
		t.Fatalf("OnRestart hook: %v", restarted)
	}
	// The same NIC handle works again.
	if err := nic.Send(addrs[0], []byte("x")); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
}

func TestCrashOfUnknownNodeIsLogged(t *testing.T) {
	clk, net, _ := faultFixture(t, 2)
	ghost := mnet.MustParseAddr("10.9.9.9")
	inj := NewFaultPlan(1).Crash(time.Second, 2*time.Second, ghost).Apply(net)
	clk.Advance(2 * time.Second)
	log := inj.Log()
	if len(log) != 2 {
		t.Fatalf("log: %q", log)
	}
}

func TestCorruptionWindow(t *testing.T) {
	clk, net, addrs := faultFixture(t, 2)
	nicA, _ := net.NIC(addrs[0])
	nicB, _ := net.NIC(addrs[1])

	var clean, corrupted int
	nicB.SetReceiver(func(f Frame) {
		if f.Corrupted {
			corrupted++
		} else {
			clean++
		}
	})
	NewFaultPlan(42).CorruptFrames(0, time.Second, 1).Apply(net)

	payload := []byte("hello hello hello")
	for i := 0; i < 10; i++ {
		if err := nicA.Send(addrs[1], payload); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	clk.Advance(time.Second)
	if corrupted != 10 || clean != 0 {
		t.Fatalf("p=1 corruption: %d corrupted, %d clean", corrupted, clean)
	}
	if st := net.Stats(); st.Corrupted != 10 {
		t.Fatalf("Stats.Corrupted = %d", st.Corrupted)
	}

	// Window closed: frames flow clean again.
	for i := 0; i < 5; i++ {
		_ = nicA.Send(addrs[1], payload)
	}
	clk.Advance(time.Second)
	if clean != 5 {
		t.Fatalf("after window: %d clean", clean)
	}
}

func TestCorruptionNeverMutatesSenderBuffer(t *testing.T) {
	clk, net, addrs := faultFixture(t, 3)
	nicA, _ := net.NIC(addrs[0])
	// A broadcast reaches addrs[1] only (line topology neighbour), but use
	// two receivers via a clique to check per-receiver copies.
	if err := BuildClique(net, addrs, DefaultQuality()); err != nil {
		t.Fatalf("clique: %v", err)
	}
	payloads := make(map[mnet.Addr][]byte)
	for _, a := range addrs[1:] {
		a := a
		nic, _ := net.NIC(a)
		nic.SetReceiver(func(f Frame) { payloads[a] = f.Payload })
	}
	NewFaultPlan(7).CorruptFrames(0, time.Second, 1).Apply(net)

	original := []byte("immutable payload bytes")
	sent := append([]byte(nil), original...)
	if err := nicA.Send(mnet.Broadcast, sent); err != nil {
		t.Fatalf("send: %v", err)
	}
	clk.Advance(100 * time.Millisecond)
	if !reflect.DeepEqual(sent, original) {
		t.Fatalf("sender buffer mutated by corruption")
	}
	if len(payloads) != 2 {
		t.Fatalf("got %d receivers", len(payloads))
	}
	for a, p := range payloads {
		if reflect.DeepEqual(p, original) {
			t.Fatalf("receiver %v got uncorrupted payload under p=1", a)
		}
	}
}

func TestDuplicationWindow(t *testing.T) {
	clk, net, addrs := faultFixture(t, 2)
	nicA, _ := net.NIC(addrs[0])
	nicB, _ := net.NIC(addrs[1])
	got := 0
	nicB.SetReceiver(func(f Frame) { got++ })
	NewFaultPlan(42).DuplicateFrames(0, time.Second, 1).Apply(net)

	for i := 0; i < 4; i++ {
		_ = nicA.Send(addrs[1], []byte("dup me"))
	}
	clk.Advance(time.Second)
	if got != 8 {
		t.Fatalf("p=1 duplication: delivered %d, want 8", got)
	}
	if st := net.Stats(); st.Duplicated != 4 {
		t.Fatalf("Stats.Duplicated = %d", st.Duplicated)
	}
}

func TestReorderWindowSwapsDeliveries(t *testing.T) {
	clk, net, addrs := faultFixture(t, 2)
	nicA, _ := net.NIC(addrs[0])
	nicB, _ := net.NIC(addrs[1])
	var order []byte
	nicB.SetReceiver(func(f Frame) { order = append(order, f.Payload[0]) })
	// Deterministic swap: delay only the first frame far past the second.
	NewFaultPlan(3).ReorderFrames(0, time.Second, 1, 50*time.Millisecond).Apply(net)

	_ = nicA.Send(addrs[1], []byte{'a'})
	clk.Advance(time.Millisecond) // second send 1ms later
	inj := net.Stats().Reordered
	if inj == 0 {
		t.Fatalf("first frame was not jittered")
	}
	// Close the window so the chaser flies straight.
	clk.Advance(time.Second)
	_ = nicA.Send(addrs[1], []byte{'b'})
	clk.Advance(time.Second)

	if len(order) != 2 {
		t.Fatalf("delivered %d frames", len(order))
	}
	if st := net.Stats(); st.Reordered != 1 {
		t.Fatalf("Stats.Reordered = %d", st.Reordered)
	}
}

func TestReattachRejectsOccupiedAddress(t *testing.T) {
	_, net, addrs := faultFixture(t, 2)
	nic, _ := net.NIC(addrs[0])
	if err := net.Reattach(nic); err == nil {
		t.Fatalf("Reattach on attached address should fail")
	}
	if err := net.Detach(addrs[0]); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if err := net.Reattach(nic); err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	if err := nic.Send(addrs[1], []byte("x")); err != nil {
		t.Fatalf("send after reattach: %v", err)
	}
}

// TestDecodeSlotFollowsByteIdentity pins where one transmission's receivers
// share a decode and where they must not: the slot lives in the record that
// lends the medium's one buffer, so every frame holding a record aliases the
// same bytes, while a corrupted copy and a duplicate — each a buffer of its
// own — hold none. Decoded then runs the decode function once per
// transmission plus once per record-less delivery, and hands its result
// (and error) to every holder. Each send's deliveries end before the next
// send, whose record may be the recycled one. With legacy=true a capture
// tap keeps every record before any receiver decodes it, so no send's
// bytes are lent again, as on a medium that never recycles; the tap checks
// both.
func TestDecodeSlotFollowsByteIdentity(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) {
			clk := vclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
			net := New(clk, 1)
			addrs := Addrs(6)
			if err := BuildClique(net, addrs, DefaultQuality()); err != nil {
				t.Fatal(err)
			}
			sends := 0
			if legacy {
				lentBy := map[*byte]int{} // a kept buffer → the send that lent it
				net.SetTap(func(f Frame, _ mnet.Addr) {
					if f.shared == nil {
						return
					}
					if !f.shared.tapped { // whatever the receivers do with it
						t.Fatalf("send %d: the tap is handed a record the medium may lend again", sends)
					}
					if s, ok := lentBy[&f.Payload[0]]; ok && s != sends {
						t.Fatalf("send %d reuses the buffer of send %d, which the tap kept", sends, s)
					}
					lentBy[&f.Payload[0]] = sends
				})
			}
			decodes := 0
			decode := func(p []byte, _ any) (any, error) {
				decodes++
				if p[0]%2 == 1 {
					return nil, ErrNotFound // any error will do: it must be shared too
				}
				return &p[0], nil
			}
			bufOf := map[*txRecord]*byte{} // this send's records
			slots, slotless, deliveries := 0, 0, 0
			settle := func() {
				clk.Advance(20 * time.Millisecond)
				slots += len(bufOf)
				clear(bufOf)
				sends++
			}
			for _, a := range addrs {
				nic, _ := net.NIC(a)
				nic.SetReceiver(func(f Frame) {
					deliveries++
					v, err := f.Decoded(decode)
					if wantErr := f.Payload[0]%2 == 1; (err != nil) != wantErr {
						t.Fatalf("Decoded error %v on payload % x", err, f.Payload)
					}
					if f.shared == nil {
						slotless++
						if err == nil && v.(*byte) != &f.Payload[0] {
							t.Fatal("slot-less frame was not decoded from its own bytes")
						}
						return
					}
					if f.Corrupted {
						t.Fatal("corrupted frame still holds its siblings' slot")
					}
					if first, ok := bufOf[f.shared]; ok && first != &f.Payload[0] {
						t.Fatal("two frames share a slot but not a buffer")
					}
					bufOf[f.shared] = &f.Payload[0]
					if err == nil && v.(*byte) != &f.Payload[0] {
						t.Fatal("shared result was decoded from other bytes")
					}
				})
			}
			src, _ := net.NIC(addrs[0])
			for i := 0; i < 20; i++ { // unicast: one receiver, its own record
				if err := src.Send(addrs[1], []byte{byte(i), 9}); err != nil {
					t.Fatal(err)
				}
				settle()
			}
			if slots != 20 || slotless != 0 || decodes != 20 {
				t.Fatalf("20 unicasts: %d records, %d slot-less deliveries, %d decodes", slots, slotless, decodes)
			}

			NewFaultPlan(5).
				CorruptFrames(0, time.Hour, 0.3).
				DuplicateFrames(0, time.Hour, 0.3).
				ReorderFrames(0, time.Hour, 0.3, 3*time.Millisecond).
				Apply(net)
			for i := 0; i < 200; i++ {
				if err := src.Send(mnet.Broadcast, []byte{byte(i), 1, 2, 3}); err != nil {
					t.Fatal(err)
				}
				settle()
			}
			st := net.Stats()
			if st.Corrupted == 0 || st.Duplicated == 0 || slots <= 20 {
				t.Fatalf("fixture too tame: %+v, %d records", st, slots)
			}
			// The only slot-less deliveries are the mangled and the
			// duplicated ones.
			if want := int(st.Corrupted + st.Duplicated); slotless != want {
				t.Fatalf("%d slot-less deliveries, want %d (%d corrupted + %d duplicated)",
					slotless, want, st.Corrupted, st.Duplicated)
			}
			if want := slots + slotless; decodes != want {
				t.Fatalf("%d decodes for %d deliveries, want %d (one per record + one per slot-less delivery)",
					decodes, deliveries, want)
			}
		})
	}
}

// TestHealWhileEndpointCrashed overlaps a partition with a crash of one of
// the nodes on its cut: the heal must leave the crashed node's links down,
// and the restart must then restore all of them, including the one the
// partition had cut.
func TestHealWhileEndpointCrashed(t *testing.T) {
	clk, net, addrs := faultFixture(t, 4)
	inj := NewFaultPlan(1).
		Partition(time.Second, 3*time.Second, addrs[:2], addrs[2:]).
		Crash(2*time.Second, 4*time.Second, addrs[1]).
		Apply(net)

	clk.Advance(3500 * time.Millisecond) // healed, addrs[1] still down
	if net.Linked(addrs[2], addrs[1]) {
		t.Fatalf("heal re-linked %v to the crashed %v", addrs[2], addrs[1])
	}
	clk.Advance(time.Second)
	want := []mnet.Addr{addrs[0], addrs[2]}
	if got := net.Neighbors(addrs[1]); !reflect.DeepEqual(got, want) {
		t.Fatalf("after heal and restart Neighbors(%v) = %v, want %v\nlog: %q", addrs[1], got, want, inj.Log())
	}
	if !net.Linked(addrs[2], addrs[1]) {
		t.Fatalf("restart left %v->%v down", addrs[2], addrs[1])
	}
}

// TestRestartInsideOpenPartition restarts a crashed node while a partition
// that separates it from a former neighbour is still open: the restart must
// not re-link across the partition, and the heal must.
func TestRestartInsideOpenPartition(t *testing.T) {
	clk, net, addrs := faultFixture(t, 4)
	inj := NewFaultPlan(1).
		Crash(time.Second, 3*time.Second, addrs[1]).
		Partition(2*time.Second, 4*time.Second, addrs[:2], addrs[2:]).
		Apply(net)

	clk.Advance(3500 * time.Millisecond) // restarted, partition open
	if got := net.Neighbors(addrs[1]); !reflect.DeepEqual(got, []mnet.Addr{addrs[0]}) {
		t.Fatalf("inside the partition Neighbors(%v) = %v, want [%v]\nlog: %q", addrs[1], got, addrs[0], inj.Log())
	}
	if net.Linked(addrs[2], addrs[1]) {
		t.Fatalf("restart re-linked %v->%v across the open partition", addrs[2], addrs[1])
	}
	clk.Advance(time.Second)
	if got, want := net.Neighbors(addrs[1]), []mnet.Addr{addrs[0], addrs[2]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after heal Neighbors(%v) = %v, want %v\nlog: %q", addrs[1], got, want, inj.Log())
	}
}

// FuzzFaultPlan schedules overlapping Partition and Crash faults on a random
// topology, interleaved with the test's own CutLink and SetLink moves, and
// holds the medium to a link-set model: the declared links (the starting
// topology as the moves leave it) minus those an open fault holds down. The
// moves touch only pairs no fault holds, since a move across an open fault
// would be undone by its heal or restart. After every 100 ms tick:
//   - no link crosses an open partition between attached nodes;
//   - a crashed node has no links, in either direction;
//   - the link set and its qualities equal the model's, so once every
//     window has closed and every crash has restarted they equal the
//     starting ones as the moves left them.
func FuzzFaultPlan(f *testing.F) {
	// The two compositions on a 4-node line that the plan once got wrong:
	// a heal while an endpoint is crashed, and a restart inside an open
	// partition. Each op is {kind, at, duration, x, y}.
	f.Add([]byte{0, 0, 0, 0, 9, 19, 12, 0, 1, 19, 19, 1, 0})
	f.Add([]byte{0, 0, 0, 1, 9, 19, 1, 0, 0, 19, 19, 12, 0})
	f.Add([]byte{3, 2, 7, 0, 4, 30, 5, 8, 1, 2, 8, 3, 0, 2, 6, 0, 1, 2, 3, 9, 4, 1, 0, 1, 12, 12, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 4 + int(data[0]%5)
		clk := vclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
		net := New(clk, 1)
		addrs := Addrs(n)
		switch data[1] % 3 {
		case 0:
			_ = BuildLine(net, addrs, DefaultQuality())
		case 1:
			_ = BuildClique(net, addrs, DefaultQuality())
		default:
			_ = BuildRandom(net, addrs, 0.4, int64(data[2]), DefaultQuality())
		}
		// Give every directed link its own quality, so a restore that mixes
		// two links up shows.
		rng := rand.New(rand.NewSource(int64(data[2])))
		declared := map[[2]mnet.Addr]Quality{}
		for _, from := range addrs {
			for _, to := range net.Neighbors(from) {
				q := Quality{Delay: time.Duration(1+rng.Intn(5)) * time.Millisecond, Loss: float64(rng.Intn(5)) / 10, SignalDBm: -float64(40 + rng.Intn(50))}
				_ = net.SetDirectedLink(from, to, q)
				declared[[2]mnet.Addr{from, to}] = q
			}
		}

		tick := func(b byte) time.Duration { return time.Duration(b%20+1) * 100 * time.Millisecond }
		type window struct {
			at, end time.Duration
			group   map[mnet.Addr]int // partition: node → group; nil for a crash
			node    mnet.Addr         // crash
		}
		type move struct {
			at   time.Duration
			a, b mnet.Addr
			q    *Quality // nil: CutLink
		}
		var windows []window
		var moves []move
		plan := NewFaultPlan(1)
		for ops := data[3:]; len(ops) >= 5; ops = ops[5:] {
			at, end := tick(ops[1]), tick(ops[1])+tick(ops[2])
			switch ops[0] % 4 {
			case 0:
				var groups [2][]mnet.Addr
				group := map[mnet.Addr]int{}
				for i, a := range addrs {
					if ops[4]>>i&1 == 0 {
						g := int(ops[3] >> i & 1)
						groups[g] = append(groups[g], a)
						group[a] = g
					}
				}
				plan.Partition(at, end, groups[0], groups[1])
				windows = append(windows, window{at: at, end: end, group: group})
			case 1:
				node := addrs[int(ops[3])%n]
				overlaps := false
				for _, w := range windows {
					overlaps = overlaps || w.group == nil && w.node == node && at <= w.end && w.at <= end
				}
				if !overlaps { // a crash of a node already down is skipped, which the model leaves out
					plan.Crash(at, end, node)
					windows = append(windows, window{at: at, end: end, node: node})
				}
			case 2:
				moves = append(moves, move{at: at, a: addrs[int(ops[3])%n], b: addrs[int(ops[4])%n]})
			default:
				q := Quality{Delay: time.Duration(1+ops[2]%4) * time.Millisecond, Loss: float64(ops[2]%3) / 10, SignalDBm: -float64(30 + ops[2]%40)}
				moves = append(moves, move{at: at, a: addrs[int(ops[3])%n], b: addrs[int(ops[4])%n], q: &q})
			}
		}
		inj := plan.Apply(net)

		for now := time.Duration(0); now <= 4200*time.Millisecond; now += 100 * time.Millisecond {
			if now > 0 {
				clk.Advance(100 * time.Millisecond)
			}
			// held reports whether an open fault holds the pair a, b down.
			held := func(a, b mnet.Addr) bool {
				for _, w := range windows {
					if now < w.at || now >= w.end {
						continue
					}
					if w.group == nil && (w.node == a || w.node == b) {
						return true
					}
					ga, aok := w.group[a]
					gb, bok := w.group[b]
					if aok && bok && ga != gb {
						return true
					}
				}
				return false
			}
			for _, m := range moves {
				if m.at != now || m.a == m.b || held(m.a, m.b) {
					continue
				}
				if m.q == nil {
					net.CutLink(m.a, m.b)
					delete(declared, [2]mnet.Addr{m.a, m.b})
					delete(declared, [2]mnet.Addr{m.b, m.a})
					continue
				}
				if err := net.SetLink(m.a, m.b, *m.q); err != nil {
					t.Fatalf("t=%v SetLink(%v, %v): %v", now, m.a, m.b, err)
				}
				declared[[2]mnet.Addr{m.a, m.b}] = *m.q
				declared[[2]mnet.Addr{m.b, m.a}] = *m.q
			}

			for _, w := range windows {
				if now < w.at || now >= w.end {
					continue
				}
				if w.group == nil {
					if _, ok := net.NIC(w.node); ok {
						t.Fatalf("t=%v: crashed %v is attached", now, w.node)
					}
					if nb := net.Neighbors(w.node); len(nb) > 0 {
						t.Fatalf("t=%v: crashed %v has links to %v", now, w.node, nb)
					}
				}
				for _, a := range addrs {
					for _, b := range net.Neighbors(a) {
						if w.group == nil && b == w.node {
							t.Fatalf("t=%v: %v links to the crashed %v", now, a, b)
						}
						ga, aok := w.group[a]
						gb, bok := w.group[b]
						if aok && bok && ga != gb {
							t.Fatalf("t=%v: link %v->%v crosses an open partition\nlog: %q", now, a, b, inj.Log())
						}
					}
				}
			}
			for _, a := range addrs {
				for _, b := range addrs {
					q, ok := net.LinkQuality(a, b)
					wq, declaredOK := declared[[2]mnet.Addr{a, b}]
					want := declaredOK && !held(a, b)
					if ok != want || ok && q != wq {
						t.Fatalf("t=%v: link %v->%v is %v %+v, model says %v %+v\nlog: %q", now, a, b, ok, q, want, wq, inj.Log())
					}
				}
			}
		}
	})
}
