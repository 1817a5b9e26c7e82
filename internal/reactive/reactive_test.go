package reactive

import (
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestDupSetSeen(t *testing.T) {
	var s DupSet
	k := Key{Orig: mnet.AddrFrom(0x0a000001), Seq: 7}
	if s.Has(k) || s.Seen(k, epoch) {
		t.Fatal("empty set knows the key")
	}
	if !s.Seen(k, epoch.Add(20*time.Second)) {
		t.Fatal("second sighting not reported as a duplicate")
	}
	if s.Seen(Key{Orig: k.Orig, Seq: 8}, epoch) || s.Len() != 2 {
		t.Fatalf("another seq is another key: len %d", s.Len())
	}
	// The second sighting restarted k's hold; seq 8's has run out.
	s.Sweep(epoch.Add(40*time.Second), DupHold, nil)
	if kept := s.Has(k); !kept || s.Len() != 1 {
		t.Fatalf("sweep kept %d entries, k present %v", s.Len(), kept)
	}
}

// TestDupSetKeyRoundTrip: a dropped entry reports the key it was seen
// under, at the edges of both fields.
func TestDupSetKeyRoundTrip(t *testing.T) {
	for _, k := range []Key{
		{},
		{Orig: mnet.AddrFrom(0xffffffff), Seq: 0xffff},
		{Orig: mnet.AddrFrom(0x80000001), Seq: 0x8000},
		{Orig: mnet.AddrFrom(0x0a000001), Seq: 1},
	} {
		var s DupSet
		s.Seen(k, epoch)
		var dropped []Key
		s.Sweep(epoch.Add(time.Second), 0, func(d Key) { dropped = append(dropped, d) })
		if len(dropped) != 1 || dropped[0] != k {
			t.Fatalf("Seen(%v) then Sweep dropped %v", k, dropped)
		}
	}
}

func TestDupSetSweepHold(t *testing.T) {
	for _, tc := range []struct {
		name string
		age  time.Duration
		kept bool
	}{
		{"fresh", 0, true},
		{"exactly the hold", DupHold, true},
		{"just past the hold", DupHold + time.Nanosecond, false},
	} {
		var s DupSet
		k := Key{Orig: mnet.AddrFrom(0x0a000001), Seq: 1}
		s.Seen(k, epoch)
		var dropped []Key
		s.Sweep(epoch.Add(tc.age), DupHold, func(d Key) { dropped = append(dropped, d) })
		if kept := s.Has(k); kept != tc.kept {
			t.Errorf("%s: kept = %v, want %v", tc.name, kept, tc.kept)
		}
		if want := !tc.kept; (len(dropped) == 1 && dropped[0] == k) != want {
			t.Errorf("%s: dropped = %v", tc.name, dropped)
		}
	}
}

func TestDiscoveries(t *testing.T) {
	dst := mnet.AddrFrom(0x0a000009)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, d Discoveries, clk *vclock.Virtual)
	}{
		{"a duplicate start is refused", func(t *testing.T, d Discoveries, clk *vclock.Virtual) {
			if !d.Start(dst, epoch) || d.Start(dst, epoch.Add(time.Second)) {
				t.Fatal("second start accepted")
			}
			if started, ok := d.Complete(dst); !ok || !started.Equal(epoch) {
				t.Fatalf("started = %v, %v; want the first start", started, ok)
			}
		}},
		{"a stale attempt is ignored", func(t *testing.T, d Discoveries, clk *vclock.Virtual) {
			d.Start(dst, epoch)
			d.Arm(dst, 1, 2, clk.AfterFunc(time.Second, func() {}))
			if ttl, ok := d.Due(dst, 1); !ok || ttl != 2 {
				t.Fatalf("Due(1) = %d, %v", ttl, ok)
			}
			d.Arm(dst, 2, 4, clk.AfterFunc(time.Second, func() {}))
			if _, ok := d.Due(dst, 1); ok {
				t.Fatal("superseded attempt still due")
			}
			if ttl, ok := d.Due(dst, 2); !ok || ttl != 4 {
				t.Fatalf("Due(2) = %d, %v", ttl, ok)
			}
			if _, ok := d.Due(mnet.AddrFrom(1), 1); ok {
				t.Fatal("unknown destination due")
			}
		}},
		{"complete stops the timer", func(t *testing.T, d Discoveries, clk *vclock.Virtual) {
			d.Start(dst, epoch)
			d.Arm(dst, 1, 0, clk.AfterFunc(time.Second, func() {}))
			if _, ok := d.Complete(dst); !ok || clk.Pending() != 0 {
				t.Fatalf("complete: ok %v, %d timers pending", ok, clk.Pending())
			}
			if _, ok := d.Complete(dst); ok {
				t.Fatal("completed twice")
			}
			if _, ok := d.Due(dst, 1); ok {
				t.Fatal("completed discovery still due")
			}
		}},
		{"arming a finished discovery stops the new timer", func(t *testing.T, d Discoveries, clk *vclock.Virtual) {
			d.Start(dst, epoch)
			d.GiveUp(dst)
			d.Arm(dst, 1, 0, clk.AfterFunc(time.Second, func() {}))
			if clk.Pending() != 0 {
				t.Fatal("timer of a given-up discovery left armed")
			}
			if !d.Start(dst, epoch) {
				t.Fatal("a given-up destination cannot start again")
			}
		}},
		{"stop-all stops every timer", func(t *testing.T, d Discoveries, clk *vclock.Virtual) {
			for i := uint32(0); i < 3; i++ {
				a := mnet.AddrFrom(0x0a000010 + i)
				d.Start(a, epoch)
				d.Arm(a, 1, 0, clk.AfterFunc(time.Second, func() {}))
			}
			d.StopAll()
			if clk.Pending() != 0 {
				t.Fatalf("%d timers pending after StopAll", clk.Pending())
			}
			if !d.Start(dst, epoch) {
				t.Fatal("table not reusable after StopAll")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, make(Discoveries), vclock.NewVirtual(epoch))
		})
	}
}

func TestSeqSkipsZero(t *testing.T) {
	var s Seq
	if got := s.Next(); got != 1 {
		t.Fatalf("first Next = %d", got)
	}
	s = 0xfffe
	for _, want := range []uint16{0xffff, 1, 2} {
		if got := s.Next(); got != want {
			t.Fatalf("Next = %#x, want %#x", got, want)
		}
	}
}
