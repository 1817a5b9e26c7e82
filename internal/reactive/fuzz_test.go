package reactive

import (
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/packetbb"
	"manetkit/internal/vclock"
)

// modelDiscovery is the naive model's pending discovery; timer indexes the
// model's timer list, -1 before the first Arm.
type modelDiscovery struct {
	tries   int
	ttl     uint8
	started time.Time
	timer   int
}

// FuzzReactiveState drives random Seen / Sweep / Start / Arm / Due /
// Complete / GiveUp / StopAll sequences against naive models — a map of
// sighting times (the representation DupSet packs), a map of discoveries
// and a list of the timers that should still be armed — and checks SeqNewer
// and Seq.Next on random numbers.
func FuzzReactiveState(f *testing.F) {
	f.Add([]byte{0, 0x11, 0, 0x11, 2, 50, 1, 40, 0, 0x11}, uint16(0), uint16(0x8000))
	f.Add([]byte{3, 1, 4, 0x12, 5, 0x11, 5, 0x12, 4, 0x23, 6, 1, 4, 0x31}, uint16(0xffff), uint16(0))
	f.Add([]byte{3, 1, 3, 2, 4, 0x11, 4, 0x12, 6, 5, 7, 0, 3, 1, 5, 0}, uint16(0x7fff), uint16(0))
	f.Add([]byte{0, 1, 2, 255, 0, 2, 2, 45, 1, 120, 0, 1, 1, 2}, uint16(1), uint16(0x8001))
	// An entry exactly hold old survives a sweep; one nanosecond later it
	// does not.
	f.Add([]byte{0, 0x11, 2, 10, 1, 4, 10, 1, 1, 4, 0, 0x11}, uint16(2), uint16(3))
	// A sweep before any Seen, then a set whose base the first Seen fixes.
	f.Add([]byte{1, 0, 1, 4, 0, 0x11, 2, 5, 1, 1, 0, 0x11, 0, 0x21}, uint16(5), uint16(4))

	f.Fuzz(func(t *testing.T, ops []byte, a, b uint16) {
		naive := a != b && ((a > b && a-b < 0x8000) || (a < b && b-a > 0x8000))
		ab, ba := packetbb.SeqNewer(a, b), packetbb.SeqNewer(b, a)
		if ab != naive {
			t.Fatalf("SeqNewer(%#x, %#x) = %v, want %v", a, b, ab, naive)
		}
		if ab && ba {
			t.Fatalf("SeqNewer(%#x, %#x) holds both ways", a, b)
		}
		if a != b && a-b != 0x8000 && ab == ba {
			t.Fatalf("SeqNewer(%#x, %#x) holds neither way", a, b)
		}
		s := Seq(a)
		if got, want := s.Next(), a+1; got == 0 || (want != 0 && got != want) || (want == 0 && got != 1) {
			t.Fatalf("Seq(%#x).Next() = %#x", a, got)
		}

		var (
			dups    DupSet
			seen    = make(map[Key]time.Time)
			disc    = make(Discoveries)
			pending = make(map[mnet.Addr]*modelDiscovery)
			clk     = vclock.NewVirtual(epoch)
			live    []bool // per timer created: should it still be armed?
			now     = epoch
		)
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			// Small key spaces, so operations collide.
			k := Key{Orig: mnet.AddrFrom(uint32(arg >> 4 & 3)), Seq: uint16(arg & 3)}
			dst := mnet.AddrFrom(uint32(arg & 3))
			attempt := int(arg >> 4)
			switch op % 8 {
			case 0:
				_, want := seen[k]
				if got := dups.Seen(k, now); got != want {
					t.Fatalf("Seen(%v) = %v, want %v", k, got, want)
				}
				seen[k] = now
			case 1:
				hold := time.Duration(arg) * 250 * time.Millisecond
				dropped := make(map[Key]bool)
				dups.Sweep(now, hold, func(d Key) {
					if dropped[d] {
						t.Fatalf("Sweep dropped %v twice", d)
					}
					dropped[d] = true
				})
				for key, at := range seen {
					expired := now.Sub(at) > hold
					if dropped[key] != expired {
						t.Fatalf("Sweep(hold %v): %v seen %v ago dropped %v", hold, key, now.Sub(at), dropped[key])
					}
					if expired {
						delete(seen, key)
					}
				}
			case 2:
				step := 100 * time.Millisecond
				if op&8 != 0 { // nanosecond steps reach a hold's exact edge
					step = time.Nanosecond
				}
				now = now.Add(time.Duration(arg) * step)
			case 3:
				_, busy := pending[dst]
				if got := disc.Start(dst, now); got == busy {
					t.Fatalf("Start(%v) = %v with a discovery pending: %v", dst, got, busy)
				}
				if !busy {
					pending[dst] = &modelDiscovery{started: now, timer: -1}
				}
			case 4:
				live = append(live, true)
				disc.Arm(dst, attempt, arg, clk.AfterFunc(time.Hour, func() {}))
				if p, ok := pending[dst]; ok {
					p.tries, p.ttl, p.timer = attempt, arg, len(live)-1
				} else {
					live[len(live)-1] = false
				}
			case 5:
				p, busy := pending[dst]
				ttl, ok := disc.Due(dst, attempt)
				if want := busy && p.tries == attempt; ok != want || (ok && ttl != p.ttl) {
					t.Fatalf("Due(%v, %d) = %d, %v; model %+v, pending %v", dst, attempt, ttl, ok, p, busy)
				}
			case 6:
				p, busy := pending[dst]
				delete(pending, dst)
				if arg&4 != 0 {
					disc.GiveUp(dst)
					break
				}
				started, ok := disc.Complete(dst)
				if ok != busy || (ok && !started.Equal(p.started)) {
					t.Fatalf("Complete(%v) = %v, %v; pending %v", dst, started, ok, busy)
				}
				if busy && p.timer >= 0 {
					live[p.timer] = false
				}
			case 7:
				disc.StopAll()
				for _, p := range pending {
					if p.timer >= 0 {
						live[p.timer] = false
					}
				}
				clear(pending)
			}
			if dups.Len() != len(seen) {
				t.Fatalf("Len = %d, model holds %d", dups.Len(), len(seen))
			}
			if _, want := seen[k]; dups.Has(k) != want {
				t.Fatalf("Has(%v) = %v, model %v", k, !want, want)
			}
			armed := 0
			for _, l := range live {
				if l {
					armed++
				}
			}
			if clk.Pending() != armed {
				t.Fatalf("%d timers armed, model expects %d", clk.Pending(), armed)
			}
		}
	})
}
