package reactive

import (
	"slices"
	"testing"
	"time"

	"manetkit/internal/core"
	"manetkit/internal/event"
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

// rreq is one request a fakeRules sent: its attempt, hop limit and virtual
// send time.
type rreq struct {
	attempt int
	ttl     uint8
	at      time.Duration
}

// fakeRules widens a ring by two hops per attempt, gives up after tries
// attempts and waits base << (attempt-1) for a reply, recording every
// request it is asked to send.
type fakeRules struct {
	base  time.Duration
	tries int
	sent  map[mnet.Addr][]rreq
}

func (r *fakeRules) SendRREQ(ctx *core.Context, dst mnet.Addr, attempt int, ttl uint8) time.Duration {
	r.sent[dst] = append(r.sent[dst], rreq{attempt, ttl, ctx.Clock().Now().Sub(epoch)})
	return r.base << (attempt - 1)
}

func (r *fakeRules) NextAttempt(attempt int, ttl uint8) (uint8, bool) {
	return ttl + 2, attempt < r.tries
}

func (r *fakeRules) LinkLost(*core.Context, mnet.Addr) {}

// lifecycle is a Discovery deployed on its own virtual clock beside a naive
// per-destination model of it: the pending attempt, its hop limit and when
// its retry is due, the requests that should have gone out, and the counts.
type lifecycle struct {
	clk   *vclock.Virtual
	proto *core.Protocol
	state State
	rules fakeRules
	disc  Discovery

	pending map[mnet.Addr]*rreq // at is when the retry is due
	want    map[mnet.Addr][]rreq
	counts  Counts
}

func newLifecycle(t *testing.T, tries int, base time.Duration) *lifecycle {
	l := &lifecycle{
		clk:     vclock.NewVirtual(epoch),
		proto:   core.NewProtocol("discovery"),
		rules:   fakeRules{base: base, tries: tries, sent: make(map[mnet.Addr][]rreq)},
		pending: make(map[mnet.Addr]*rreq),
		want:    make(map[mnet.Addr][]rreq),
	}
	l.state.Init()
	l.state.Routes.Bind(l.clk, nil, "")
	l.disc = NewDiscovery(l.proto, &l.state, &l.rules, time.Second)
	l.proto.SetTuple(event.Tuple{Provided: []event.Type{event.RouteFound}})
	mgr, err := core.NewManager(core.Config{Node: mnet.AddrFrom(0x0a000001), Clock: l.clk})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Deploy(l.proto); err != nil {
		t.Fatal(err)
	}
	if err := l.proto.Start(); err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *lifecycle) locked(t *testing.T, fn func(*core.Context)) {
	if err := l.proto.RunLocked(fn); err != nil {
		t.Fatal(err)
	}
}

// step runs one operation — Start, advance to the next retry, Found or
// Stop — on both the Discovery and the model, then compares them.
func (l *lifecycle) step(t *testing.T, op, arg byte) {
	dst := mnet.AddrFrom(0x0a000100 + uint32(arg&3))
	now := l.clk.Now().Sub(epoch)
	switch op >> 4 & 3 {
	case 0:
		ttl := arg >> 2
		l.locked(t, func(ctx *core.Context) { l.disc.Start(ctx, dst, ttl) })
		if _, busy := l.pending[dst]; !busy {
			l.counts.Discoveries++
			l.pending[dst] = &rreq{attempt: 1, ttl: ttl, at: now + l.rules.base}
			l.want[dst] = append(l.want[dst], rreq{1, ttl, now})
		}
	case 1:
		next := time.Duration(-1)
		for _, p := range l.pending {
			if next < 0 || p.at < next {
				next = p.at
			}
		}
		if next < 0 {
			next = now + l.rules.base
		}
		l.clk.Advance(next - now)
		for dst, p := range l.pending {
			if p.at != next {
				continue
			}
			if p.attempt >= l.rules.tries {
				l.counts.GiveUps++
				delete(l.pending, dst)
				continue
			}
			l.counts.Retries++
			p.attempt++
			p.ttl += 2
			p.at = next + l.rules.base<<(p.attempt-1)
			l.want[dst] = append(l.want[dst], rreq{p.attempt, p.ttl, next})
		}
	case 2:
		l.locked(t, func(ctx *core.Context) { l.disc.Found(ctx, dst) })
		delete(l.pending, dst)
	case 3:
		if err := l.disc.Stop(nil); err != nil {
			t.Fatal(err)
		}
		clear(l.pending)
		if n := l.clk.Pending(); n != 0 {
			t.Fatalf("%d timers armed after Stop", n)
		}
	}
	l.state.Lock()
	counts := l.state.Counts
	l.state.Unlock()
	if counts != l.counts {
		t.Fatalf("counts %+v, model %+v", counts, l.counts)
	}
	for dst, want := range l.want {
		if got := l.rules.sent[dst]; !slices.Equal(got, want) {
			t.Fatalf("requests to %v: %v, model %v", dst, got, want)
		}
	}
	if len(l.rules.sent) != len(l.want) {
		t.Fatalf("requests to %d destinations, model %d", len(l.rules.sent), len(l.want))
	}
	if n := l.clk.Pending(); n != len(l.pending) {
		t.Fatalf("%d retry timers armed, model expects %d", n, len(l.pending))
	}
}

// FuzzReactiveState drives random Seen / Sweep / Start / Arm / Due /
// Complete / GiveUp / StopAll sequences against naive models — a map of
// sighting times (the representation DupSet packs), a map of discoveries
// and a list of the timers that should still be armed — and checks SeqNewer
// and Seq.Next on random numbers. An op byte with its top bit set drives a
// Discovery instead: Start, advance to the next retry, Found or Stop, each
// checked against a naive per-destination model of attempts, hop limits,
// send times and Counts.
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
	// A discovery retried to give-up; one found after a retry; two pending
	// when Stop abandons them, and a restart after.
	f.Add([]byte{0x80, 0x09, 0x90, 0, 0x90, 0, 0x90, 0, 0x90, 0}, uint16(2), uint16(0))
	f.Add([]byte{0x80, 0x01, 0x80, 0x06, 0x90, 0, 0xa0, 0x01, 0x90, 0, 0x90, 0}, uint16(3), uint16(1))
	f.Add([]byte{0x80, 0x01, 0x80, 0x02, 0x90, 0, 0xb0, 0, 0x90, 0, 0x80, 0x01, 0x90, 0}, uint16(1), uint16(2))

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
			lc      *lifecycle
		)
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			if op&0x80 != 0 {
				if lc == nil {
					lc = newLifecycle(t, 1+int(a%4), time.Duration(1+b%3)*100*time.Millisecond)
				}
				lc.step(t, op, arg)
				continue
			}
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
