package vclock

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// clockOps is the surface the model-based test drives: the Virtual clock
// through virtualOps, or the naive model. Times are nanoseconds since the
// start instant; timers are named by creation index.
type clockOps interface {
	afterFunc(d time.Duration, f func()) int
	stop(h int) bool
	reset(h int, d time.Duration) bool
	advance(d time.Duration) int
	step() bool
	runUntil(t int64) int
	runUntilIdle(max int) int
	pending() int
	nextDeadline() (int64, bool)
	now() int64
}

type virtualOps struct {
	v      *Virtual
	timers []Timer
}

func (c *virtualOps) afterFunc(d time.Duration, f func()) int {
	c.timers = append(c.timers, c.v.AfterFunc(d, f))
	return len(c.timers) - 1
}
func (c *virtualOps) stop(h int) bool                   { return c.timers[h].Stop() }
func (c *virtualOps) reset(h int, d time.Duration) bool { return c.timers[h].Reset(d) }
func (c *virtualOps) advance(d time.Duration) int       { return c.v.Advance(d) }
func (c *virtualOps) step() bool                        { return c.v.Step() }
func (c *virtualOps) runUntil(t int64) int              { return c.v.RunUntil(epoch.Add(time.Duration(t))) }
func (c *virtualOps) runUntilIdle(max int) int          { return c.v.RunUntilIdle(max) }
func (c *virtualOps) pending() int                      { return c.v.Pending() }
func (c *virtualOps) now() int64                        { return int64(c.v.Now().Sub(epoch)) }
func (c *virtualOps) nextDeadline() (int64, bool) {
	t, ok := c.v.NextDeadline()
	if !ok {
		return 0, false
	}
	return int64(t.Sub(epoch)), true
}

// model is the specification the Virtual clock is held to: a list of
// pending timers kept sorted by (deadline, registration sequence), a
// deadline being now+d clamped to the int64 range.
type model struct {
	clock  int64
	seq    uint64
	timers []*modelTimer // every timer ever made, by creation index
	queue  []*modelTimer // the pending ones, sorted
}

type modelTimer struct {
	when int64
	seq  uint64
	f    func()
}

func (a *modelTimer) before(b *modelTimer) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func clampedAdd(now int64, d time.Duration) int64 {
	switch {
	case d > 0 && now > math.MaxInt64-int64(d):
		return math.MaxInt64
	case d < 0 && now < math.MinInt64-int64(d):
		return math.MinInt64
	}
	return now + int64(d)
}

func (m *model) arm(t *modelTimer, d time.Duration) {
	t.when, t.seq = clampedAdd(m.clock, d), m.seq
	m.seq++
	i := sort.Search(len(m.queue), func(i int) bool { return t.before(m.queue[i]) })
	m.queue = slices.Insert(m.queue, i, t)
}

// unqueue takes t out of the queue and reports whether it was there.
func (m *model) unqueue(t *modelTimer) bool {
	i := slices.Index(m.queue, t)
	if i < 0 {
		return false
	}
	m.queue = slices.Delete(m.queue, i, i+1)
	return true
}

func (m *model) afterFunc(d time.Duration, f func()) int {
	t := &modelTimer{f: f}
	m.arm(t, d)
	m.timers = append(m.timers, t)
	return len(m.timers) - 1
}

func (m *model) stop(h int) bool { return m.unqueue(m.timers[h]) }

func (m *model) reset(h int, d time.Duration) bool {
	was := m.unqueue(m.timers[h])
	m.arm(m.timers[h], d)
	return was
}

func (m *model) run(until int64, limit int) int {
	fired := 0
	for len(m.queue) > 0 && m.queue[0].when <= until && (limit < 0 || fired < limit) {
		t := m.queue[0]
		m.queue = m.queue[1:]
		m.clock = max(m.clock, t.when)
		t.f()
		fired++
	}
	return fired
}

func (m *model) advance(d time.Duration) int {
	target := clampedAdd(m.clock, d)
	fired := m.run(target, -1)
	m.clock = max(m.clock, target)
	return fired
}

func (m *model) step() bool               { return m.run(math.MaxInt64, 1) == 1 }
func (m *model) runUntilIdle(max int) int { return m.run(math.MaxInt64, max) }
func (m *model) pending() int             { return len(m.queue) }
func (m *model) now() int64               { return m.clock }

func (m *model) runUntil(t int64) int {
	if t < m.clock {
		return 0
	}
	return m.advance(time.Duration(t - m.clock))
}

func (m *model) nextDeadline() (int64, bool) {
	if len(m.queue) == 0 {
		return 0, false
	}
	return m.queue[0].when, true
}

// program interprets fuzz bytes as a sequence of clock operations, some of
// them made from inside timer callbacks, and logs every observable result.
// The same bytes run against two clockOps must produce the same log.
type program struct {
	data   []byte
	budget int // operations left, callbacks included
	c      clockOps
	timers int
	log    []string
}

func runProgram(data []byte, c clockOps) []string {
	p := &program{data: data, budget: 400, c: c}
	for len(p.data) > 0 && p.budget > 0 {
		p.budget--
		p.topOp()
		p.observe()
	}
	p.logf("drain %d", c.runUntilIdle(-1))
	p.observe()
	return p.log
}

func (p *program) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

func (p *program) next() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

// delay draws mostly small delays on a millisecond grid, so deadlines tie
// often, plus zero, negative and saturating ones.
func (p *program) delay() time.Duration {
	switch b := p.next(); {
	case b == 255:
		return math.MaxInt64
	case b == 254:
		return math.MinInt64
	case b == 253:
		return math.MaxInt64 - time.Duration(p.next())
	case b >= 224:
		return -time.Duration(b-224) * time.Millisecond
	default:
		return time.Duration(b%32) * time.Millisecond
	}
}

// span draws how far Advance or RunUntil moves: a delay, except that a
// jump to the end of time, after which every deadline saturates and only
// the sequence orders timers, is made rare.
func (p *program) span() time.Duration {
	if d := p.delay(); d < time.Hour || p.next() >= 224 {
		return d
	}
	return 31 * time.Millisecond
}

func (p *program) schedule() {
	d := p.delay()
	id := p.timers
	p.timers++
	h := p.c.afterFunc(d, func() {
		p.logf("fire %d at %d", id, p.c.now())
		if p.budget > 0 {
			p.budget--
			p.callbackOp()
		}
	})
	if h != id {
		panic("timer handles out of step")
	}
	p.logf("after %d %v", id, d)
}

// callbackOp is one operation made from inside a firing callback. A stop
// or reset there may name the firing timer itself, so what the clock
// reports right after it is logged too.
func (p *program) callbackOp() {
	switch p.next() % 5 {
	case 1:
		p.schedule()
	case 2:
		p.stopOne()
		p.observe()
	case 3:
		p.resetOne()
		p.observe()
	case 4:
		p.observe()
	}
}

func (p *program) stopOne() {
	if p.timers == 0 {
		return
	}
	h := int(p.next()) % p.timers
	p.logf("stop %d %v", h, p.c.stop(h))
}

func (p *program) resetOne() {
	if p.timers == 0 {
		return
	}
	h := int(p.next()) % p.timers
	d := p.delay()
	p.logf("reset %d %v %v", h, d, p.c.reset(h, d))
}

func (p *program) topOp() {
	switch p.next() % 10 {
	case 0, 1, 2:
		p.schedule()
	case 3:
		p.stopOne()
	case 4:
		p.resetOne()
	case 5:
		d := p.span()
		p.logf("advance %v %d", d, p.c.advance(d))
	case 6:
		p.logf("step %v", p.c.step())
	case 7:
		t := clampedAdd(p.c.now(), p.span())
		p.logf("rununtil %d %d", t, p.c.runUntil(t))
	case 8:
		max := int(p.next()%4) - 1
		p.logf("runidle %d %d", max, p.c.runUntilIdle(max))
	case 9:
		p.callbackOp()
	}
}

func (p *program) observe() {
	d, ok := p.c.nextDeadline()
	p.logf("pending %d next %d %v now %d", p.c.pending(), d, ok, p.c.now())
}

// FuzzVirtualClock holds the Virtual clock's heap to the sorted-list model:
// the same random AfterFunc / Stop / Reset / Advance / Step / RunUntil /
// RunUntilIdle sequences, some made from inside callbacks, with zero,
// negative and saturating delays, must fire the same timers in the same
// order at the same instants and return the same values throughout.
//
//	go test ./internal/vclock -run=^$ -fuzz=FuzzVirtualClock -fuzztime=10s
func FuzzVirtualClock(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 0, 5, 5, 10, 6, 6, 6})                     // ties on one deadline
	f.Add([]byte{0, 255, 0, 254, 0, 253, 7, 5, 255, 0, 0, 8, 0})        // saturating delays
	f.Add([]byte{0, 40, 0, 8, 0, 16, 4, 0, 1, 4, 1, 230, 3, 2, 5, 100}) // resets, one negative
	// A callback stops or resets its own timer (the only one, or the
	// first of two) and observes; the re-arms land behind the clock, at
	// its instant and on the other timer's deadline.
	f.Add([]byte{0, 5, 5, 10, 2, 0})
	f.Add([]byte{0, 5, 5, 10, 3, 0, 3})
	f.Add([]byte{0, 5, 0, 7, 5, 10, 3, 0, 226, 3, 0, 2})
	f.Add([]byte{0, 5, 0, 7, 5, 10, 3, 0, 0, 3, 2, 0, 2, 0})
	f.Add([]byte{0, 1, 5, 20, 3, 0, 2, 3, 0, 2, 3, 0, 2, 2, 0}) // re-arms itself, as the medium's anchor does
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		b := make([]byte, 64+rng.Intn(448))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := runProgram(data, &model{})
		got := runProgram(data, &virtualOps{v: NewVirtual(epoch)})
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				lo := max(0, i-5)
				t.Fatalf("diverged at entry %d:\nclock %q\nmodel %q", i, got[lo:min(len(got), i+1)], want[lo:i+1])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("clock logged %d entries, model %d", len(got), len(want))
		}
	})
}
