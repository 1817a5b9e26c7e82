// Package vclock abstracts time for the whole of MANETKit.
//
// Every component that needs timers or timestamps takes a Clock. Production
// deployments use Real(); tests and the experiment harness use a Virtual
// clock, which makes protocol runs — HELLO beacons, TC floods, route
// timeouts, emulated link delays — fully deterministic and lets a multi-
// second scenario execute in microseconds of wall time. A Virtual timer
// whose callback runs keeps its heap slot, so a Reset from the callback (a
// timer re-arming itself, as the medium's anchor does) is one sift; unless
// re-armed it leaves the heap when the callback returns or panics.
// Meanwhile it counts as fired: Pending and NextDeadline skip it, and Stop
// and Reset report false on it.
package vclock

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Timer is a handle to a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// callback from firing.
	Stop() bool
	// Reset re-arms the timer to fire after d. It reports whether the timer
	// was still pending when it was reset.
	Reset(d time.Duration) bool
}

// Clock supplies timestamps and one-shot timers.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc runs f on its own goroutine (real clock) or synchronously
	// during Advance (virtual clock) once d has elapsed.
	AfterFunc(d time.Duration, f func()) Timer
	// Since returns the time elapsed on this clock since t.
	Since(t time.Time) time.Duration
	// Nanos returns Now as integer nanoseconds past the instant Origin:
	// deadline keys without time.Time arithmetic. Real reads its monotonic
	// clock, so its readings order as its instants do.
	Nanos() int64
	Origin() time.Time
}

// realClock grounds Clock in the time package.
type realClock struct{}

var _ Clock = realClock{}

// Real returns the wall clock.
func Real() Clock { return realClock{} }

// realOrigin is the Real clock's Origin, with a monotonic reading.
var realOrigin = time.Now()

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (realClock) Nanos() int64                    { return int64(time.Since(realOrigin)) }
func (realClock) Origin() time.Time               { return realOrigin }
func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool                 { return rt.t.Stop() }
func (rt realTimer) Reset(d time.Duration) bool { return rt.t.Reset(d) }

// Virtual is a deterministic clock driven explicitly by Advance, Step or
// RunUntilIdle. Timer callbacks execute synchronously on the goroutine that
// drives the clock, in strict deadline order (ties broken by scheduling
// order), which gives byte-for-byte reproducible simulations.
//
// Internally time is an int64 count of nanoseconds since the start instant;
// deadlines are the same count, saturating at the int64 range, so a timer
// armed with the largest Duration never fires early and one armed with a
// negative delay sorts ahead of the timers already due now.
//
// Virtual is safe for concurrent use: callbacks are invoked without the
// internal lock held and may freely schedule or cancel timers.
type Virtual struct {
	start time.Time
	now   atomic.Int64 // written under mu, read lock-free by Now

	mu        sync.Mutex
	timers    timerHeap
	seq       uint64
	advancing bool
	firing    *vtimer // the fired timer still in its slot; nil once re-armed or stopped
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock whose current time is start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{start: start}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	return v.start.Add(time.Duration(v.now.Load()))
}

// Since returns the virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Nanos returns the virtual time elapsed since the start, Origin.
func (v *Virtual) Nanos() int64      { return v.now.Load() }
func (v *Virtual) Origin() time.Time { return v.start }

// AfterFunc schedules f to run when the clock has advanced by d.
// Non-positive d fires at the current instant on the next Advance/Step.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	vt := &vtimer{clock: v, fn: f, when: AddSat(v.now.Load(), d), seq: v.seq}
	v.seq++
	v.timers.push(vt)
	return vt
}

// Pending returns the number of armed timers.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.firing != nil {
		return len(v.timers) - 1
	}
	return len(v.timers)
}

// NextDeadline reports the deadline of the earliest pending timer.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.timers
	if v.firing != nil && v.firing.index == 0 { // the next is the root's earlier child
		if h = h[1:min(len(h), 3)]; len(h) == 2 && h.less(1, 0) {
			h = h[1:]
		}
	}
	if len(h) == 0 {
		return time.Time{}, false
	}
	return v.start.Add(time.Duration(h[0].when)), true
}

// Advance moves the clock forward by d, firing every timer whose deadline
// falls within the window in deadline order. It returns the number of
// callbacks fired. Advance must not be called from within a timer callback.
func (v *Virtual) Advance(d time.Duration) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	target := AddSat(v.now.Load(), d)
	fired := v.runLocked(target, -1)
	if target > v.now.Load() {
		v.now.Store(target)
	}
	return fired
}

// Step fires the single earliest pending timer, advancing the clock to its
// deadline. It reports whether a timer fired.
func (v *Virtual) Step() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.runLocked(math.MaxInt64, 1) == 1
}

// RunUntilIdle fires timers in deadline order until none remain or maxEvents
// callbacks have run (maxEvents < 0 means unbounded). It returns the number
// fired. Useful for draining a simulation to quiescence.
func (v *Virtual) RunUntilIdle(maxEvents int) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.runLocked(math.MaxInt64, maxEvents)
}

// RunUntil advances the clock to t, firing all timers due on the way.
func (v *Virtual) RunUntil(t time.Time) int {
	d := t.Sub(v.Now())
	if d < 0 {
		return 0
	}
	return v.Advance(d)
}

// runLocked fires timers due at or before until, up to max callbacks (max
// < 0 is unbounded). Caller holds v.mu; callbacks run unlocked.
func (v *Virtual) runLocked(until int64, max int) int {
	if v.advancing {
		panic("vclock: re-entrant Advance/Step from timer callback")
	}
	v.advancing = true
	defer func() { v.advancing = false }()

	fired := 0
	for len(v.timers) > 0 && v.timers[0].when <= until && (max < 0 || fired < max) {
		vt := v.timers[0]
		if vt.when > v.now.Load() {
			v.now.Store(vt.when)
		}
		v.firing = vt
		fn := vt.fn
		v.mu.Unlock()
		func() {
			// Reacquire and settle even if the callback panics, so the
			// deferred unlock in the public entry point stays balanced.
			defer func() {
				v.mu.Lock()
				if v.firing == vt { // neither re-armed nor stopped
					v.firing = nil
					v.timers.remove(vt.index)
				}
			}()
			fn()
		}()
		fired++
	}
	return fired
}

// AddSat returns now+d, saturating at the int64 range as time.Time.Sub does.
func AddSat(now int64, d time.Duration) int64 {
	sum := now + int64(d)
	if (sum > now) != (d > 0) { // only an overflow breaks the agreement
		if d > 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return sum
}

// vtimer is a timer registered with a Virtual clock.
type vtimer struct {
	clock *Virtual
	fn    func()
	when  int64 // deadline, nanoseconds since the clock's start
	seq   uint64
	index int // heap index, -1 when not queued
}

var _ Timer = (*vtimer)(nil)

func (t *vtimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.index < 0 {
		return false
	}
	t.clock.timers.remove(t.index)
	return t.clock.armed(t)
}

// Reset re-stamps the deadline and the registration sequence exactly as a
// fresh AfterFunc would, then restores the heap with one sift where the
// timer sits, or queues it if it had fired or was stopped.
func (t *vtimer) Reset(d time.Duration) bool {
	v := t.clock
	v.mu.Lock()
	defer v.mu.Unlock()
	t.when = AddSat(v.now.Load(), d)
	t.seq = v.seq
	v.seq++
	if t.index >= 0 {
		v.timers.fix(t.index)
		return v.armed(t)
	}
	v.timers.push(t)
	return false
}

// armed reports whether t, in the heap, was pending rather than firing,
// and ends its firing state. Caller holds v.mu.
func (v *Virtual) armed(t *vtimer) bool {
	if v.firing != t {
		return true
	}
	v.firing = nil
	return false
}

// timerHeap is a binary min-heap of timers ordered by (deadline,
// registration sequence). Every timer records its own index, so Stop and
// Reset work in place.
type timerHeap []*vtimer

func (h timerHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) push(t *vtimer) {
	t.index = len(*h)
	*h = append(*h, t)
	h.up(t.index)
}

// remove takes the timer at index i out of the heap and returns it.
func (h *timerHeap) remove(i int) *vtimer {
	old := *h
	last := len(old) - 1
	t := old[i]
	if i != last {
		old.swap(i, last)
	}
	old[last] = nil
	*h = old[:last]
	if i != last {
		h.fix(i)
	}
	t.index = -1
	return t
}

// fix restores the heap order after the timer at index i changed its key.
func (h timerHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h timerHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts the timer at i0 towards the leaves and reports whether it
// moved.
func (h timerHeap) down(i0 int) bool {
	i := i0
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		j := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}
