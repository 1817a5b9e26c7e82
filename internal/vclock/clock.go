// Package vclock abstracts time for the whole of MANETKit.
//
// Every component that needs timers or timestamps takes a Clock. Production
// deployments use Real(); tests and the experiment harness use a Virtual
// clock, which makes protocol runs — HELLO beacons, TC floods, route
// timeouts, emulated link delays — fully deterministic and lets a multi-
// second scenario execute in microseconds of wall time.
package vclock

import (
	"container/heap"
	"sync"
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
}

// realClock grounds Clock in the time package.
type realClock struct{}

var _ Clock = realClock{}

// Real returns the wall clock.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }
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
// Virtual is safe for concurrent use: callbacks are invoked without the
// internal lock held and may freely schedule or cancel timers.
type Virtual struct {
	mu        sync.Mutex
	now       time.Time
	timers    timerHeap
	seq       uint64
	advancing bool
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock whose current time is start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since returns the virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// AfterFunc schedules f to run when the clock has advanced by d.
// Non-positive d fires at the current instant on the next Advance/Step.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	vt := &vtimer{clock: v, fn: f, when: v.now.Add(d), seq: v.seq, index: -1}
	v.seq++
	heap.Push(&v.timers, vt)
	return vt
}

// Pending returns the number of armed timers.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.timers.Len()
}

// NextDeadline reports the deadline of the earliest pending timer.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.timers.Len() == 0 {
		return time.Time{}, false
	}
	return v.timers[0].when, true
}

// Advance moves the clock forward by d, firing every timer whose deadline
// falls within the window in deadline order. It returns the number of
// callbacks fired. Advance must not be called from within a timer callback.
func (v *Virtual) Advance(d time.Duration) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	target := v.now.Add(d)
	fired := v.runLocked(func() bool {
		return v.timers.Len() > 0 && !v.timers[0].when.After(target)
	}, -1)
	if target.After(v.now) {
		v.now = target
	}
	return fired
}

// Step fires the single earliest pending timer, advancing the clock to its
// deadline. It reports whether a timer fired.
func (v *Virtual) Step() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.runLocked(func() bool { return v.timers.Len() > 0 }, 1) == 1
}

// RunUntilIdle fires timers in deadline order until none remain or maxEvents
// callbacks have run (maxEvents < 0 means unbounded). It returns the number
// fired. Useful for draining a simulation to quiescence.
func (v *Virtual) RunUntilIdle(maxEvents int) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.runLocked(func() bool { return v.timers.Len() > 0 }, maxEvents)
}

// RunUntil advances the clock to t, firing all timers due on the way.
func (v *Virtual) RunUntil(t time.Time) int {
	v.mu.Lock()
	d := t.Sub(v.now)
	v.mu.Unlock()
	if d < 0 {
		return 0
	}
	return v.Advance(d)
}

// runLocked pops and fires timers while cond holds, up to max callbacks
// (max < 0 is unbounded). Caller holds v.mu; callbacks run unlocked.
func (v *Virtual) runLocked(cond func() bool, max int) int {
	if v.advancing {
		panic("vclock: re-entrant Advance/Step from timer callback")
	}
	v.advancing = true
	defer func() { v.advancing = false }()

	fired := 0
	for cond() && (max < 0 || fired < max) {
		vt := heap.Pop(&v.timers).(*vtimer)
		if vt.when.After(v.now) {
			v.now = vt.when
		}
		fn := vt.fn
		vt.fired = true
		v.mu.Unlock()
		func() {
			// Reacquire even if the callback panics, so the deferred
			// unlock in the public entry point stays balanced.
			defer v.mu.Lock()
			fn()
		}()
		fired++
	}
	return fired
}

// vtimer is a timer registered with a Virtual clock.
type vtimer struct {
	clock *Virtual
	fn    func()
	when  time.Time
	seq   uint64
	index int // heap index, -1 when not queued
	fired bool
}

var _ Timer = (*vtimer)(nil)

func (t *vtimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.index < 0 {
		return false
	}
	heap.Remove(&t.clock.timers, t.index)
	return true
}

func (t *vtimer) Reset(d time.Duration) bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	wasPending := t.index >= 0
	if wasPending {
		heap.Remove(&t.clock.timers, t.index)
	}
	t.when = t.clock.now.Add(d)
	t.seq = t.clock.seq
	t.clock.seq++
	t.fired = false
	heap.Push(&t.clock.timers, t)
	return wasPending
}

// timerHeap orders timers by (deadline, registration sequence).
type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*vtimer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
