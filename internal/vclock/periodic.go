package vclock

import (
	"math/rand"
	"sync"
	"time"
)

// Periodic invokes a callback at a fixed interval with optional uniform
// jitter, in the style of the MANET HELLO/TC emission timers: each firing is
// scheduled interval*(1±jitter) after the previous one. MANET protocols
// jitter their beacons to avoid synchronised broadcast storms (RFC 5148).
type Periodic struct {
	clock    Clock
	interval time.Duration
	jitter   float64
	fn       func()

	mu      sync.Mutex
	rng     *rand.Rand // nil at jitter 0: such a timer never draws
	timer   Timer
	stopped bool
}

// NewPeriodic starts a periodic timer on c. jitter is the maximum fractional
// deviation (0 ≤ jitter < 1); seed makes the jitter sequence reproducible.
// The first firing happens after one (jittered) interval.
func NewPeriodic(c Clock, interval time.Duration, jitter float64, seed int64, fn func()) *Periodic {
	if interval <= 0 {
		panic("vclock: non-positive periodic interval")
	}
	if jitter < 0 || jitter >= 1 {
		panic("vclock: jitter fraction out of [0,1)")
	}
	p := &Periodic{
		clock:    c,
		interval: interval,
		jitter:   jitter,
		fn:       fn,
	}
	if jitter > 0 {
		p.rng = rand.New(newJitterSource(seed))
	}
	p.mu.Lock()
	p.timer = c.AfterFunc(p.nextDelayLocked(), p.fire)
	p.mu.Unlock()
	return p
}

// Stop cancels future firings. A firing already in progress completes.
func (p *Periodic) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	if p.timer != nil {
		p.timer.Stop()
	}
}

// SetInterval changes the base interval and re-arms the pending firing to
// the new cadence (e.g. a fisheye component stretching the TC interval).
func (p *Periodic) SetInterval(d time.Duration) {
	if d <= 0 {
		panic("vclock: non-positive periodic interval")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.interval = d
	if !p.stopped && p.timer != nil {
		p.timer.Reset(p.nextDelayLocked())
	}
}

// Interval returns the current base interval.
func (p *Periodic) Interval() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.interval
}

func (p *Periodic) fire() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()

	p.fn()

	// Re-arm the one timer this Periodic owns for life. A SetInterval made
	// from inside fn has already re-queued it; this Reset supersedes that
	// deadline rather than starting a second firing chain beside it.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.timer.Reset(p.nextDelayLocked())
}

func (p *Periodic) nextDelayLocked() time.Duration {
	d := p.interval
	if p.jitter > 0 {
		// Uniform in [interval*(1-jitter), interval*(1+jitter)].
		f := 1 + p.jitter*(2*p.rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d <= 0 {
		d = 1
	}
	return d
}
