package system

import (
	"sync"
	"time"
)

// Battery is the simulated power source behind the POWER_STATUS sensor.
// It drains linearly with time and additionally per transmitted frame —
// enough fidelity to drive the paper's power-aware routing variant, where
// relay willingness is derived from residual battery (§5.1).
type Battery struct {
	mu          sync.Mutex
	level       float64 // remaining fraction [0,1]
	perSecond   float64 // idle drain per second
	perFrame    float64 // drain per transmitted frame
	lastUpdated time.Time
}

// NewBattery creates a battery at the given initial level with the given
// drain rates. start anchors the time-based drain.
func NewBattery(initial, perSecond, perFrame float64, start time.Time) *Battery {
	if initial < 0 {
		initial = 0
	}
	if initial > 1 {
		initial = 1
	}
	return &Battery{level: initial, perSecond: perSecond, perFrame: perFrame, lastUpdated: start}
}

// Clone returns a battery with b's drain rates and its current level, which
// from then on drains on its own.
func (b *Battery) Clone() *Battery {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &Battery{level: b.level, perSecond: b.perSecond, perFrame: b.perFrame, lastUpdated: b.lastUpdated}
}

// Level returns the remaining fraction at time now.
func (b *Battery) Level(now time.Time) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.settleLocked(now)
	return b.level
}

// SpendFrame accounts one frame transmission.
func (b *Battery) SpendFrame() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.level -= b.perFrame
	if b.level < 0 {
		b.level = 0
	}
}

// Set forces the level (test/scenario control).
func (b *Battery) Set(level float64, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.level = level
	b.lastUpdated = now
}

func (b *Battery) settleLocked(now time.Time) {
	if dt := now.Sub(b.lastUpdated); dt > 0 {
		b.level -= b.perSecond * dt.Seconds()
		if b.level < 0 {
			b.level = 0
		}
		b.lastUpdated = now
	}
}
