package telemetry

import (
	"sync"
	"time"

	"manetkit/internal/metrics"
	"manetkit/internal/vclock"
)

// MetricsDelta is one Sampler observation: the counter increments since
// the previous sample and the current value of every gauge that changed.
// Histograms are deliberately not sampled — some record wall-clock
// handler latencies, which would poison the recorded streams'
// determinism.
type MetricsDelta struct {
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
}

// Sampler periodically diffs a metrics registry and publishes the deltas
// onto the bus (StreamMetrics). It paces itself on the deployment clock,
// so under vclock.Virtual the samples land at deterministic virtual
// instants and the recorded stream replays byte-identically. Samples with
// no change publish nothing.
type Sampler struct {
	bus      *Bus
	reg      *metrics.Registry
	clock    vclock.Clock
	interval time.Duration

	mu      sync.Mutex
	timer   vclock.Timer
	stopped bool
	lastC   map[string]uint64
	lastG   map[string]int64
}

// DefaultSampleInterval paces a Sampler given a non-positive interval.
const DefaultSampleInterval = time.Second

// NewSampler creates a sampler over reg publishing to b every interval of
// the given clock. Call Start to begin.
func NewSampler(b *Bus, reg *metrics.Registry, clock vclock.Clock, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Sampler{
		bus:      b,
		reg:      reg,
		clock:    clock,
		interval: interval,
		lastC:    make(map[string]uint64),
		lastG:    make(map[string]int64),
	}
}

// Start arms the first sample timer. The baseline is the registry's
// current state: the first sample reports deltas from Start, not from
// zero.
func (s *Sampler) Start() {
	if s == nil || s.reg == nil || s.bus == nil {
		return
	}
	snap := s.reg.Snapshot()
	s.mu.Lock()
	for name, v := range snap.Counters {
		s.lastC[name] = v
	}
	for name, v := range snap.Gauges {
		s.lastG[name] = v
	}
	if !s.stopped {
		s.timer = s.clock.AfterFunc(s.interval, s.tick)
	}
	s.mu.Unlock()
}

// Stop cancels the pending sample. Idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stopped = true
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.mu.Unlock()
}

// tick takes one sample and re-arms.
func (s *Sampler) tick() {
	now := s.clock.Now()
	s.sample(now)
	s.mu.Lock()
	if !s.stopped {
		s.timer = s.clock.AfterFunc(s.interval, s.tick)
	}
	s.mu.Unlock()
}

// sample publishes the registry delta since the previous sample (or
// Start). Exposed to tests via SampleNow.
func (s *Sampler) sample(now time.Time) {
	if !s.bus.Active() {
		// Keep the baseline advancing so a subscriber attaching later sees
		// deltas from attachment, not a giant catch-all.
		snap := s.reg.Snapshot()
		s.mu.Lock()
		for name, v := range snap.Counters {
			s.lastC[name] = v
		}
		for name, v := range snap.Gauges {
			s.lastG[name] = v
		}
		s.mu.Unlock()
		return
	}
	snap := s.reg.Snapshot()
	delta := MetricsDelta{}
	s.mu.Lock()
	for name, v := range snap.Counters {
		if prev := s.lastC[name]; v != prev {
			if delta.Counters == nil {
				delta.Counters = make(map[string]uint64)
			}
			delta.Counters[name] = v - prev
			s.lastC[name] = v
		}
	}
	for name, v := range snap.Gauges {
		if prev, seen := s.lastG[name]; !seen || v != prev {
			if delta.Gauges == nil {
				delta.Gauges = make(map[string]int64)
			}
			delta.Gauges[name] = v
			s.lastG[name] = v
		}
	}
	s.mu.Unlock()
	if delta.Counters == nil && delta.Gauges == nil {
		return
	}
	s.bus.Publish(now, StreamMetrics, "delta", "", delta)
}

// SampleNow takes one unscheduled sample at the clock's current instant —
// used at shutdown so the recorder's last metrics event covers the tail
// of the run.
func (s *Sampler) SampleNow() {
	if s == nil || s.reg == nil || s.bus == nil {
		return
	}
	s.sample(s.clock.Now())
}
