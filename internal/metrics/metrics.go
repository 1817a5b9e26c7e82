// Package metrics is MANETKit's observability registry, aggregated per
// deployment (typically one per testbed cluster).
//
// A Registry keeps no counts of its own. Every layer already counts what it
// does in its Stats (the Framework Manager, the medium, each protocol's
// State, the dedicated queues, the tracer), and a Registry reads those
// counts when asked: a layer attaches a reader, and Snapshot sums the
// readers by name. Histograms, which no layer keeps, are the one
// instrument the registry owns.
//
// The design constraint is that observability must cost nothing when it is
// off. A nil *Registry hands out nil histograms and no-op attachments, and
// every Histogram method is nil-safe, so an uninstrumented call site
// compiles down to a single nil check — no map lookups, no locks, no
// allocations (see the overhead guard in internal/core).
package metrics

import (
	"expvar"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets spans 1µs–10s exponentially — wide enough for both
// per-message handler costs (µs) and route-discovery latencies (ms–s).
var DefaultLatencyBuckets = []time.Duration{
	time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	time.Second, 10 * time.Second,
}

// Histogram accumulates durations into fixed buckets chosen at creation.
// Observations use only atomics; a nil Histogram is a no-op.
type Histogram struct {
	bounds  []time.Duration // sorted upper bounds; len(buckets) == len(bounds)+1
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	bounds = append([]time.Duration(nil), bounds...)
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// HistogramSnapshot is a histogram's state at one instant.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum_ns"`
	Buckets []BucketCount `json:"buckets"`
}

// BucketCount is one bucket of a HistogramSnapshot; the last bucket has
// UpperBound 0, meaning +inf.
type BucketCount struct {
	UpperBound time.Duration `json:"le_ns"`
	Count      uint64        `json:"count"`
}

// Snapshot captures the histogram. Nil histograms snapshot empty.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: time.Duration(h.sum.Load())}
	for i := range h.buckets {
		var le time.Duration
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, BucketCount{UpperBound: le, Count: h.buckets[i].Load()})
	}
	return s
}

// Registry reads the counters and gauges its producers attach and owns
// the histograms they create. A nil Registry hands out nil histograms and
// no-op attachments; this is the "disabled" configuration and the default
// everywhere.
//
// Snapshot calls the readers under the registry's lock, so a producer
// must not hold a lock its reader takes while it calls into the registry.
type Registry struct {
	mu         sync.Mutex
	readers    map[*func()]struct{} // each adds its increments to counters
	counters   map[string]uint64
	gauges     map[string][]*func() int64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		readers:    make(map[*func()]struct{}),
		counters:   make(map[string]uint64),
		gauges:     make(map[string][]*func() int64),
		histograms: make(map[string]*Histogram),
	}
}

// Attach makes read a source of counters: each Snapshot calls read, which
// emits every count its producer keeps, by name. A counter is the sum over
// its readers of what each counted since it was attached, so counts that
// outlive an attachment (a redeployed unit, a State carried into a new
// protocol instance) are never counted twice. A value below the reader's
// previous one is a reset: the counter continues from it, never falling.
// The returned func detaches read after one last read, keeping what it
// counted. On a nil registry Attach is a no-op.
func (r *Registry) Attach(read func(emit func(name string, v uint64))) (detach func()) {
	if r == nil {
		return func() {}
	}
	prev := make(map[string]uint64) // what read emitted last
	collect := func() {
		read(func(name string, v uint64) {
			if v < prev[name] {
				prev[name] = 0
			}
			r.counters[name] += v - prev[name]
			prev[name] = v
		})
	}
	r.mu.Lock()
	read(func(name string, v uint64) {
		prev[name] = v
		r.counters[name] += 0 // the name is reported from attach on
	})
	r.readers[&collect] = struct{}{}
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.readers[&collect]; ok {
			collect()
			delete(r.readers, &collect)
		}
	}
}

// AttachGauge makes level a source of the named gauge, read on each
// Snapshot and summed with the other levels attached under the name. The
// returned func detaches it; the name stays, reading 0 once nothing is
// attached under it. On a nil registry AttachGauge is a no-op.
func (r *Registry) AttachGauge(name string, level func() int64) (detach func()) {
	if r == nil {
		return func() {}
	}
	fn := &level
	r.mu.Lock()
	r.gauges[name] = append(r.gauges[name], fn)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.gauges[name] = slices.DeleteFunc(r.gauges[name], func(g *func() int64) bool { return g == fn })
		r.mu.Unlock()
	}
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (DefaultLatencyBuckets when none are given;
// later calls reuse the first creation's buckets). Nil registries return
// nil.
func (r *Registry) Histogram(name string, bounds ...time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a deterministic copy of every counter, gauge and histogram.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry. Nil registries snapshot empty maps.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for collect := range r.readers {
		(*collect)()
	}
	for name, v := range r.counters {
		s.Counters[name] = v
	}
	for name, levels := range r.gauges {
		var v int64
		for _, level := range levels {
			v += (*level)()
		}
		s.Gauges[name] = v
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteText renders the snapshot sorted by instrument name — stable output
// for reports and tests.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "%s count=%d sum=%v mean=%v\n",
			name, h.Count, h.Sum, h.Mean()); err != nil {
			return err
		}
	}
	return nil
}

// Mean returns the average observation (0 when empty).
func (h HistogramSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// published maps an expvar name to the Registry most recently published
// under it.
var published sync.Map

// PublishExpvar exposes the registry under the named expvar variable (for
// mkemu's -http debug endpoint). expvar panics on duplicate names, so the
// name is published once per process; a later call with the same name
// points it at the new registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	if _, seen := published.Swap(name, r); seen || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		reg, _ := published.Load(name)
		return reg.(*Registry).Snapshot()
	}))
}
