package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"manetkit/internal/vclock"
)

// wall is the only source of host time in the benchmark: the repository's
// own real-clock adapter, so the determinism analyzer sees no bare
// time.Now in measurement code.
var wall = vclock.Real()

// stopwatch times one outside call.
type stopwatch struct{ t0 time.Time }

func startWatch() stopwatch                { return stopwatch{wall.Now()} }
func (s stopwatch) elapsed() time.Duration { return wall.Since(s.t0) }

// Linux's CPU-time clocks. getrusage would do for the process, but its
// per-thread figures advance in scheduler ticks of 4 ms here.
const (
	processCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	threadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime returns the CPU time consumed so far by the whole process
// (processCPU) or by the calling thread (threadCPU), to the nanosecond.
// Time the hypervisor gave to another guest is in neither.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// Why host time is not read off the wall clock. The benchmark runs on a
// small virtual machine that shares its processor, caches and memory bus
// with other guests. Measured here, the wall time of a fixed piece of work
// swung by ±30 % over a minute (the hypervisor's steal) and its CPU time by
// ±10 to ±20 % (the neighbours' cache and memory traffic), in episodes
// longer than a run. Two things take that out:
//
//   - a measured phase is charged the CPU time of the process, every thread
//     of it: the work the program made the machine do, collector included,
//     without the steal. The workloads are one goroutine deep, so on a quiet
//     host this is the wall time plus whatever the collector did on the
//     second core meanwhile;
//   - a reference kernel — a fixed number of look-ups in a Go map, the
//     operation the protocols' tables are made of — runs between the steps
//     of the phase, and the phase's CPU time is multiplied by refNominal ÷
//     (the kernel's CPU time per run). The result reads as if the host had
//     run at its nominal speed throughout.
//
// Over 36 runs of one workload on one seed, the CPU time of a run moved
// with the kernel's with a log-log slope of 1.00, and dividing by it
// brought the spread of the runs' medians from 9 % to 3 %. Kernels tried
// and dropped: a chain of dependent multiplications (no relation), a
// pointer chase over 64 MiB (slope 0.5), one over 128 KiB (slope 1.2).
const (
	refKeys    = 1 << 17 // look-ups draw from this many keys, every other one present
	refLookups = 1 << 15
	// refNominal is the kernel's CPU time per run on the host the sizes
	// were chosen on, at its quiet level. It only fixes the scale of the
	// calibrated metrics; changing it shifts them all by the same factor.
	refNominal = 2 * time.Millisecond
)

// calibrator runs the reference kernel and keeps its account.
type calibrator struct {
	table map[uint64]uint32
	x     uint64
	cpu   time.Duration // thread CPU time spent in the kernel
	wall  time.Duration
	ticks int
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make(map[uint64]uint32, refKeys/2), x: 88172645463325252}
	for k := uint64(0); k < refKeys; k += 2 {
		c.table[k] = uint32(k)
	}
	return c
}

// tick runs the reference kernel once and adds what it cost. The goroutine
// is pinned to its thread meanwhile so that the thread's CPU clock covers
// the kernel and nothing else: collector work going on beside it stays on
// the account of the workload that caused it. A nil calibrator does nothing.
func (c *calibrator) tick() {
	if c == nil {
		return
	}
	runtime.LockOSThread()
	sw := startWatch()
	t0 := cpuTime(threadCPU)
	x := c.x
	var found uint32
	for i := 0; i < refLookups; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		found += c.table[x&(refKeys-1)]
	}
	c.x = x + uint64(found&1)
	c.cpu += cpuTime(threadCPU) - t0
	c.wall += sw.elapsed()
	c.ticks++
	runtime.UnlockOSThread()
}

// account is the calibrator's running totals, to take differences against.
type account struct {
	cpu, wall time.Duration
	ticks     int
}

func (c *calibrator) mark() account {
	if c == nil {
		return account{}
	}
	return account{c.cpu, c.wall, c.ticks}
}

// speed is how fast the host ran over the ticks taken since the mark, as a
// share of its nominal speed: below 1 on a slowed-down host, 1 when there
// is nothing to go by.
func (c *calibrator) speed(since account) float64 {
	now := c.mark()
	cpu, ticks := now.cpu-since.cpu, now.ticks-since.ticks
	if cpu <= 0 || ticks <= 0 {
		return 1
	}
	return float64(refNominal) * float64(ticks) / float64(cpu)
}

// hostSample is a snapshot of the process-wide counters a measured phase is
// bracketed with: heap allocations, GC work and CPU time.
type hostSample struct {
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	gcCPU      float64 // seconds of CPU the collector used
	cpu        time.Duration
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func sampleHost() hostSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	h := hostSample{mallocs: m.Mallocs, allocBytes: m.TotalAlloc, numGC: m.NumGC}
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = gcCPUSample[0].Value.Float64()
	}
	h.cpu = cpuTime(processCPU)
	return h
}

// hostDelta is what one measured phase cost the host. The reference
// kernel's own time is in none of the fields.
type hostDelta struct {
	wall       time.Duration
	cpu        time.Duration // every thread of the process, collector included
	speed      float64       // host speed during the phase, 1 = nominal
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	gcCPU      float64
}

// cal is the phase's calibrated time: the CPU time it would have taken on
// a host running at nominal speed. Every host-time metric of the end-to-end
// table is derived from it.
func (d hostDelta) cal() time.Duration { return time.Duration(float64(d.cpu) * d.speed) }

// add accumulates phases; the sum's speed is weighted by CPU time, so that
// cal() of the sum is the sum of the parts' cal().
func (d *hostDelta) add(o hostDelta) {
	if t := d.cpu + o.cpu; t > 0 {
		d.speed = (float64(d.cpu)*d.speed + float64(o.cpu)*o.speed) / float64(t)
	}
	d.wall += o.wall
	d.cpu += o.cpu
	d.mallocs += o.mallocs
	d.allocBytes += o.allocBytes
	d.numGC += o.numGC
	d.gcCPU += o.gcCPU
}

// phase brackets a measured region. The calibrator is ticked once before
// it, once after it and wherever the region's own loop ticks it; those
// readings give the host speed the region ran at, and the ticks inside the
// region are taken off its cost.
type phase struct {
	cal    *calibrator
	before account // the calibrator's account before the leading tick
	c0     account // and after it, when the region starts
	h0     hostSample
	sw     stopwatch
	// bracket: begin ticked the calibrator and end will, and the speed is
	// taken from before the first of the two to after the second.
	bracket bool
}

func beginPhase(cal *calibrator) phase {
	before := cal.mark()
	cal.tick()
	p := beginBare(cal)
	p.before, p.bracket = before, true
	return p
}

// beginBare starts a region without the bracketing ticks, for regions that
// follow each other closely: the caller ticks the calibrator between them
// and sets the speed of what end returns.
func beginBare(cal *calibrator) phase {
	return phase{cal: cal, c0: cal.mark(), h0: sampleHost(), sw: startWatch()}
}

func (p phase) end() hostDelta {
	cpu1 := cpuTime(processCPU) // before sampleHost stops the world to read the heap counters
	w := p.sw.elapsed()
	h1 := sampleHost()
	c1 := p.cal.mark()
	ref := c1.cpu - p.c0.cpu
	speed := 1.0
	if p.bracket {
		p.cal.tick()
		speed = p.cal.speed(p.before)
	}
	return hostDelta{
		wall:       w - (c1.wall - p.c0.wall),
		cpu:        cpu1 - p.h0.cpu - ref,
		speed:      speed,
		mallocs:    h1.mallocs - p.h0.mallocs,
		allocBytes: h1.allocBytes - p.h0.allocBytes,
		numGC:      h1.numGC - p.h0.numGC,
		gcCPU:      h1.gcCPU - p.h0.gcCPU,
	}
}
