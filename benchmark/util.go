package main

import (
	"math"
	"runtime"
	"sort"
)

// quantile returns the q-quantile of xs by nearest rank on a sorted copy
// (xs is not modified); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the mean of the two middle values for even counts, so that a
// run of two rounds does not silently report the lower one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveHeap returns the bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// measureLiveHeap reports how many bytes the network under test keeps
// reachable: the heap after a collection with it alive, minus the heap
// after releasing it. The caller must drop its own references in release.
func measureLiveHeap(release func()) uint64 {
	with := liveHeap()
	release()
	without := liveHeap()
	if with < without {
		return 0
	}
	return with - without
}

// timeOp runs fn iters times and reports mean calibrated ns and heap
// allocations per call — the primitive behind every isolated per-layer cost.
func (c *calibrator) timeOp(iters int, fn func(i int)) (ns, allocs float64) {
	if iters <= 0 {
		return 0, 0
	}
	ph := beginPhase(c)
	for i := 0; i < iters; i++ {
		fn(i)
	}
	d := ph.end()
	return float64(d.cal().Nanoseconds()) / float64(iters), float64(d.mallocs) / float64(iters)
}
