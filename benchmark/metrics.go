package main

import (
	"fmt"
	"io"
	"regexp"
)

// metric is one named, united number of the benchmark's output.
type metric struct {
	name  string
	unit  string
	value float64
}

// metricSet keeps metrics in the order they were added and refuses to hold
// a name twice, so every metric is printed exactly once.
type metricSet struct {
	list []metric
	seen map[string]bool
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func (ms *metricSet) add(name, unit string, value float64) {
	if ms.seen == nil {
		ms.seen = map[string]bool{}
	}
	if ms.seen[name] || !metricName.MatchString(name) {
		panic(fmt.Sprintf("benchmark: metric name %q repeated or malformed", name))
	}
	ms.seen[name] = true
	ms.list = append(ms.list, metric{name, unit, value})
}

func (ms *metricSet) get(name string) float64 {
	for _, m := range ms.list {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func (ms *metricSet) print(w io.Writer, title string) {
	fmt.Fprintf(w, "-- %s\n", title)
	for _, m := range ms.list {
		fmt.Fprintf(w, "%-36s %18.6f %s\n", m.name, m.value, m.unit)
	}
}

// e2eSpec describes one end-to-end metric the way BENCHMARK.json does (a
// test holds the two together), so that the A/A mode can judge two sets of
// runs by the benchmark's own bounds.
type e2eSpec struct {
	name      string
	unit      string
	higher    bool    // better when higher
	bound     float64 // share of the median it may worsen by
	simulated bool    // virtual-clock outcome: must repeat exactly
}

var e2eSpecs = []e2eSpec{
	{"setup_s", "s", false, 0.25, false},
	{"node_s_per_s", "1/s", true, 0.25, false},
	{"ns_per_rx", "ns", false, 0.25, false},
	{"reconfig_us_p50", "us", false, 0.25, false},
	{"allocs_per_rx", "count", false, 0.15, false},
	{"live_heap_kb_per_node", "KiB", false, 0.08, false},
	{"ctrl_tx_per_node_s", "1/s", false, 0.25, true},
}

// endToEnd derives the end-to-end metrics of one run from its rounds.
// Host-time metrics are medians over the rounds of calibrated time (see
// host.go); simulated ones are taken from the first round (every round of a
// run must produce the same, which the caller checks).
func endToEnd(rounds []*round) *metricSet {
	var setup, nodeRate, nsPerRx, allocs, heapKB, reconf []float64
	for _, r := range rounds {
		setup = append(setup, r.setup.cal().Seconds())
		nodeRate = append(nodeRate, ratio(r.nodeSeconds, r.host.cal().Seconds()))
		nsPerRx = append(nsPerRx, ratio(float64(r.host.cal().Nanoseconds()), float64(r.rx)))
		allocs = append(allocs, ratio(float64(r.host.mallocs), float64(r.rx)))
		heapKB = append(heapKB, ratio(float64(r.liveHeap)/1024, float64(r.nodes)))
		reconf = append(reconf, r.reconfigUs...)
	}
	first := rounds[0]
	values := map[string]float64{
		"setup_s":               median(setup),
		"node_s_per_s":          median(nodeRate),
		"ns_per_rx":             median(nsPerRx),
		"reconfig_us_p50":       quantile(reconf, 0.5),
		"allocs_per_rx":         median(allocs),
		"live_heap_kb_per_node": median(heapKB),
		"ctrl_tx_per_node_s":    ratio(float64(first.counts.sys.CtrlSent), first.nodeSeconds),
	}
	ms := &metricSet{}
	for _, spec := range e2eSpecs {
		ms.add(spec.name, spec.unit, values[spec.name])
	}
	return ms
}
