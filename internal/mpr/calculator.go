package mpr

import (
	"slices"
	"sync"

	"manetkit/internal/kernel"
	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
)

// calculator is what both calculators share: the component, and the last
// selection, which Select returns.
type calculator struct {
	base *kernel.Base
	out  []mnet.Addr
}

func (c *calculator) Name() string                 { return c.base.Name() }
func (c *calculator) Provided() []kernel.Interface { return c.base.Provided() }

// GreedyCalculator is the default relay-selection component: the RFC 3626
// heuristic. It first picks neighbours that are the sole path to some
// 2-hop node, then repeatedly picks the neighbour covering the most
// uncovered 2-hop nodes (willingness, then degree, as tie-breakers).
type GreedyCalculator struct{ calculator }

var _ Calculator = (*GreedyCalculator)(nil)

// NewGreedyCalculator returns the default calculator under the component
// name "mpr-calculator".
func NewGreedyCalculator() *GreedyCalculator {
	return &GreedyCalculator{calculator{base: kernel.NewBase("mpr-calculator")}}
}

// Select implements Calculator.
func (g *GreedyCalculator) Select(self mnet.Addr, links *neighbor.Table) []mnet.Addr {
	return g.greedy(self, links, func(n neighbor.Info, coverage int) (score float64) {
		return float64(coverage)*8 + float64(n.Willingness)
	})
}

// PowerAwareCalculator is the §5.1 variant: relay selection weighs residual
// battery (reported through willingness) above raw coverage, maximising the
// lifetime of relay paths at some cost in MPR-set size.
type PowerAwareCalculator struct{ calculator }

var _ Calculator = (*PowerAwareCalculator)(nil)

// NewPowerAwareCalculator returns the power-aware calculator under the
// component name "mpr-calculator-power".
func NewPowerAwareCalculator() *PowerAwareCalculator {
	return &PowerAwareCalculator{calculator{base: kernel.NewBase("mpr-calculator-power")}}
}

// Select implements Calculator: willingness (battery) dominates coverage.
func (p *PowerAwareCalculator) Select(self mnet.Addr, links *neighbor.Table) []mnet.Addr {
	return p.greedy(self, links, func(n neighbor.Info, coverage int) (score float64) {
		return float64(n.Willingness)*16 + float64(coverage)
	})
}

// selection is the working set of one relay selection: the 2-hop walk,
// whose runs of one destination are the destinations, the symmetric
// neighbours, each walk step's via as an index into them, and marks.
type selection struct {
	walk      []neighbor.TwoHop
	syms      []neighbor.Info // sorted by address
	via       []int           // walk step → its via's index in syms, -1 if absent
	runs      []int           // destination k's steps are via[runs[k]:runs[k+1]]
	uncovered []bool          // destination → not yet covered by a selected relay
	selected  []bool          // syms index → chosen as relay
	cov       []int           // syms index → uncovered destinations it reaches
}

// selections lends working sets to selections, so that a node keeps none
// between them and a selection allocates nothing once the pool is warm.
var selections = sync.Pool{New: func() any { return new(selection) }}

// greedy runs coverage-greedy MPR selection with a pluggable scoring
// function and returns the relays sorted, in c.out.
func (c *calculator) greedy(self mnet.Addr, links *neighbor.Table, score func(neighbor.Info, int) float64) []mnet.Addr {
	sc := selections.Get().(*selection)
	defer selections.Put(sc)
	sc.walk = links.AppendTwoHop(sc.walk[:0], self)
	sc.syms = links.AppendNeighbors(sc.syms[:0], true)
	syms, via, runs := sc.syms, sc.via[:0], sc.runs[:0]
	for i, p := range sc.walk {
		if i == 0 || p.Dst != sc.walk[i-1].Dst {
			runs = append(runs, i)
		}
		v, ok := slices.BinarySearchFunc(syms, p.Via, func(n neighbor.Info, a mnet.Addr) int { return n.Addr.Compare(a) })
		if !ok {
			v = -1
		}
		via = append(via, v)
	}
	dests := len(runs)
	runs = append(runs, len(via))
	uncovered, selected := resized(sc.uncovered, dests, true), resized(sc.selected, len(syms), false)
	cov := resized(sc.cov, len(syms), 0)
	sc.via, sc.runs, sc.uncovered, sc.selected, sc.cov = via, runs, uncovered, selected, cov
	left := dests

	cover := func(v int) {
		selected[v] = true
		for k := range dests {
			if uncovered[k] && slices.Contains(via[runs[k]:runs[k+1]], v) {
				uncovered[k], left = false, left-1
			}
		}
	}

	// Mandatory: sole-via 2-hop nodes (skipping WILL_NEVER relays).
	for k := range dests {
		usable, sole := 0, -1
		for _, v := range via[runs[k]:runs[k+1]] {
			if v >= 0 && syms[v].Willingness > 0 {
				usable, sole = usable+1, v
			}
		}
		if usable == 1 && uncovered[k] {
			cover(sole)
		}
	}

	// Greedy coverage.
	for left > 0 {
		clear(cov)
		for k := range dests {
			vs := via[runs[k]:runs[k+1]]
			for i, v := range vs {
				if uncovered[k] && v >= 0 && (i == 0 || v != vs[i-1]) {
					cov[v]++ // once per destination, however often reported
				}
			}
		}
		best, bestScore := -1, 0.0
		for v, s := range syms {
			if selected[v] || s.Willingness == 0 || cov[v] == 0 {
				continue
			}
			c := score(s, cov[v])
			if best < 0 || c > bestScore || (c == bestScore && s.Addr.Less(syms[best].Addr)) {
				best, bestScore = v, c
			}
		}
		if best < 0 {
			break // remaining 2-hop nodes unreachable via willing relays
		}
		cover(best)
	}

	c.out = c.out[:0]
	for v, s := range syms {
		if selected[v] {
			c.out = append(c.out, s.Addr)
		}
	}
	return c.out
}

// resized returns xs with length n, every element set to v, reusing its
// storage when it is large enough.
func resized[T any](xs []T, n int, v T) []T {
	xs = slices.Grow(xs[:0], n)[:n]
	for i := range xs {
		xs[i] = v
	}
	return xs
}
