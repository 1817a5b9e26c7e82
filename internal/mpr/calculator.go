package mpr

import (
	"slices"

	"manetkit/internal/kernel"
	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
)

// GreedyCalculator is the default relay-selection component: the RFC 3626
// heuristic. It first picks neighbours that are the sole path to some
// 2-hop node, then repeatedly picks the neighbour covering the most
// uncovered 2-hop nodes (willingness, then degree, as tie-breakers).
type GreedyCalculator struct {
	base *kernel.Base
}

var _ Calculator = (*GreedyCalculator)(nil)

// NewGreedyCalculator returns the default calculator under the component
// name "mpr-calculator".
func NewGreedyCalculator() *GreedyCalculator {
	return &GreedyCalculator{base: kernel.NewBase("mpr-calculator")}
}

func (g *GreedyCalculator) Name() string             { return g.base.Name() }
func (g *GreedyCalculator) Provided() map[string]any { return g.base.Provided() }

// Select implements Calculator.
func (g *GreedyCalculator) Select(self mnet.Addr, links *neighbor.Table) []mnet.Addr {
	return greedySelect(self, links, func(n neighbor.Info, coverage int) (score float64) {
		return float64(coverage)*8 + float64(n.Willingness)
	})
}

// PowerAwareCalculator is the §5.1 variant: relay selection weighs residual
// battery (reported through willingness) above raw coverage, maximising the
// lifetime of relay paths at some cost in MPR-set size.
type PowerAwareCalculator struct {
	base *kernel.Base
}

var _ Calculator = (*PowerAwareCalculator)(nil)

// NewPowerAwareCalculator returns the power-aware calculator under the
// component name "mpr-calculator-power".
func NewPowerAwareCalculator() *PowerAwareCalculator {
	return &PowerAwareCalculator{base: kernel.NewBase("mpr-calculator-power")}
}

func (p *PowerAwareCalculator) Name() string             { return p.base.Name() }
func (p *PowerAwareCalculator) Provided() map[string]any { return p.base.Provided() }

// Select implements Calculator: willingness (battery) dominates coverage.
func (p *PowerAwareCalculator) Select(self mnet.Addr, links *neighbor.Table) []mnet.Addr {
	return greedySelect(self, links, func(n neighbor.Info, coverage int) (score float64) {
		return float64(n.Willingness)*16 + float64(coverage)
	})
}

// greedySelect runs coverage-greedy MPR selection with a pluggable scoring
// function.
func greedySelect(self mnet.Addr, links *neighbor.Table, score func(neighbor.Info, int) float64) []mnet.Addr {
	twoHop := links.TwoHopSet(self) // 2-hop dst -> candidate vias
	syms := links.Symmetric()
	info := make(map[mnet.Addr]neighbor.Info, len(syms))
	for _, s := range syms {
		info[s.Addr] = s
	}

	uncovered := make(map[mnet.Addr]bool, len(twoHop))
	for dst := range twoHop {
		uncovered[dst] = true
	}
	selected := make(map[mnet.Addr]bool)

	cover := func(via mnet.Addr) {
		selected[via] = true
		for dst, vias := range twoHop {
			for _, v := range vias {
				if v == via {
					delete(uncovered, dst)
					break
				}
			}
		}
	}

	// Mandatory: sole-via 2-hop nodes (skipping WILL_NEVER relays).
	for dst, vias := range twoHop {
		usable := vias[:0:0]
		for _, v := range vias {
			if info[v].Willingness > 0 {
				usable = append(usable, v)
			}
		}
		if len(usable) == 1 && uncovered[dst] {
			cover(usable[0])
		}
	}

	// Greedy coverage.
	for len(uncovered) > 0 {
		type cand struct {
			addr     mnet.Addr
			coverage int
			score    float64
		}
		var best *cand
		for _, s := range syms {
			if selected[s.Addr] || s.Willingness == 0 {
				continue
			}
			cov := 0
			for dst := range uncovered {
				for _, v := range twoHop[dst] {
					if v == s.Addr {
						cov++
						break
					}
				}
			}
			if cov == 0 {
				continue
			}
			c := &cand{addr: s.Addr, coverage: cov, score: score(s, cov)}
			if best == nil || c.score > best.score ||
				(c.score == best.score && c.addr.Less(best.addr)) {
				best = c
			}
		}
		if best == nil {
			break // remaining 2-hop nodes unreachable via willing relays
		}
		cover(best.addr)
	}

	out := make([]mnet.Addr, 0, len(selected))
	for a := range selected {
		out = append(out, a)
	}
	slices.SortFunc(out, mnet.Addr.Compare)
	return out
}
