package mpr

import (
	"slices"
	"testing"

	"manetkit/internal/mnet"
	"manetkit/internal/neighbor"
	"manetkit/internal/testbed"
)

// refGreedySelect is the map-based selection the scratch-based one
// replaced, kept verbatim but for where it reads the symmetric neighbours
// (AppendNeighbors, which replaced Symmetric).
// FuzzGreedySelect holds both calculators to it.
func refGreedySelect(self mnet.Addr, links *neighbor.Table, score func(neighbor.Info, int) float64) []mnet.Addr {
	twoHop := links.TwoHopSet(self) // 2-hop dst -> candidate vias
	syms := links.AppendNeighbors(nil, true)
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

// fuzzLinks builds a link table from data and returns the rest of data.
// The first byte gives the number of neighbours (up to 15); each neighbour
// takes two bytes — its address (one of 16, the lowest being self's) and a
// byte packing its status (heard, symmetric, or lost after being heard),
// its willingness (0, WILL_NEVER, to 7) and how many 2-hop addresses it
// reports — and then one byte per reported address, drawn from 32 so that
// reports overlap, name self, name other neighbours and repeat.
func fuzzLinks(data []byte) (*neighbor.Table, []byte) {
	links := neighbor.NewTable()
	if len(data) == 0 {
		return links, nil
	}
	n := int(data[0] % 16)
	data = data[1:]
	for ; n > 0 && len(data) >= 2; n-- {
		nb, b := fuzzAddr(data[0]%16), data[1]
		data = data[2:]
		reports := int(b >> 5)
		var two []mnet.Addr
		for ; reports > 0 && len(data) > 0; reports-- {
			two = append(two, fuzzAddr(data[0]%32))
			data = data[1:]
		}
		status := b & 3
		links.Observe(nb, status != 0, b>>2&7, two, testbed.Epoch)
		if status == 3 {
			links.MarkLost(nb)
		}
	}
	return links, data
}

func fuzzAddr(i byte) mnet.Addr { return mnet.AddrFrom(0x0a000000 + uint32(i)) }

// FuzzGreedySelect drives the greedy and the power-aware calculator over
// random link tables and requires each selection to equal the map-based
// reference's: the same relays, so the same willingness and address
// tie-breaks. Each calculator selects on two tables in turn, so the second
// selection runs on scratch the first left behind.
func FuzzGreedySelect(f *testing.F) {
	// Three neighbours reach one 2-hop node: a pure address tie.
	f.Add([]byte{3, 9, 0x2e, 16, 2, 0x2e, 16, 5, 0x2e, 16})
	// Coverage against willingness, a WILL_NEVER sole via, a lost and a
	// heard-only neighbour, and a report repeated, naming self and naming
	// a neighbour.
	f.Add([]byte{6, 2, 0x5e, 17, 18, 3, 0x3e, 17, 4, 0x41, 19, 20, 5, 0x27, 17, 6, 0x2c, 18, 7, 0x9e, 21, 21, 0, 2})
	f.Add([]byte{2, 1, 0xfd, 16, 17, 18, 19, 20, 21, 22, 2, 0x1d, 16})
	self := fuzzAddr(0)
	greedy := func(n neighbor.Info, coverage int) float64 { return float64(coverage)*8 + float64(n.Willingness) }
	power := func(n neighbor.Info, coverage int) float64 { return float64(n.Willingness)*16 + float64(coverage) }
	f.Fuzz(func(t *testing.T, data []byte) {
		first, rest := fuzzLinks(data)
		second, _ := fuzzLinks(rest)
		calcs := []struct {
			c     Calculator
			score func(neighbor.Info, int) float64
		}{{NewGreedyCalculator(), greedy}, {NewPowerAwareCalculator(), power}}
		for _, tc := range calcs {
			for i, links := range []*neighbor.Table{first, second} {
				got, want := tc.c.Select(self, links), refGreedySelect(self, links, tc.score)
				if !slices.Equal(got, want) {
					t.Fatalf("%s on table %d selected %v, reference %v", tc.c.Name(), i, got, want)
				}
			}
		}
	})
}
