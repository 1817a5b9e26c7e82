package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the driver computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// runAA runs two interleaved sets of o.aa runs per workload on this same
// binary and checks that they agree: every host-time metric within its own
// bound, every simulated metric and every digest exactly. Run i of both
// sets uses seed o.seed+i, so the spread it prints is also the spread
// across seeds the driver will see.
func runAA(todo []workload, sz sizes, o options, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range todo {
		sets := [2][]*result{}
		for i := 0; i < o.aa; i++ {
			// Alternate which set goes first so drift lands on both.
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				res, err := runUntraced(w, sz, o.seed+int64(i), o.seconds)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
					return 1
				}
				for _, p := range res.problems {
					fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
					code = 1
				}
				sets[s] = append(sets[s], res)
			}
		}
		fmt.Fprintf(stdout, "== A/A %s: 2 x %d runs, seeds %d..%d, %g s measured each\n", w.name, o.aa, o.seed, o.seed+int64(o.aa)-1, o.seconds)
		fmt.Fprintf(stdout, "%-24s %14s %14s %9s %9s %9s %7s  %s\n", "metric", "median A", "median B", "iqr A", "iqr B", "B vs A", "bound", "verdict")
		for _, spec := range e2eSpecs {
			var a, b []float64
			for i := range sets[0] {
				a = append(a, sets[0][i].e2e.get(spec.name))
				b = append(b, sets[1][i].e2e.get(spec.name))
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			diff := ratio(b2-a2, a2)
			worse := diff
			if spec.higher {
				worse = -diff
			}
			verdict := "ok"
			if spec.simulated {
				for i := range a {
					if a[i] != b[i] {
						verdict = "FAIL: simulated metric differs between sets"
					}
				}
			} else if math.Abs(worse) > spec.bound {
				verdict = "FAIL: sets differ by more than the bound"
			}
			if verdict != "ok" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-24s %14.4f %14.4f %8.2f%% %8.2f%% %+8.2f%% %6.0f%%  %s\n",
				spec.name, a2, b2, 100*ratio(a3-a1, a2), 100*ratio(b3-b1, b2), 100*diff, 100*spec.bound, verdict)
		}
		for i := range sets[0] {
			if d := sameDigest(fmt.Sprintf("%s seed %d: sets disagree", w.name, sets[0][i].seed), sets[1][i].rounds[0].digest, sets[0][i].rounds[0].digest); len(d) > 0 {
				for _, p := range d {
					fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
				}
				code = 1
			}
		}
	}
	return code
}
