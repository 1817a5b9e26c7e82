package emunet

import (
	"math"
	"testing"
	"time"

	"manetkit/internal/vclock"
)

// key maps an absolute instant to its deadline key, as nowKey does for the
// current one.
func (n *Network) key(t time.Time) int64 { return int64(t.Sub(n.clock.Origin())) - n.base }

// TestDeadlineKeysMatchTimeArithmetic holds the deadlines the medium books
// for sent frames to the formula the integer keys replace — the send
// instant minus the medium's creation instant, taken with time.Time.Sub,
// plus the link delay — for media created at different instants and link
// delays up to the extremes, where the sum wraps exactly as it did.
func TestDeadlineKeysMatchTimeArithmetic(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const year = 365 * 24 * time.Hour
	delays := []time.Duration{0, 1, time.Millisecond, -time.Second, 200 * year,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	for _, c := range []struct{ created, sent time.Duration }{
		{0, 0}, {0, time.Second}, {time.Hour, time.Hour + time.Millisecond}, {100 * year, 250 * year},
	} {
		clk := vclock.NewVirtual(start)
		clk.Advance(c.created)
		n := New(clk, 1)
		created := clk.Now()
		addrs := Addrs(2)
		src := attach(t, n, addrs[0])
		attach(t, n, addrs[1])
		clk.Advance(c.sent - c.created)
		for _, delay := range delays {
			if err := n.SetDirectedLink(addrs[0], addrs[1], Quality{Delay: delay}); err != nil {
				t.Fatal(err)
			}
			if err := src.Send(addrs[1], []byte("x")); err != nil {
				t.Fatal(err)
			}
			n.mu.Lock()
			var last *delivery
			for _, d := range n.eng.q.items {
				if last == nil || d.seq > last.seq {
					last = d
				}
			}
			n.mu.Unlock()
			if want := int64(clk.Now().Sub(created)) + int64(delay); last.at != want {
				t.Errorf("created %v, sent %v, delay %v: deadline key %d, want %d", c.created, c.sent, delay, last.at, want)
			}
		}
	}
}
