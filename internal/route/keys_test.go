package route

import (
	"math"
	"testing"
	"time"

	"manetkit/internal/mnet"
	"manetkit/internal/vclock"
)

// timeKey is the stored-expiry formula the table's integer keys replace:
// the instant minus base, taken with time.Time.Sub (which saturates), one
// short of never when it saturates upwards.
func timeKey(x, base time.Time) int64 {
	if x.IsZero() {
		return never
	}
	d := int64(x.Sub(base))
	if d == never {
		d--
	}
	return d
}

// TestExtendLifetimeKeysMatchTimeArithmetic holds ExtendLifetime to the
// time.Time formula it replaced, with lifetimes up to math.MaxInt64 and
// down to math.MinInt64: for each table, whose base the route installed
// first fixes (near the clock, far behind it, far ahead of it), the
// extended expiry, the verdict and whether the route is live afterwards
// match the expiry now.Add(d) would have stored.
func TestExtendLifetimeKeysMatchTimeArithmetic(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const year = 365 * 24 * time.Hour
	dst, hop := mnet.AddrFrom(0x0a000009), mnet.AddrFrom(0x0a000002)
	lifetimes := []time.Duration{0, 1, 5 * time.Second, -5 * time.Second, 200 * year,
		math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - time.Hour, math.MinInt64, math.MinInt64 + 1}
	for _, c := range []struct {
		clock   time.Duration // the clock's reading when the route is installed and extended
		expires time.Duration // the installed path's expiry, past the clock
	}{
		{0, 5 * time.Second}, {time.Hour, -time.Minute}, {time.Hour, 150 * year},
		{100 * year, 5 * time.Second}, {100 * year, -90 * year}, {250 * year, 40 * year},
	} {
		for _, d := range lifetimes {
			clk := vclock.NewVirtual(start)
			clk.Advance(c.clock)
			now := clk.Now()
			installed := now.Add(c.expires)
			tb := NewTable(clk)
			tb.Upsert(Entry{Dst: mnet.HostPrefix(dst), Valid: true, Proto: "dymo",
				Paths: []Path{{NextHop: hop, Metric: 1, Expires: installed}}})
			base := installed // the first conversion fixes the table's base

			nowK, dk, exp := timeKey(now, base), timeKey(now.Add(d), base), timeKey(installed, base)
			if before(exp, dk) {
				exp = dk
			}
			if !tb.ExtendLifetime(dst, mnet.Addr{}, d) {
				t.Fatalf("clock %v, expiry %+v, lifetime %v: ExtendLifetime = false", c.clock, c.expires, d)
			}
			e, _ := tb.Get(dst)
			if got, want := e.Paths[0].Expires, base.Add(time.Duration(exp)); !got.Equal(want) {
				t.Errorf("clock %v, expiry %+v, lifetime %v: expires %v, want %v", c.clock, c.expires, d, got, want)
			}
			_, _, err := tb.Lookup(dst)
			if live := !expired(exp, nowK); (err == nil) != live {
				t.Errorf("clock %v, expiry %+v, lifetime %v: Lookup error %v, want live %v", c.clock, c.expires, d, err, live)
			}
		}
	}
}
