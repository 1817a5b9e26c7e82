package vclock

import (
	"math/rand"
	"testing"
	"time"
)

// jitterSeeds are the seeds math/rand's seeding treats specially: zero,
// the modulus and its negation (both ≡ 0), signs, seeds past 31 bits, the
// stand-in for zero itself, and a Source's node-derived seed.
var jitterSeeds = []int64{
	0, 1, -1, lfgMod, -lfgMod, lfgMod - 1, lfgMod + 1, 1 << 40, -(1 << 50),
	zeroSeed, 0x0a000001 ^ 12<<16, 1<<63 - 1, -1 << 63,
}

// compareDraws draws n values from the lazy source and from math/rand's
// own, through rand.Rand, choosing Float64, Int63 or Uint64 for draw i by
// the i-th two bits of ops, and fails at the first difference.
func compareDraws(t *testing.T, seed int64, n int, ops uint64) {
	t.Helper()
	got, want := rand.New(newJitterSource(seed)), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var g, w any
		switch ops >> (2 * (i % 32)) & 3 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			g, w = got.Int63(), want.Int63()
		default:
			g, w = got.Uint64(), want.Uint64()
		}
		if g != w {
			t.Fatalf("seed %d draw %d (ops %#x): got %v, want %v", seed, i, ops, g, w)
		}
	}
}

// TestJitterSourceMatchesMathRand: short runs over many seeds cover the
// on-demand slots, and long runs cover the hand-over to the full state at
// draw 274 and several passes over its 607 words after it.
func TestJitterSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), jitterSeeds...)
	rng := rand.New(rand.NewSource(42))
	for len(seeds) < 300 {
		seeds = append(seeds, int64(rng.Uint64()), rng.Int63n(1<<32)-1<<31)
	}
	for i, seed := range seeds {
		compareDraws(t, seed, 40, uint64(i)*0x9e3779b97f4a7c15)
	}
	for _, seed := range []int64{7, 0x0a000001 ^ 12<<16} {
		compareDraws(t, seed, 3000, 0)
		compareDraws(t, seed, 3000, 0xaaaa_5555_aaaa_5555)
	}
}

// TestJitterSourceReseed: Seed restarts the sequence, both before and after
// the source has handed over to the full state.
func TestJitterSourceReseed(t *testing.T) {
	for _, first := range []int{10, 400} {
		got, want := rand.New(newJitterSource(3)), rand.New(rand.NewSource(3))
		for i := 0; i < first; i++ {
			got.Uint64()
			want.Uint64()
		}
		got.Seed(-5)
		want.Seed(-5)
		for i := 0; i < 700; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseeded after %d draws: draw %d got %d, want %d", first, i, g, w)
			}
		}
	}
}

// TestJitteredPeriodicAllocs pins a jittered timer's footprint: starting
// one must not build math/rand's 607-word (4.9 KB) source.
func TestJitteredPeriodicAllocs(t *testing.T) {
	v := NewVirtual(epoch)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewPeriodic(v, time.Second, 0.1, int64(i), func() {}).Stop()
		}
	})
	if got := res.AllocedBytesPerOp(); got > 256 {
		t.Errorf("NewPeriodic with jitter allocates %d B a call, want ≤ 256", got)
	}
}

// FuzzJitterSource holds the lazy source to math/rand's: any seed, up to
// 2 000 draws, Float64/Int63/Uint64 mixed by ops.
//
//	go test ./internal/vclock -run=^$ -fuzz=FuzzJitterSource -fuzztime=10s
func FuzzJitterSource(f *testing.F) {
	for i, seed := range jitterSeeds {
		f.Add(seed, uint16(40+i*150), uint64(i)*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, ops uint64) {
		compareDraws(t, seed, int(n%2001), ops)
	})
}
