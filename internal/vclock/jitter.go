package vclock

import (
	"math/rand"
	"sync"
)

// jitterSource is a rand.Source64 that yields exactly the sequence
// rand.NewSource(seed) yields, without building math/rand's 607-word state
// until it is needed.
//
// math/rand's additive lagged-Fibonacci generator (length 607, tap 273)
// seeds slot i as rngCooked[i] ^ mix(seed, i). Its draw j reads feed slot
// 334-j and tap slot 607-j; for j ≤ 273 neither has been written by an
// earlier draw, so such a draw is a function of the seed and j alone. The
// source therefore holds the normalised seed and a draw counter, and only
// at draw 274 builds the real source and replays the first 273 draws on it.
type jitterSource struct {
	seed uint64        // normalised: 1 ≤ seed < lfgMod
	n    int           // draws taken
	full rand.Source64 // nil until draw lfgTap+1
}

const (
	lfgLen   = 607
	lfgTap   = 273
	lfgMod   = 1<<31 - 1 // Park–Miller modulus of math/rand's seeding
	lfgMul   = 48271
	zeroSeed = 89482311 // math/rand's stand-in for a seed ≡ 0
)

var (
	jitterOnce sync.Once
	// lfgPow[i] = lfgMul^(21+3i) mod lfgMod: slot i mixes the Park–Miller
	// values at steps 21+3i, 22+3i and 23+3i from the seed.
	lfgPow [lfgLen]uint64
	// lfgCooked is math/rand's unexported rngCooked table, recovered from
	// its public API.
	lfgCooked [lfgLen]uint64
)

func newJitterSource(seed int64) *jitterSource {
	jitterOnce.Do(recoverCooked)
	s := new(jitterSource)
	s.Seed(seed)
	return s
}

// Seed resets the source to the sequence rand.NewSource(seed) yields.
func (s *jitterSource) Seed(seed int64) {
	seed %= lfgMod
	if seed < 0 {
		seed += lfgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	*s = jitterSource{seed: uint64(seed)}
}

func (s *jitterSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *jitterSource) Uint64() uint64 {
	if s.n < lfgTap {
		s.n++
		return s.slot(feedSlot(s.n)) + s.slot(tapSlot(s.n))
	}
	if s.full == nil {
		s.full = rand.NewSource(int64(s.seed)).(rand.Source64)
		for i := 0; i < lfgTap; i++ {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// feedSlot and tapSlot are the state words math/rand's draw j (from 1)
// adds; it stores the sum in the feed slot.
func feedSlot(j int) int { return (lfgLen - lfgTap - j + lfgLen) % lfgLen }
func tapSlot(j int) int  { return lfgLen - j }

// slot is math/rand's freshly seeded state word i.
func (s *jitterSource) slot(i int) uint64 { return lfgCooked[i] ^ mix(s.seed, i) }

// mix is the Park–Miller contribution math/rand's seeding XORs into slot i.
func mix(seed uint64, i int) uint64 {
	x := seed * lfgPow[i] % lfgMod
	u := x << 40
	x = x * lfgMul % lfgMod
	u ^= x << 20
	x = x * lfgMul % lfgMod
	return u ^ x
}

// recoverCooked fills lfgPow, then lfgCooked from rand.NewSource(1): its
// first 607 draws write every slot exactly once, so undoing them in reverse
// gives the seeded state, and XORing out mix(1, i) leaves rngCooked[i].
func recoverCooked() {
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = p * lfgMul % lfgMod
	}
	step := uint64(lfgMul) * lfgMul % lfgMod * lfgMul % lfgMod
	for i := range lfgPow {
		lfgPow[i] = p
		p = p * step % lfgMod
	}

	src := rand.NewSource(1).(rand.Source64)
	var vec [lfgLen]uint64
	for j := 1; j <= lfgLen; j++ {
		vec[feedSlot(j)] = src.Uint64()
	}
	for j := lfgLen; j >= 1; j-- {
		vec[feedSlot(j)] -= vec[tapSlot(j)]
	}
	for i := range vec {
		lfgCooked[i] = vec[i] ^ mix(1, i)
	}
}
