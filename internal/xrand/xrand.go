// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// Every synthetic graph in this project is produced from an explicit 64-bit
// seed so that experiments are bit-for-bit reproducible across runs and
// machines. The package implements SplitMix64 (used for seeding and cheap
// stateless hashing) and xoshiro256** (the workhorse generator), both from
// the public-domain reference designs by Blackman and Vigna.
package xrand

import (
	"math"
	"math/bits"
)

// SplitMix64 advances the given state by one step and returns the next
// 64-bit output. It is the recommended seeding function for xoshiro
// generators and is also useful as a cheap avalanche hash.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 applies the SplitMix64 finalizer to x. It is a stateless mixing
// function: equal inputs give equal outputs, and small input differences
// produce avalanche in the output. Useful for deriving per-vertex or
// per-edge randomness without carrying generator state.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SymmetricWeights returns a deterministic symmetric per-edge weight
// function in [1, maxW], hashed from the endpoint pair and a seed —
// the one scheme shared by the weighted CLIs, exhibits, benches and
// tests (graph.AttachWeights requires symmetry).
// maxW must be positive.
func SymmetricWeights(maxW uint32, seed uint64) func(u, v uint32) uint32 {
	if maxW == 0 {
		panic("xrand: SymmetricWeights needs maxW >= 1")
	}
	return func(u, v uint32) uint32 {
		if u > v {
			u, v = v, u
		}
		// Parenthesized: ^ and | share precedence, so the bare form
		// would OR the seed's low bits into v and collapse distinct
		// neighbors onto one weight.
		return uint32(Hash64(seed^(uint64(u)<<32|uint64(v))))%maxW + 1
	}
}

// Rand is a xoshiro256** generator. The zero value is not usable; construct
// with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given 64-bit seed via SplitMix64,
// as recommended by the xoshiro authors. Distinct seeds give independent
// streams for all practical purposes.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// Guard against the theoretical all-zero state (cannot happen with
	// SplitMix64 seeding, but keep the invariant explicit).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Uint64 returns the next 64-bit value in the stream.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)

	return result
}

// Uint32 returns the next 32-bit value in the stream.
func (r *Rand) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded reduction.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Lemire's method: multiply-shift with a rejection step to remove bias.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes s uniformly at random (Fisher–Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle permutes n elements using the provided swap function
// (Fisher–Yates), mirroring math/rand's API.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, using the polar (Marsaglia) method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Geometric returns a sample from a geometric distribution with success
// probability p in (0, 1]: the number of failures before the first success.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric requires p in (0, 1]")
	}
	if p == 1 {
		return 0
	}
	n := 0
	for r.Float64() >= p {
		n++
		if n > 1<<30 {
			// Defensive cap: with any sane p this is unreachable.
			return n
		}
	}
	return n
}
