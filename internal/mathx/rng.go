// Package mathx provides the deterministic numerical substrate used across
// the reliability framework: a reproducible random number generator,
// probability distributions, summary statistics, root finding and
// interpolation. Everything is pure Go and allocation-light so Monte-Carlo
// loops can run millions of samples on a laptop. In paper terms this is
// the machinery under Section 2's statistical picture: the Gaussian
// sampling behind Pelgrom mismatch (Eq. 1), the yield statistics, and the
// split-stream RNG that makes every trial reproducible regardless of
// worker scheduling.
package mathx

import "math"

// RNG is a deterministic 64-bit PCG-XSL-RR generator. A zero RNG is not
// valid; construct one with NewRNG. Distinct streams can be derived with
// Split, which is what the Monte-Carlo engine uses to give every worker an
// independent, reproducible stream.
type RNG struct {
	state    uint64
	inc      uint64
	hasSpare bool
	spare    float64
}

const (
	pcgMultiplier = 6364136223846793005
	pcgDefaultInc = 1442695040888963407
)

// SplitMix64 is the SplitMix64 finalizer: an avalanching bijection on
// uint64 where flipping any input bit flips ~half the output bits. Seed
// and stream derivation pass through it so that adjacent seeds or
// adjacent shard/stream indices — the natural numbering of a sharded
// Monte-Carlo campaign — land on uncorrelated generator states instead of
// states one increment apart.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRNG returns a generator seeded with seed. The same seed always yields
// the same sequence. The seed is mixed through SplitMix64, so sequential
// seeds (1, 2, 3, …) start from statistically unrelated states.
func NewRNG(seed uint64) *RNG {
	r := &RNG{inc: pcgDefaultInc}
	r.state = SplitMix64(seed) + r.inc
	r.Uint64()
	return r
}

// NewRNGStream returns a generator on an explicit stream; generators with
// different stream values produce uncorrelated sequences even for the same
// seed. Both seed and stream are mixed through SplitMix64 before use —
// without the mix the PCG increment of stream i and the state of seed s
// differ from stream i+1 / seed s+1 by small constants, and such nearly-
// identical (state, inc) pairs yield visibly correlated output prefixes.
func NewRNGStream(seed, stream uint64) *RNG {
	r := &RNG{inc: (SplitMix64(stream) << 1) | 1}
	r.state = SplitMix64(seed) + r.inc
	r.Uint64()
	return r
}

// Split derives the i-th child stream from r without disturbing r's own
// sequence position. Children are independent of each other and of the
// parent; NewRNGStream's SplitMix64 mix decorrelates adjacent child
// indices, which is what makes per-trial substreams indexed by the global
// trial number safe for variance estimation.
func (r *RNG) Split(i uint64) *RNG {
	return NewRNGStream(r.state^0x9e3779b97f4a7c15, i)
}

// Uint64 returns the next raw 64-bit value, combining two PCG-XSH-RR
// 32-bit outputs.
func (r *RNG) Uint64() uint64 {
	return uint64(r.uint32())<<32 | uint64(r.uint32())
}

func (r *RNG) uint32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return xorshifted>>rot | xorshifted<<((32-rot)&31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly 0 or 1, which
// is what inverse-CDF sampling needs.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	// Lemire rejection-free-ish bounded generation.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle applies a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Norm returns a standard normal variate using the polar (Marsaglia)
// method. It is exact (no table lookups) and uses two uniforms per pair.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.hasSpare = true
			return u * f
		}
	}
}

// Exp returns an exponential variate with mean 1.
//
// test seam: core's TestHazardFlatForExponential draws its constant-hazard
// failure times with it.
func (r *RNG) Exp() float64 {
	return -math.Log(r.Float64Open())
}
