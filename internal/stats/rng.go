package stats

import "math"

// RNG is a small, deterministic pseudo-random number generator used for
// reproducible experiments (inlet temperature variation, trace noise).
//
// It implements SplitMix64, which has excellent statistical quality for
// the modest demands of this simulator and — unlike math/rand's global
// state — guarantees identical streams across runs and platforms for a
// given seed. The zero value is usable and equivalent to NewRNG(0).
type RNG struct {
	state uint64
	// spare caches the second deviate produced by the Box–Muller
	// transform so Normal() consumes one uniform pair per two calls.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform deviate in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Normal returns a normal deviate with the given mean and standard
// deviation using the Marsaglia polar form of Box–Muller.
func (r *RNG) Normal(mean, stdev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stdev*r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 { //vmtlint:allow floateq Marsaglia rejection of the exact degenerate draw
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return mean + stdev*u*m
	}
}

// Poisson draws a Poisson deviate with the given mean using inversion
// for small means and a normal approximation for large ones.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := int(r.Normal(lambda, math.Sqrt(lambda)) + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Mix64 applies the SplitMix64 finalizer to x: a bijective avalanche
// mix. Callers use it to derive decorrelated substream seeds from
// (seed, index) pairs — the basis of random-access generators whose
// value at index i is a pure function of the seed, independent of how
// many other indices were evaluated first.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
