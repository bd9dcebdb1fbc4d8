// Package rng provides the small deterministic pseudo-random generator the
// serving simulator's stochastic processes run on: PCG-XSH-RR 32 over a
// 64-bit LCG state, seeded through the splitmix64 mixer.
//
// Determinism is the whole point. Go's math/rand makes no cross-version
// stream guarantee and its global functions are locked; this generator is a
// frozen algorithm whose streams are pinned by a fixed-seed regression test
// (TestFixedSeedStreams), so Poisson arrivals and length sampling are
// byte-identical at any -j/-par, on any platform, forever. Each simulated
// request derives a private stream from (seed, request index) via Mix, which
// keeps every request's random draws independent of how many requests came
// before it — the property the serving monotonicity tests rely on (scaling
// the offered QPS rescales arrival times without resampling anything else).
//
// A Rand is a 16-byte value with no heap state: keep it in a struct field or
// a local and the hot path allocates nothing.
package rng

import "math"

// Mix is the splitmix64 finalizer over seed ⊕ f(stream): a cheap, well-mixed
// way to derive independent substream seeds from one experiment seed. Equal
// (seed, stream) pairs always produce the same value.
func Mix(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a PCG-XSH-RR 32 generator. The zero value is a valid (if
// conventionally seeded) generator; use New to seed it properly.
type Rand struct {
	state uint64
	inc   uint64 // always odd
}

// pcgMult is the 64-bit LCG multiplier from the PCG reference implementation.
const pcgMult = 6364136223846793005

// New returns a generator seeded from seed. Distinct seeds yield
// uncorrelated streams (both the state and the stream-selection increment
// are derived through splitmix64).
func New(seed uint64) Rand {
	r := Rand{
		state: Mix(seed, 0),
		inc:   Mix(seed, 1)<<1 | 1, // stream selector must be odd
	}
	r.Uint32() // advance past the seed-correlated first state
	return r
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	// XSH-RR output function: xorshift high bits, then random rotate.
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 uniformly distributed bits (two draws).
func (r *Rand) Uint64() uint64 {
	hi := uint64(r.Uint32())
	return hi<<32 | uint64(r.Uint32())
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an Exponential(1) variate by inversion. Divide by a rate to
// get Poisson-process inter-arrival gaps: gap = r.Exp() / qps.
func (r *Rand) Exp() float64 {
	// 1-Float64() is in (0, 1], so the log argument is never zero.
	return -math.Log(1 - r.Float64())
}

// Intn returns a uniform int in [0, n). It panics when n <= 0. The modulo
// bias over a 64-bit draw is < 2^-11 for any n this repository uses —
// irrelevant for simulation workloads, and the frozen streams matter more
// than the last bias bit.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics when
// hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// LogRange is an inclusive int range [lo, hi] to draw from log-uniformly
// (LogInt) — the conventional shape for request prompt/output length
// distributions, where doubling a length is equally likely anywhere in the
// range. It holds its logarithms, taken once.
type LogRange struct {
	lo, hi        int
	logLo, logHi1 float64 // log(lo), log(hi+1)
}

// NewLogRange prepares [lo, hi] for LogInt. It panics when lo <= 0 or
// hi < lo.
func NewLogRange(lo, hi int) LogRange {
	if lo <= 0 {
		panic("rng: LogRange with non-positive lo")
	}
	if hi < lo {
		panic("rng: LogRange with hi < lo")
	}
	return LogRange{lo: lo, hi: hi, logLo: math.Log(float64(lo)), logHi1: math.Log(float64(hi) + 1)}
}

// LogInt returns an int in lr, log-uniformly distributed: one Float64 draw,
// exp(log(lo) + u·(log(hi+1) − log(lo))), clamped to [lo, hi]. A
// single-value range consumes no draw.
func (r *Rand) LogInt(lr LogRange) int {
	lo, hi := lr.lo, lr.hi
	if lo == hi {
		return lo
	}
	v := math.Exp(lr.logLo + r.Float64()*(lr.logHi1-lr.logLo))
	n := int(v)
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}
