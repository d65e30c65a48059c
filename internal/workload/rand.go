// Package workload synthesizes the dynamic instruction streams of the
// paper's nine benchmarks. The original study ran SPEC95 and SimOS
// multiprogramming workloads (with operating system references) under
// MXS; neither the binaries, IRIX, nor SimOS are reproducible here, so
// each benchmark is modeled by a parameterized generator that matches
// the properties the experiments actually consume:
//
//   - the load/store fractions of the instruction stream (Table 2),
//   - the kernel/user split of the paper's Table 2 (kernel references go
//     to a separate, OS-flavoured part of the address space),
//   - the dependence structure (floating point codes expose far more
//     instruction-level parallelism than integer codes),
//   - branch density and predictability (loop-closing branches that a
//     two-bit predictor learns, plus data-dependent branches),
//   - and, most importantly, memory locality: a mixture of streamed,
//     hot-set, uniformly random, and pointer-chasing regions sized per
//     benchmark so that the miss-rate-versus-cache-size curves have the
//     Figure 3 character of their group (integer codes have small
//     working sets, multiprogramming codes large ones, floating point
//     codes streaming behaviour with sharp cliffs).
package workload

import "math"

// Rand is a small deterministic xorshift64* generator. The simulator
// must be reproducible run to run, so all randomness flows from
// explicitly seeded instances of this type (never math/rand's global
// state).
type Rand struct {
	s uint64
}

// NewRand returns a generator seeded with seed (zero is remapped, since
// xorshift has a zero fixed point).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// randMult is the xorshift64* output multiplier.
const randMult = 0x2545F4914F6CDD1D

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * randMult
}

// Float64 returns a uniform value in [0, 1). Multiplying by the exact
// constant 2^-53 scales the 53-bit integer without rounding, so this is
// bit-identical to dividing by 2^53.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	u := r.Uint64()
	if n&(n-1) == 0 {
		return int(u & uint64(n-1))
	}
	return int(u % uint64(n))
}

// boolThreshold converts a probability to the integer threshold t such
// that Float64() < p is exactly u>>11 < t for the same 64-bit draw u:
// the 53-bit value u>>11 is below p*2^53 iff it is below ceil(p*2^53)
// (both are exact — the product is a power-of-two scaling). Hot paths
// precompute this once and compare integers instead of doing the
// int->float conversion and float compare per draw.
func boolThreshold(p float64) uint64 {
	t := math.Ceil(p * (1 << 53))
	if !(t > 0) { // also false for NaN
		return 0
	}
	if t >= (1 << 53) {
		return 1 << 53
	}
	return uint64(t)
}

// geomThreshold converts a geometric mean to the integer threshold t
// such that Float64() > 1/mean is exactly u>>11 > t: the 53-bit value
// is above p*2^53 iff it is above floor(p*2^53). Meaningful only for
// mean > 1.
func geomThreshold(mean float64) uint64 {
	return uint64(math.Floor((1 / mean) * (1 << 53)))
}

// splitGamma is SplitMix64's state increment (2^64 / golden ratio).
const splitGamma = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output finalizer: mix64(key + i*splitGamma)
// is output i of the SplitMix64 stream seeded with key, computable
// without stepping through the outputs before it.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// survivalTable returns the geometric(mean) survival function in
// 64-bit fixed point: entry k-1 is q^k·2^64 = P(distance > k)·2^64 for
// k = 1..regRingSize, q = 1 - 1/mean < 1, and the rest is zero. A mean
// <= 1 gives the all-zero table: every distance is 1.
func survivalTable(mean float64) [2 * regRingSize]uint64 {
	var t [2 * regRingSize]uint64
	if mean <= 1 {
		return t
	}
	q := 1 - 1/mean
	for k := range regRingSize {
		t[k] = uint64(math.Ldexp(math.Pow(q, float64(k+1)), 64))
	}
	return t
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Uint64()>>11 < boolThreshold(p) }
