// Package rng provides deterministic, splittable pseudo-random number
// generation for the simulator.
//
// Every random choice in a simulation (vote values, peer selection, fault
// placement, color assignment) is drawn from a stream derived from a single
// master seed, so an entire experiment is reproducible from one uint64 and
// results are independent of goroutine scheduling: each agent and each trial
// owns a private stream split off deterministically with Split.
//
// The generator is xoshiro256** seeded through splitmix64, the initialization
// recommended by the xoshiro authors. It is not cryptographically secure; it
// is a simulation RNG.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances the splitmix64 state in *state and returns the next
// output. It is used both as a seed expander and as a cheap standalone
// generator for derived seeds.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes a pair of uint64 values into a well-distributed uint64.
// It is the basis for Split: Mix64(seed, index) yields independent-looking
// streams for distinct indices.
func Mix64(a, b uint64) uint64 {
	s := a ^ (b * 0xff51afd7ed558ccd)
	x := SplitMix64(&s)
	s ^= b
	return x ^ SplitMix64(&s)
}

// Source is a xoshiro256** generator. The zero value is invalid; construct
// with New or Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64. Distinct seeds give
// uncorrelated streams; seed 0 is valid.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitializes the generator in place from seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// xoshiro requires a nonzero state; splitmix64 of any seed produces one
	// with overwhelming probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives a new independent Source from this one's seed lineage and the
// given index. Calling Split with distinct indices yields distinct streams;
// the parent stream is not advanced, so splitting is itself deterministic and
// order-independent.
func (r *Source) Split(index uint64) *Source {
	var dst Source
	r.SplitInto(index, &dst)
	return &dst
}

// SplitSeed returns the seed that Split(index) expands: deriving a stream via
// New(r.SplitSeed(i)) or dst.Reseed(r.SplitSeed(i)) is byte-identical to
// Split(i). It exists so pooled callers can re-derive per-agent streams into
// reused Sources without allocating.
func (r *Source) SplitSeed(index uint64) uint64 {
	// Combine the full parent state so streams split from different parents
	// differ even for equal indices.
	h := Mix64(r.s[0]^bits.RotateLeft64(r.s[2], 17), r.s[1]^bits.RotateLeft64(r.s[3], 31))
	return Mix64(h, index)
}

// SplitInto reseeds dst in place to the exact stream Split(index) would
// return, without allocating. The parent stream is not advanced.
func (r *Source) SplitInto(index uint64, dst *Source) {
	dst.Reseed(r.SplitSeed(index))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
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

// Int63 returns a non-negative int64, satisfying math/rand.Source64 shape.
func (r *Source) Int63() int64 { return int64(r.Uint64() >> 1) }

// Seed is present to satisfy math/rand.Source; it reseeds the stream.
func (r *Source) Seed(seed int64) { r.Reseed(uint64(seed)) }

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift rejection method (unbiased).
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntnExcept returns a uniform int in [0, n) \ {except}. It panics if n <= 1
// or except is outside [0, n).
func (r *Source) IntnExcept(n, except int) int {
	if n <= 1 {
		panic("rng: IntnExcept needs n > 1")
	}
	if except < 0 || except >= n {
		panic("rng: IntnExcept except out of range")
	}
	v := r.Intn(n - 1)
	if v >= except {
		v++
	}
	return v
}

// Range returns a uniform value in the inclusive integer range [lo, hi].
func (r *Source) Range(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + int64(r.Uint64n(uint64(hi-lo)+1))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns the number of failures before the first success in a
// sequence of independent Bernoulli(p) trials: P(G = k) = (1−p)^k · p for
// k ≥ 0. It is the waiting-time primitive behind skip-sampling: scanning a
// population and flipping a Bernoulli(p) coin per element is distributionally
// identical to jumping Geometric(p)+1 elements between successes, which
// turns an O(population) scan into O(expected successes) work.
//
// The draw is a scaled exponential, G = ⌊E/λ⌋ with E = Exp() and
// λ = −ln(1−p): E/λ is exponential with rate λ, so
// P(G ≥ k) = P(E ≥ kλ) = e^(−kλ) = (1−p)^k, the exact geometric tail (up
// to float64 rounding of λ and of the product). p ≥ 1 returns 0 without
// consuming randomness; p ≤ 0 panics (the waiting time would be infinite —
// callers handle the never-hits case themselves, typically via SkipPast
// returning past the end of their population). Callers drawing repeatedly
// at one p prepare it once with NewGeo.
func (r *Source) Geometric(p float64) uint64 { return NewGeo(p).Draw(r) }

// SkipPast returns the index of the next success at or after position i when
// every element of a population is independently selected with probability p:
// i + Geometric(p). Scanning [i, n) with repeated SkipPast visits exactly the
// elements a per-element Bernoulli(p) scan would select, in ascending order,
// at O(selected) cost; a return ≥ n means no further element is selected.
// p ≤ 0 never hits: it returns MaxUint64 without consuming randomness.
func (r *Source) SkipPast(i uint64, p float64) uint64 { return NewGeo(p).SkipPast(r, i) }

// Geo is the geometric law of Source.Geometric prepared for one p: the
// scale 1/λ = −1/ln(1−p) is computed once, here, so a draw is one Exp and
// one multiply — no logarithm and no division. Log1p keeps λ precise for
// small p, where ln(1−p) ≈ −p.
type Geo struct {
	p      float64
	invLam float64 // −1/ln(1−p); read only when 0 < p < 1
}

// NewGeo prepares the geometric law of success probability p.
func NewGeo(p float64) Geo { return Geo{p: p, invLam: -1 / math.Log1p(-p)} }

// Draw is Source.Geometric(p) for the prepared p: ⌊Exp()·(−1/ln(1−p))⌋.
func (g Geo) Draw(r *Source) uint64 {
	if g.p >= 1 {
		return 0
	}
	if g.p <= 0 {
		panic("rng: Geometric with p <= 0")
	}
	// Exp is below 45, so the product is finite unless 1/λ itself overflows
	// (p below ~10⁻³⁰⁸); the negated test also sends that case's 0·Inf = NaN
	// to "no hit" rather than through an undefined float→uint64 conversion.
	q := r.Exp() * g.invLam
	if !(q < maxGeometric) {
		return math.MaxUint64
	}
	return uint64(q)
}

// maxGeometric guards the float→uint64 conversion in Draw: any skip at
// or beyond 2⁶³ is clamped to MaxUint64 (a skip past every population a
// uint64 can index, so callers see "no hit" uniformly).
const maxGeometric = 1 << 63

// SkipPast is Source.SkipPast(i, p) for the prepared p.
func (g Geo) SkipPast(r *Source, i uint64) uint64 {
	if g.p <= 0 {
		return math.MaxUint64
	}
	d := g.Draw(r)
	if i > math.MaxUint64-d {
		return math.MaxUint64
	}
	return i + d
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place uniformly at random.
func Shuffle[T any](r *Source, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	// Partial Fisher–Yates over an index map; O(k) memory via sparse map for
	// large n, dense slice for small n.
	if n <= 4*k || n <= 1024 {
		p := r.Perm(n)
		return p[:k]
	}
	chosen := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vj, ok := chosen[j]
		if !ok {
			vj = j
		}
		vi, ok := chosen[i]
		if !ok {
			vi = i
		}
		chosen[j] = vi
		out[i] = vj
	}
	return out
}
