// Package rng provides a deterministic, splittable pseudo-random number
// source used by every randomized component of the study.
//
// The entire synthetic data collection must be a pure function of a single
// study seed so that experiments are exactly reproducible. To achieve that
// without threading shared mutable state through concurrent generators, rng
// exposes keyed *splitting*: a Source can derive an independent child Source
// from a string path such as "subject/42/device/D1/sample/0". Children with
// distinct paths are statistically independent; identical paths yield
// identical streams.
//
// The core generator is SplitMix64, which passes BigCrush at 64-bit output
// and is trivially seedable from a hash; keyed derivation uses FNV-1a over
// the path mixed into the parent seed.
package rng

import (
	"math"
)

// Source is a deterministic random source. It is NOT safe for concurrent
// use; derive one Source per goroutine via Child.
type Source struct {
	// seed is the immutable identity of this source; Child derives
	// from it, so deriving children never depends on how much randomness has
	// been consumed from the parent.
	seed  uint64
	state uint64
}

// New returns a Source seeded with seed. Any seed value, including zero,
// is valid.
func New(seed uint64) *Source {
	// Pre-mix so that small consecutive seeds produce unrelated streams.
	s := splitmix(seed + 0x9e3779b97f4a7c15)
	return &Source{seed: s, state: s}
}

// fnv1a hashes s with 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix advances a SplitMix64 state by one step and returns the output.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Child derives an independent Source keyed by path. The derivation does
// not consume randomness from the parent: calling Child never perturbs the
// parent stream, and the same (parent seed, path) pair always produces the
// same child.
func (s *Source) Child(path string) *Source {
	d := splitmix(s.seed ^ fnv1a(path))
	return &Source{seed: d, state: d}
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0,1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0, mirroring
// math/rand's contract for programmer errors.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := s.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	_ = lo
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	return a1*b1 + t>>32 + w1>>32, a * b
}

// Norm returns a standard normal variate (Box–Muller, polar form avoided
// for simplicity; the trig form is deterministic and branch-free).
func (s *Source) Norm() float64 {
	// Guard against log(0).
	u := 1 - s.Float64()
	v := s.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// NormMS returns a normal variate with the given mean and standard
// deviation.
func (s *Source) NormMS(mean, sd float64) float64 {
	return mean + sd*s.Norm()
}

// TruncNorm returns a normal variate clamped to [lo, hi] by rejection, with
// a clamp fallback after 64 rejections so the call always terminates.
func (s *Source) TruncNorm(mean, sd, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		x := s.NormMS(mean, sd)
		if x >= lo && x <= hi {
			return x
		}
	}
	x := s.NormMS(mean, sd)
	return math.Min(hi, math.Max(lo, x))
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// product method for small means and a normal approximation above 30.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(s.NormMS(mean, math.Sqrt(mean))))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Beta returns a Beta(a,b) variate via Jöhnk's algorithm for small shapes
// and the ratio of gammas otherwise.
func (s *Source) Beta(a, b float64) float64 {
	x := s.Gamma(a)
	y := s.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Gamma returns a Gamma(shape, 1) variate using Marsaglia–Tsang.
func (s *Source) Gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Shuffle permutes the n elements addressed by swap in place.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly random index weighted by weights. Weights must
// be non-negative; if they sum to zero the first index is returned.
func (s *Source) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}
