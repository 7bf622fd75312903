// Package stats provides the statistical substrate shared by the LPVS
// reproduction: deterministic random-number streams, histograms,
// summaries, linear regression, and normal-distribution helpers.
//
// Everything in this package is deterministic given a seed, so that
// emulation runs — and the paper-figure regenerators built on top of
// them — are exactly reproducible.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. It wraps math/rand with the
// distribution samplers the LPVS emulator needs (truncated Gaussian,
// log-normal, categorical) so that callers never reach for package-level
// randomness.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream from the current state. It is
// used to give every device / channel / slot its own stream so that
// changing one consumer does not perturb the draws seen by another.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*g.r.Float64())
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + float64(stddev*g.r.NormFloat64())
}

// TruncNormal samples a Gaussian with the given mean and standard
// deviation, truncated (by rejection with a clamping fallback) to
// [lo, hi]. The fallback keeps the sampler total even for priors whose
// mass barely intersects the interval, such as the paper's sigma=12
// initialisation of the power-reduction ratio.
func (g *RNG) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < 64; i++ {
		v := g.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	// The interval carries almost no prior mass; fall back to a uniform
	// draw so the caller still gets a legal value.
	return g.Uniform(lo, hi)
}

// LogNormal returns exp(N(mu, sigma^2)).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Exponential returns an exponential sample with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Categorical draws an index from the (unnormalised, non-negative)
// weights. It panics if weights is empty or sums to zero.
func (g *RNG) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("stats: Categorical with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: Categorical with negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("stats: Categorical with zero total weight")
	}
	u := g.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
