package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It does not mutate xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := float64(rank) - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// LinearFit is the least-squares line y = Slope*x + Intercept together
// with its coefficient of determination, as reported for the scheduler
// runtime trend in Fig. 10 of the paper.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine computes the ordinary-least-squares fit of ys against xs.
// It panics if the slices differ in length or have fewer than two
// points, or if all xs are identical.
func FitLine(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic("stats: FitLine length mismatch")
	}
	if len(xs) < 2 {
		panic("stats: FitLine needs at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	sxx, sxy := 0.0, 0.0
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		panic("stats: FitLine with constant x")
	}
	fit := LinearFit{Slope: sxy / sxx}
	fit.Intercept = my - fit.Slope*mx
	ssTot, ssRes := 0.0, 0.0
	for i := range xs {
		pred := fit.Slope*xs[i] + fit.Intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	if ssTot == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = 1 - ssRes/ssTot
	}
	return fit
}
