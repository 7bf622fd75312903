package stats

import "math"

// NormalPDF evaluates the Gaussian density N(mean, stddev^2) at x.
func NormalPDF(x, mean, stddev float64) float64 {
	if stddev <= 0 {
		panic("stats: NormalPDF requires stddev > 0")
	}
	z := (x - mean) / stddev
	return math.Exp(-0.5*z*z) / (stddev * math.Sqrt(2*math.Pi))
}

// NormalCDF evaluates the Gaussian cumulative distribution function of
// N(mean, stddev^2) at x.
func NormalCDF(x, mean, stddev float64) float64 {
	if stddev <= 0 {
		panic("stats: NormalCDF requires stddev > 0")
	}
	// erfc keeps full relative precision in the lower tail, where
	// 1+erf(z) would cancel catastrophically; truncated-moment formulas
	// depend on tail differences being accurate.
	z := (x - mean) / (stddev * math.Sqrt2)
	return 0.5 * math.Erfc(-z)
}

// StdNormalPDF is NormalPDF with mean 0 and stddev 1.
func StdNormalPDF(z float64) float64 { return NormalPDF(z, 0, 1) }

// StdNormalCDF is NormalCDF with mean 0 and stddev 1.
func StdNormalCDF(z float64) float64 { return NormalCDF(z, 0, 1) }

// TruncNormalMean returns the expectation of a N(mean, stddev^2)
// variable truncated to [lo, hi]:
//
//	E[X | lo <= X <= hi] = mean + stddev * (pdf(a) - pdf(b)) / (cdf(b) - cdf(a))
//
// with a = (lo-mean)/stddev and b = (hi-mean)/stddev. This is the
// integral the paper evaluates in Eq. (19) when it restricts the
// posterior of the power-reduction ratio to [gammaL, gammaU].
func TruncNormalMean(mean, stddev, lo, hi float64) float64 {
	if stddev <= 0 {
		panic("stats: TruncNormalMean requires stddev > 0")
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	a := (lo - mean) / stddev
	b := (hi - mean) / stddev
	z := StdNormalCDF(b) - StdNormalCDF(a)
	if z <= 1e-300 {
		// Effectively no mass inside the interval: the distribution sits
		// entirely on one side, so the truncated mean collapses to the
		// nearer endpoint.
		if mean < lo {
			return lo
		}
		return hi
	}
	// Clamp against residual floating-point error in extreme tails.
	return Clamp(mean+stddev*(StdNormalPDF(a)-StdNormalPDF(b))/z, lo, hi)
}

// TruncNormalVar returns the variance of a N(mean, stddev^2) variable
// truncated to [lo, hi].
func TruncNormalVar(mean, stddev, lo, hi float64) float64 {
	if stddev <= 0 {
		panic("stats: TruncNormalVar requires stddev > 0")
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	a := (lo - mean) / stddev
	b := (hi - mean) / stddev
	z := StdNormalCDF(b) - StdNormalCDF(a)
	if z <= 1e-300 {
		return 0
	}
	pa, pb := StdNormalPDF(a), StdNormalPDF(b)
	first := (float64(a*pa) - float64(b*pb)) / z
	// Guard the b -> +Inf and a -> -Inf limits where a*pdf(a) -> 0.
	if math.IsInf(b, 1) {
		first = a * pa / z
	}
	if math.IsInf(a, -1) {
		first = -b * pb / z
	}
	second := (pa - pb) / z
	v := stddev * stddev * (1 + first - float64(second*second))
	if v < 0 {
		return 0
	}
	return v
}
