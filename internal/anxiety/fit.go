package anxiety

import (
	"fmt"
)

// FitCanonical finds the Canonical parameters best matching an arbitrary
// anxiety model in the least-squares sense, by grid search with local
// refinement over the three shape parameters. Converting an empirical
// survey curve into the closed form gives schedulers a branch-free
// phi(.) and makes curves comparable across survey waves.
func FitCanonical(m Model) (*Canonical, error) {
	if m == nil {
		return nil, fmt.Errorf("anxiety: nil model")
	}
	// Sample the target once.
	const samples = 99
	xs := make([]float64, samples)
	ys := make([]float64, samples)
	for i := range xs {
		xs[i] = float64(i+1) / 100
		ys[i] = m.Anxiety(xs[i])
	}
	loss := func(c *Canonical) float64 {
		sum := 0.0
		for i := range xs {
			d := c.Anxiety(xs[i]) - ys[i]
			sum += d * d
		}
		return sum
	}

	best := NewCanonical()
	bestLoss := loss(best)
	// Coarse grid, then two refinement passes shrinking the step.
	warmLo, warmHi := 0.4, 0.95
	convLo, convHi := 1.1, 4.0
	concLo, concHi := 1.1, 3.0
	for pass := 0; pass < 3; pass++ {
		steps := 8
		for i := 0; i <= steps; i++ {
			w := warmLo + (warmHi-warmLo)*float64(i)/float64(steps)
			for j := 0; j <= steps; j++ {
				cv := convLo + (convHi-convLo)*float64(j)/float64(steps)
				for k := 0; k <= steps; k++ {
					cc := concLo + (concHi-concLo)*float64(k)/float64(steps)
					cand := &Canonical{AnxietyAtWarning: w, ConvexPower: cv, ConcavePower: cc}
					if l := loss(cand); l < bestLoss {
						bestLoss = l
						best = cand
					}
				}
			}
		}
		// Shrink the search box around the incumbent.
		warmLo, warmHi = shrink(best.AnxietyAtWarning, warmLo, warmHi)
		convLo, convHi = shrink(best.ConvexPower, convLo, convHi)
		concLo, concHi = shrink(best.ConcavePower, concLo, concHi)
	}
	return best, nil
}

func shrink(center, lo, hi float64) (float64, float64) {
	span := (hi - lo) / 4
	nl, nh := center-span, center+span
	if nl < lo {
		nl = lo
	}
	if nh > hi {
		nh = hi
	}
	return nl, nh
}
