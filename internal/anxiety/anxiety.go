// Package anxiety implements the paper's quantitative low-battery-
// anxiety (LBA) model: the phi(e) function mapping a device's battery
// level to its owner's anxiety degree in [0, 1] (section III, Fig. 2).
//
// Three interchangeable models are provided:
//
//   - Curve: the empirical curve extracted from survey answers with the
//     paper's four-step cumulative-bin procedure;
//   - Canonical: a closed-form curve calibrated to the published Fig. 2
//     shape (convex above the 20% warning level, concave below it, with
//     a sharp increase at 20%);
//   - Linear: the straight-line baseline the paper draws for comparison.
//
// All models implement Model and are safe for concurrent use once built.
package anxiety

import (
	"fmt"
	"math"
	"runtime"
)

// Levels is the number of battery-level bins used by the extraction
// procedure; battery levels are integers in [1, Levels].
const Levels = 100

// WarningLevel is the battery percentage at which mobile OSes flip the
// battery icon and emit a low-battery warning; the survey shows a sharp
// anxiety increase there.
const WarningLevel = 20

// Model maps a battery energy fraction in [0, 1] to an anxiety degree in
// [0, 1]. Anxiety is non-increasing in the energy fraction.
type Model interface {
	// Anxiety returns the anxiety degree phi(e) for an energy fraction
	// e in [0, 1]; inputs outside the range are clamped.
	Anxiety(energyFrac float64) float64
}

// Curve is an empirical anxiety curve over integer battery levels
// 1..Levels, as extracted from survey data. The zero value is unusable;
// build one with Extract.
type Curve struct {
	// deg[i] is the anxiety degree at battery level i+1.
	deg [Levels]float64
}

// Extract builds the empirical anxiety curve from charge-threshold
// answers using the paper's four-step procedure (section III-B):
//
//  1. initialise 100 empty bins for battery levels [1, 100];
//  2. for each answer a, add one to every bin in [1, a];
//  3. repeat for all answers, yielding a declining discrete curve;
//  4. normalise the cumulative counts to [0, 1].
//
// Answers outside [1, 100] are rejected with an error, as the survey
// pipeline is expected to have cleansed them already.
func Extract(answers []int) (*Curve, error) {
	if len(answers) == 0 {
		return nil, fmt.Errorf("anxiety: no answers to extract from")
	}
	var bins [Levels]float64
	for i, a := range answers {
		if a < 1 || a > Levels {
			return nil, fmt.Errorf("anxiety: answer %d out of range [1, %d] at index %d", a, Levels, i)
		}
		for b := 1; b <= a; b++ {
			bins[b-1]++
		}
	}
	maxCount := bins[0] // bins are non-increasing; bin 1 holds the max
	c := &Curve{}
	for i := range bins {
		c.deg[i] = bins[i] / maxCount
	}
	return c, nil
}

// Anxiety implements Model, interpolating linearly between the integer
// battery-level bins.
func (c *Curve) Anxiety(energyFrac float64) float64 {
	return interpolate(energyFrac, func(level int) float64 { return c.deg[level-1] })
}

// AtLevel returns the anxiety degree at an integer battery level in
// [1, Levels].
func (c *Curve) AtLevel(level int) float64 {
	if level < 1 {
		level = 1
	}
	if level > Levels {
		level = Levels
	}
	return c.deg[level-1]
}

// Points returns the (level, anxiety) pairs of the curve, for plotting
// or export.
func (c *Curve) Points() [][2]float64 {
	out := make([][2]float64, Levels)
	for i := range c.deg {
		out[i] = [2]float64{float64(i + 1), c.deg[i]}
	}
	return out
}

// interpolate evaluates an integer-level curve at a fractional energy
// level with clamping and linear interpolation. energyFrac is in [0, 1];
// level 1 corresponds to fraction 0.01 and level 100 to 1.0. Below level
// 1 the curve is extended flat (anxiety at level 1 is effectively the
// "about to die" ceiling).
func interpolate(energyFrac float64, at func(level int) float64) float64 {
	levelF := energyFrac * Levels
	if levelF <= 1 {
		return at(1)
	}
	if levelF >= Levels {
		return at(Levels)
	}
	lo := int(math.Floor(levelF))
	hi := lo + 1
	frac := levelF - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// Canonical is a closed-form anxiety model calibrated to the published
// Fig. 2: phi(1)=0, phi(0)=1, convex on [0.2, 1], concave on [0, 0.2],
// and a visibly steeper slope just below the 20% warning level.
type Canonical struct {
	// AnxietyAtWarning is phi at the 20% warning level; the published
	// curve passes through roughly 0.72 there.
	AnxietyAtWarning float64
	// ConvexPower shapes the decay above the warning level (>1 = convex).
	ConvexPower float64
	// ConcavePower shapes the rise below the warning level (>1 keeps the
	// segment concave in energy).
	ConcavePower float64
}

// NewCanonical returns the calibration used throughout the reproduction.
func NewCanonical() *Canonical {
	return &Canonical{AnxietyAtWarning: 0.72, ConvexPower: 2.2, ConcavePower: 1.6}
}

// Anxiety implements Model.
func (m *Canonical) Anxiety(energyFrac float64) float64 {
	e := clamp01(energyFrac)
	w := float64(WarningLevel) / Levels
	if e >= w {
		// Convex decay from AnxietyAtWarning at e=w to 0 at e=1.
		return m.AnxietyAtWarning * unitPow((1-e)/(1-w), m.ConvexPower)
	}
	// Concave rise from AnxietyAtWarning at e=w to 1 at e=0.
	return 1 - float64((1-m.AnxietyAtWarning)*unitPow(e/w, m.ConcavePower))
}

// unitPow is math.Pow(x, y), bit for bit, without pow's special-case
// ladder for the inputs φ gives it: for x in [2⁻¹⁰⁰, 1) and a
// non-integer y in (0, 4) other than ½ it takes the generic steps of
// $GOROOT/src/math/pow.go itself — split y with Modf, move a fraction
// above ½ into the integer part, x^yf as Exp(yf·Log(x)), then x^yi
// multiplied in in the order of pow's square-and-multiply loop. pow
// runs that loop on Frexp mantissas and scales by the exponents at the
// end; here every product is a normal float (x^yi ≥ 2⁻⁴⁰⁰), so scaling
// by a power of two is exact and the products round alike. Any other
// input, and every input on s390x (whose math.Pow is assembly), goes to
// math.Pow.
func unitPow(x, y float64) float64 {
	if !(x >= 0x1p-100 && x < 1 && y > 0 && y < 4 && y != 0.5) || runtime.GOARCH == "s390x" {
		return math.Pow(x, y)
	}
	yi, yf := math.Modf(y)
	if yf == 0 {
		return math.Pow(x, y)
	}
	if yf > 0.5 {
		yf--
		yi++
	}
	a := math.Exp(yf * math.Log(x))
	switch yi {
	case 1:
		return a * x
	case 2:
		return a * (x * x)
	case 3:
		return (a * x) * (x * x)
	case 4:
		xx := x * x
		return a * (xx * xx)
	}
	return a
}

// Linear is the paper's dashed straight-line reference: anxiety falls
// linearly from 1 at an empty battery to 0 at a full one.
type Linear struct{}

// Anxiety implements Model.
func (Linear) Anxiety(energyFrac float64) float64 {
	return 1 - clamp01(energyFrac)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Rescaled personalises a population anxiety model for one user: the
// battery axis is stretched so the model's sharp-increase region lands
// at the user's own worry threshold instead of the population's 20%
// warning level. A user who starts worrying at 40% battery feels, at
// 40%, what the average user feels at 20%.
type Rescaled struct {
	// Base is the population model (typically the survey curve).
	Base Model
	// Warning is the user's personal worry threshold in (0, 1].
	Warning float64
}

// NewRescaled validates and builds a personalised model.
func NewRescaled(base Model, warning float64) (*Rescaled, error) {
	if base == nil {
		return nil, fmt.Errorf("anxiety: nil base model")
	}
	if warning <= 0 || warning > 1 {
		return nil, fmt.Errorf("anxiety: personal warning %v outside (0, 1]", warning)
	}
	return &Rescaled{Base: base, Warning: warning}, nil
}

// Anxiety implements Model.
func (r *Rescaled) Anxiety(energyFrac float64) float64 {
	popWarning := float64(WarningLevel) / Levels
	return r.Base.Anxiety(clamp01(energyFrac) * popWarning / r.Warning)
}

// Reduction returns the relative anxiety reduction achieved by moving a
// population from the baseline anxiety total to the treated total:
// (base - treated) / base. It returns 0 when the baseline is zero.
func Reduction(base, treated float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - treated) / base
}
