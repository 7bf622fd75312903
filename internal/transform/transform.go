// Package transform implements the energy-saving image/video content
// transforming techniques LPVS runs at the edge (paper section II-B,
// Table I): backlight scaling with luminance compensation for LCD
// panels, and color transforming / darkening / pixel-level techniques
// for OLED panels.
//
// Each strategy carries the power-saving range published in Table I of
// the paper. The realised saving of a particular chunk depends on its
// content (a dark scene leaves a backlight scaler more headroom; a blue-
// heavy scene gives a color transformer more to harvest) and on the
// distortion tolerance the service grants, and therefore fluctuates
// chunk to chunk — which is precisely why the scheduler has to learn the
// per-device reduction ratio gamma_n with Bayesian inference instead of
// assuming it.
package transform

import (
	"fmt"

	"lpvs/internal/display"
	"lpvs/internal/stats"
)

// Tolerance is the distortion budget, in [0, 1], that every transform
// the daemon serves and the emulator plays is granted.
const Tolerance = 0.7

// Result describes a transformed chunk: the compensated content
// statistics, the backlight multiplier (1 for OLED strategies), and the
// estimated perceptual distortion.
type Result struct {
	Stats display.ContentStats
	// BrightnessScale multiplies the device's brightness setting; only
	// LCD backlight strategies set it below 1.
	BrightnessScale float64
	// QualityLoss estimates perceptual distortion in [0, 1].
	QualityLoss float64
}

// Strategy is one content-transforming technique from Table I.
type Strategy struct {
	// Name is the strategy's short name from the literature.
	Name string
	// Target is the display technology the strategy applies to.
	Target display.Type
	// SavingLo and SavingHi are the published power-saving bounds
	// (fractions of display power) from Table I.
	SavingLo, SavingHi float64
	// qualityCost scales distortion per unit of saving; aggressive
	// strategies distort more.
	qualityCost float64
}

// catalogue is the Table I strategy review, in the paper's order.
var catalogue = [...]Strategy{
	// LCD strategies.
	{Name: "quality-adapted backlight scaling", Target: display.LCD, SavingLo: 0.27, SavingHi: 0.42, qualityCost: 0.25},
	{Name: "dynamic backlight scaling", Target: display.LCD, SavingLo: 0.15, SavingHi: 0.49, qualityCost: 0.30},
	{Name: "dynamic backlight luminance scaling", Target: display.LCD, SavingLo: 0.20, SavingHi: 0.80, qualityCost: 0.45},
	{Name: "brightness & contrast scaling", Target: display.LCD, SavingLo: 0.10, SavingHi: 0.50, qualityCost: 0.35},
	{Name: "luminance dimming & compensation", Target: display.LCD, SavingLo: 0.20, SavingHi: 0.38, qualityCost: 0.22},
	// OLED strategies.
	{Name: "color and shape transforming", Target: display.OLED, SavingLo: 0.25, SavingHi: 0.66, qualityCost: 0.30},
	{Name: "color transforming and darkening", Target: display.OLED, SavingLo: 0.15, SavingHi: 0.60, qualityCost: 0.35},
	{Name: "color transforming with constraints", Target: display.OLED, SavingLo: 0.20, SavingHi: 0.64, qualityCost: 0.28},
	{Name: "pixel disabling & resolution scaling", Target: display.OLED, SavingLo: 0.08, SavingHi: 0.26, qualityCost: 0.40},
	{Name: "image pixel scaling", Target: display.OLED, SavingLo: 0.38, SavingHi: 0.42, qualityCost: 0.30},
	{Name: "redundant subpixel shutoff", Target: display.OLED, SavingLo: 0.05, SavingHi: 0.21, qualityCost: 0.15},
}

// Catalogue returns the Table I strategy review. The slice is freshly
// allocated; callers may reorder it.
func Catalogue() []Strategy { return append([]Strategy(nil), catalogue[:]...) }

// Default returns the reproduction's default strategy per display type:
// the backlight luminance scaler for LCD and constrained color
// transforming for OLED — the techniques the paper cites for its power
// estimation ([20] and [17]/[12]). It copies one entry and builds no
// catalogue: a transformed chunk read calls it.
func Default(t display.Type) Strategy {
	if t == display.LCD {
		return catalogue[2] // dynamic backlight luminance scaling
	}
	return catalogue[7] // color transforming with constraints
}

// AverageBounds returns the catalogue-wide mean of the published saving
// bounds; the paper reports 13%-49% and seeds the Bayesian gamma prior
// with the midpoint.
func AverageBounds() (lo, hi float64) {
	for _, s := range catalogue {
		lo += s.SavingLo
		hi += s.SavingHi
	}
	n := float64(len(catalogue))
	return lo / n, hi / n
}

// headroom returns how much of the strategy's saving range the given
// content exposes, in [0, 1]. Dark scenes leave an LCD backlight scaler
// room to dim; blue-/white-heavy scenes give OLED color transforms more
// emission to harvest.
func (s Strategy) headroom(c display.ContentStats) float64 {
	switch s.Target {
	case display.LCD:
		return stats.Clamp(1-c.PeakLuma, 0, 1)
	default:
		// Emission-weighted brightness: what an OLED panel is spending.
		emission := (float64(1.5*c.MeanR) + float64(1.0*c.MeanG) + float64(2.0*c.MeanB)) / 4.5
		return stats.Clamp(0.3+emission, 0, 1)
	}
}

// PlannedSaving returns the display-power saving fraction the strategy
// would achieve on the given content at the given distortion tolerance
// (both in [0, 1]). The result always lies within the published
// [SavingLo, SavingHi] range of Table I.
func (s Strategy) PlannedSaving(c display.ContentStats, tolerance float64) float64 {
	tol := stats.Clamp(tolerance, 0, 1)
	return s.SavingLo + float64((s.SavingHi-s.SavingLo)*s.headroom(c)*tol)
}

// Apply transforms a chunk's content for the given display spec,
// targeting the PlannedSaving for this content and tolerance. It returns
// the transformed content statistics, the backlight multiplier, and the
// estimated quality loss.
func (s Strategy) Apply(spec display.Spec, c display.ContentStats, tolerance float64) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if spec.Type != s.Target {
		return Result{}, fmt.Errorf("transform: strategy %q targets %v, got %v display", s.Name, s.Target, spec.Type)
	}
	saving := s.PlannedSaving(c, tolerance)
	res := Result{Stats: c, BrightnessScale: 1, QualityLoss: stats.Clamp(saving*s.qualityCost, 0, 1)}
	before, err := display.PlaybackPower(spec, c)
	if err != nil {
		return Result{}, err
	}
	target := (1 - saving) * before

	switch s.Target {
	case display.LCD:
		res.BrightnessScale = lcdScaleForTarget(spec, target)
		// Luminance compensation: pixel values are boosted to offset the
		// dimmer backlight, clipping highlights (that clipping is the
		// quality loss already accounted).
		boost := 1.0
		if res.BrightnessScale > 0 {
			boost = 1 / res.BrightnessScale
		}
		res.Stats.MeanLuma = stats.Clamp(c.MeanLuma*boost, 0, 1)
		res.Stats.PeakLuma = stats.Clamp(c.PeakLuma*boost, res.Stats.MeanLuma, 1)
	case display.OLED:
		scale := oledScaleForTarget(spec, c, target)
		// Color transforms shave the expensive blue channel hardest and
		// the cheap green channel least, preserving perceived hue as far
		// as the constraint allows.
		res.Stats.MeanR = stats.Clamp(c.MeanR*scale, 0, 1)
		res.Stats.MeanG = stats.Clamp(c.MeanG*stats.Clamp(scale*1.05, 0, 1), 0, 1)
		res.Stats.MeanB = stats.Clamp(c.MeanB*scale*0.92, 0, 1)
		res.Stats.MeanLuma = stats.Clamp(c.MeanLuma*scale, 0, 1)
		res.Stats.PeakLuma = stats.Clamp(c.PeakLuma*scale, res.Stats.MeanLuma, 1)
	}
	return res, nil
}

// lcdScaleForTarget finds the backlight multiplier reaching the target
// display power on an LCD spec.
func lcdScaleForTarget(spec display.Spec, target float64) float64 {
	// Power = scale*(maxW*brightness*beta + base); invert for beta given
	// the spec's brightness. Use the model via two probe evaluations to
	// avoid duplicating constants.
	dark := spec
	dark.Brightness = 0
	probe := display.ContentStats{} // content-independent for LCD
	base := display.MustPlaybackPower(dark, probe)
	full := spec
	full.Brightness = spec.Brightness
	cur := display.MustPlaybackPower(full, probe)
	span := cur - base
	if span <= 0 {
		return 1
	}
	beta := (target - base) / span
	return stats.Clamp(beta, 0, 1)
}

// oledScaleForTarget finds the uniform channel multiplier reaching the
// target display power on an OLED spec. Emission power is linear in the
// channel means, so the inversion is a single division against the
// content-dependent span.
func oledScaleForTarget(spec display.Spec, c display.ContentStats, target float64) float64 {
	off := display.ContentStats{}
	base := display.MustPlaybackPower(spec, off)
	cur := display.MustPlaybackPower(spec, c)
	span := cur - base
	if span <= 0 {
		return 1
	}
	scale := (target - base) / span
	return stats.Clamp(scale, 0, 1)
}

// RealizedSaving measures the actual display-power saving of a transform
// result against the untransformed content on the same spec. This is the
// per-chunk observation that feeds the Bayesian gamma estimator: the
// scheduler plans with PlannedSaving but only learns RealizedSaving
// after the chunk has played.
func RealizedSaving(spec display.Spec, before display.ContentStats, res Result) (float64, error) {
	pBefore, err := display.PlaybackPower(spec, before)
	if err != nil {
		return 0, err
	}
	after := spec
	after.Brightness = stats.Clamp(spec.Brightness*res.BrightnessScale, 0, 1)
	pAfter, err := display.PlaybackPower(after, res.Stats)
	if err != nil {
		return 0, err
	}
	if pBefore <= 0 {
		return 0, nil
	}
	return stats.Clamp((pBefore-pAfter)/pBefore, 0, 1), nil
}
