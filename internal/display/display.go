// Package display models smartphone display power consumption during
// video playback, following the models the paper plugs in: the dynamic
// backlight-luminance-scaling (DLS) model of Chang et al. for LCD
// panels, and the per-RGB-channel emission model popularised by Crayon
// (Stanley-Marbell et al.) for OLED panels, in which blue sub-pixels
// cost roughly twice the power of green and red sits in between.
//
// The package also reproduces the per-component playback power breakdown
// of the paper's Fig. 1 (data from Carroll & Heiser for the LCD phone,
// OLED display power estimated by published LCD/OLED comparisons).
package display

import "fmt"

// Type identifies the display technology.
type Type int

// Display technologies covered by the paper.
const (
	LCD Type = iota
	OLED
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case LCD:
		return "LCD"
	case OLED:
		return "OLED"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Resolution is a display pixel grid.
type Resolution struct {
	Width  int
	Height int
}

// Pixels returns the pixel count.
func (r Resolution) Pixels() int { return r.Width * r.Height }

// String implements fmt.Stringer.
func (r Resolution) String() string { return fmt.Sprintf("%dx%d", r.Width, r.Height) }

// Common mobile resolutions, used when assigning random display specs to
// emulated devices (the Twitch trace does not carry device information).
var (
	Res480p  = Resolution{854, 480}
	Res720p  = Resolution{1280, 720}
	Res1080p = Resolution{1920, 1080}
	Res1440p = Resolution{2560, 1440}
)

// Spec describes one device's display.
type Spec struct {
	Type       Type
	Resolution Resolution
	// DiagonalInch is the panel diagonal; power scales with area.
	DiagonalInch float64
	// Brightness is the user brightness setting in [0, 1].
	Brightness float64
}

// Validate reports whether the spec is physically meaningful.
func (s Spec) Validate() error {
	if s.Resolution.Width <= 0 || s.Resolution.Height <= 0 {
		return fmt.Errorf("display: non-positive resolution %v", s.Resolution)
	}
	if s.DiagonalInch <= 0 || s.DiagonalInch > 20 {
		return fmt.Errorf("display: implausible diagonal %.1f inch", s.DiagonalInch)
	}
	if s.Brightness < 0 || s.Brightness > 1 {
		return fmt.Errorf("display: brightness %v outside [0, 1]", s.Brightness)
	}
	if s.Type != LCD && s.Type != OLED {
		return fmt.Errorf("display: unknown type %v", s.Type)
	}
	return nil
}

// ContentStats summarises the visual content of one video chunk with the
// aggregates the power models consume. All values are normalised to
// [0, 1]. Server-side power estimation works from these statistics, not
// from raw frames — exactly what an edge service can compute during
// ingest.
type ContentStats struct {
	// MeanLuma is the average relative luminance of the chunk's frames.
	MeanLuma float64
	// PeakLuma is a high percentile (e.g. p95) of the frame luminance;
	// backlight scaling is limited by it.
	PeakLuma float64
	// MeanR, MeanG, MeanB are the average linear-light emission levels
	// of the three sub-pixel channels (already gamma-decoded, so they
	// are proportional to emitted optical power).
	MeanR, MeanG, MeanB float64
}

// Validate reports whether the statistics are self-consistent.
func (c ContentStats) Validate() error {
	for _, v := range []float64{c.MeanLuma, c.PeakLuma, c.MeanR, c.MeanG, c.MeanB} {
		if v < 0 || v > 1 {
			return fmt.Errorf("display: content statistic %v outside [0, 1]", v)
		}
	}
	if c.PeakLuma < c.MeanLuma {
		return fmt.Errorf("display: peak luma %v below mean luma %v", c.PeakLuma, c.MeanLuma)
	}
	return nil
}

// Reference panel constants. Power scales with panel area relative to a
// 6-inch reference device.
const (
	refDiagonalInch = 6.0

	// LCD: maximum backlight power and content-independent panel
	// electronics power for the reference panel (Carroll & Heiser
	// measured ~0.4 W backlight at half brightness plus ~75 mW panel on
	// a much smaller panel; scaled to a modern 6" 1080p phone).
	lcdBacklightMaxW = 1.10
	lcdPanelBaseW    = 0.18

	// OLED: emission power of the reference panel showing a full-screen
	// 100% white at full brightness, split across channels with the
	// blue:red:green = 2.0 : 1.5 : 1.0 efficiency ratios reported by
	// Crayon, plus driver electronics.
	oledFullWhiteW = 1.35
	oledDriverW    = 0.15

	// Per-channel weight fractions for OLED white: w_b = 2 w_g,
	// w_r = 1.5 w_g, normalised to sum to 1.
	oledWeightG = 1.0 / 4.5
	oledWeightR = 1.5 / 4.5
	oledWeightB = 2.0 / 4.5
)

// areaScale returns the panel-area factor relative to the reference
// diagonal (power grows with emitting area).
func areaScale(diagonalInch float64) float64 {
	r := diagonalInch / refDiagonalInch
	return r * r
}

// resolutionScale captures the mild growth of drive power with pixel
// count (row/column drivers, not emission): +10% per doubling over
// 1080p, floored below.
func resolutionScale(r Resolution) float64 {
	ref := float64(Res1080p.Pixels())
	ratio := float64(r.Pixels()) / ref
	if ratio <= 1 {
		return 0.9 + float64(0.1*ratio)
	}
	return 1 + float64(0.1*(ratio-1))
}

// PlaybackPower returns the display power in watts while the panel shows
// content with the given statistics on the given spec.
//
// LCD: power is dominated by the backlight, which depends on the user
// brightness setting but not on the content; the panel electronics add a
// constant. OLED: power is proportional to the emitted light, i.e. the
// weighted per-channel content means times the brightness setting.
func PlaybackPower(s Spec, c ContentStats) (float64, error) {
	p, err := s.Panel()
	if err != nil {
		return 0, err
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	return p.Power(c), nil
}

// Panel is a Spec that passed Validate, reduced to what the power model
// reads per chunk. It is the checked-once entry for callers that price
// many chunks on one display (the scheduler's compacting loop prices
// every chunk of a window for every device): the spec is validated and
// its area x resolution scale computed once, and Power validates
// nothing. PlaybackPower is Panel + Power with the content checked, so
// both entries evaluate one expression and agree bit for bit.
type Panel struct {
	typ        Type
	scale      float64
	brightness float64
}

// Panel validates the spec and reduces it to its power-model factors.
func (s Spec) Panel() (Panel, error) {
	if err := s.Validate(); err != nil {
		return Panel{}, err
	}
	return Panel{
		typ:        s.Type,
		scale:      areaScale(s.DiagonalInch) * resolutionScale(s.Resolution),
		brightness: s.Brightness,
	}, nil
}

// Power is PlaybackPower without the checks: the caller holds a Panel
// (so the spec is valid) and has validated c itself.
func (p Panel) Power(c ContentStats) float64 {
	if p.typ == LCD {
		return p.scale * (float64(lcdBacklightMaxW*p.brightness) + lcdPanelBaseW)
	}
	emission := float64(oledWeightR*c.MeanR) + float64(oledWeightG*c.MeanG) + float64(oledWeightB*c.MeanB)
	return p.scale * (float64(oledFullWhiteW*p.brightness*emission) + oledDriverW)
}

// MustPlaybackPower is PlaybackPower for specs and stats already known
// to be valid; it panics on error.
func MustPlaybackPower(s Spec, c ContentStats) float64 {
	p, err := PlaybackPower(s, c)
	if err != nil {
		panic(err)
	}
	return p
}
