// Package frame provides the per-pixel image substrate beneath the
// content-transforming techniques: the paper stresses that the Table I
// strategies are "pixel-wise, i.e. they operate on a per-pixel basis",
// which is exactly why they are too expensive for phones and get
// offloaded to the edge.
//
// A Frame is a small linear-light RGB raster standing in for a chunk's
// keyframe (real pipelines compute transform parameters from decoded
// keyframes or thumbnails, not full-resolution video). The package
// offers per-genre synthetic generation with spatially correlated
// texture, aggregate statistics (feeding the display power models), and
// the two per-pixel transforms the reproduction uses: backlight scaling
// with luminance compensation for LCD and channel-scaled color
// transforming for OLED, both reporting the clipping/distortion they
// introduce.
package frame

import (
	"fmt"
	"math"

	"lpvs/internal/display"
	"lpvs/internal/stats"
)

// Default keyframe raster: a 48x27 thumbnail (16:9) is plenty to drive
// transform parameter estimation.
const (
	DefaultWidth  = 48
	DefaultHeight = 27
)

// Frame is a linear-light RGB raster with values in [0, 1].
type Frame struct {
	W, H    int
	R, G, B []float64 // row-major, length W*H
}

// New allocates a black frame.
func New(w, h int) (*Frame, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("frame: dimensions %dx%d", w, h)
	}
	n := w * h
	return &Frame{W: w, H: h, R: make([]float64, n), G: make([]float64, n), B: make([]float64, n)}, nil
}

// Validate reports whether the raster is well-formed.
func (f *Frame) Validate() error {
	if f.W <= 0 || f.H <= 0 {
		return fmt.Errorf("frame: dimensions %dx%d", f.W, f.H)
	}
	n := f.W * f.H
	if len(f.R) != n || len(f.G) != n || len(f.B) != n {
		return fmt.Errorf("frame: plane sizes %d/%d/%d, want %d", len(f.R), len(f.G), len(f.B), n)
	}
	for i := 0; i < n; i++ {
		for _, v := range [3]float64{f.R[i], f.G[i], f.B[i]} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return fmt.Errorf("frame: pixel %d value %v outside [0, 1]", i, v)
			}
		}
	}
	return nil
}

// Clone deep-copies the frame.
func (f *Frame) Clone() *Frame {
	g := &Frame{W: f.W, H: f.H,
		R: make([]float64, len(f.R)),
		G: make([]float64, len(f.G)),
		B: make([]float64, len(f.B)),
	}
	copy(g.R, f.R)
	copy(g.G, f.G)
	copy(g.B, f.B)
	return g
}

// Luma returns the Rec. 709 relative luminance of pixel i.
func (f *Frame) Luma(i int) float64 {
	return float64(0.2126*f.R[i]) + float64(0.7152*f.G[i]) + float64(0.0722*f.B[i])
}

// Stats aggregates the frame into the content statistics the display
// power models and the scheduler consume.
func (f *Frame) Stats() display.ContentStats {
	n := len(f.R)
	if n == 0 {
		return display.ContentStats{}
	}
	var sumR, sumG, sumB float64
	lumas := make([]float64, n)
	for i := 0; i < n; i++ {
		sumR += f.R[i]
		sumG += f.G[i]
		sumB += f.B[i]
		lumas[i] = f.Luma(i)
	}
	cs := display.ContentStats{
		MeanR:    sumR / float64(n),
		MeanG:    sumG / float64(n),
		MeanB:    sumB / float64(n),
		MeanLuma: stats.Mean(lumas),
	}
	cs.PeakLuma = stats.Percentile(lumas, 95)
	if cs.PeakLuma < cs.MeanLuma {
		cs.PeakLuma = cs.MeanLuma
	}
	return cs
}

// GenConfig parameterises synthetic keyframe generation.
type GenConfig struct {
	W, H int
	// BaseLuma is the scene's average luminance target.
	BaseLuma float64
	// Texture is the amplitude of the spatial variation.
	Texture float64
	// CastR, CastG, CastB tint the scene (multipliers around 1).
	CastR, CastG, CastB float64
	// HighlightP is the probability a cell belongs to a bright highlight
	// (HUD element, stage light, sky).
	HighlightP float64
}

// DefaultGenConfig returns a neutral mid-brightness scene.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		W: DefaultWidth, H: DefaultHeight,
		BaseLuma: 0.35, Texture: 0.18,
		CastR: 1, CastG: 1, CastB: 1,
		HighlightP: 0.04,
	}
}

// Generate synthesises a frame with spatially correlated texture: a
// coarse value-noise grid is bilinearly upsampled so neighbouring pixels
// look alike, then tinted and sprinkled with highlights.
func Generate(rng *stats.RNG, cfg GenConfig) (*Frame, error) {
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("frame: dimensions %dx%d", cfg.W, cfg.H)
	}
	if cfg.BaseLuma < 0 || cfg.BaseLuma > 1 {
		return nil, fmt.Errorf("frame: base luma %v", cfg.BaseLuma)
	}
	if cfg.Texture < 0 {
		return nil, fmt.Errorf("frame: negative texture")
	}
	f, err := New(cfg.W, cfg.H)
	if err != nil {
		return nil, err
	}

	// Coarse noise lattice (1/6 resolution), bilinear upsample.
	cw, ch := cfg.W/6+2, cfg.H/6+2
	lattice := make([]float64, cw*ch)
	for i := range lattice {
		lattice[i] = rng.Normal(0, 1)
	}
	sample := func(x, y float64) float64 {
		gx, gy := float64(x*float64(cw-1)), float64(y*float64(ch-1))
		x0, y0 := int(gx), int(gy)
		x1, y1 := x0+1, y0+1
		if x1 >= cw {
			x1 = cw - 1
		}
		if y1 >= ch {
			y1 = ch - 1
		}
		fx, fy := gx-float64(x0), gy-float64(y0)
		top := float64(lattice[y0*cw+x0]*(1-fx)) + float64(lattice[y0*cw+x1]*fx)
		bot := float64(lattice[y1*cw+x0]*(1-fx)) + float64(lattice[y1*cw+x1]*fx)
		return float64(top*(1-fy)) + float64(bot*fy)
	}

	for y := 0; y < cfg.H; y++ {
		for x := 0; x < cfg.W; x++ {
			i := y*cfg.W + x
			luma := stats.Clamp(cfg.BaseLuma+float64(cfg.Texture*sample(
				float64(x)/float64(cfg.W-1), float64(y)/float64(cfg.H-1))), 0.01, 0.98)
			if rng.Bool(cfg.HighlightP) {
				luma = stats.Clamp(luma+rng.Uniform(0.3, 0.6), 0, 1)
			}
			// Distribute luma across channels under the tint, keeping the
			// Rec. 709 combination equal to the target luma.
			r := stats.Clamp(luma*cfg.CastR*rng.Normal(1, 0.04), 0, 1)
			g := stats.Clamp(luma*cfg.CastG*rng.Normal(1, 0.04), 0, 1)
			b := stats.Clamp(luma*cfg.CastB*rng.Normal(1, 0.04), 0, 1)
			f.R[i], f.G[i], f.B[i] = r, g, b
		}
	}
	return f, nil
}

// LCDResult is the outcome of per-pixel backlight scaling.
type LCDResult struct {
	Frame *Frame
	// BacklightScale multiplies the panel brightness (< 1 saves power).
	BacklightScale float64
	// ClippedFrac is the fraction of pixels whose compensated luminance
	// clipped at white — the distortion the scaler introduced.
	ClippedFrac float64
}

// ScaleBacklight performs dynamic backlight luminance scaling on a
// frame: the backlight dims to `scale`, and every pixel is boosted by
// 1/scale so perceived luminance is preserved except where it clips.
// This is the per-pixel operation behind the Table I LCD strategies.
func ScaleBacklight(f *Frame, scale float64) (LCDResult, error) {
	if err := f.Validate(); err != nil {
		return LCDResult{}, err
	}
	if scale <= 0 || scale > 1 {
		return LCDResult{}, fmt.Errorf("frame: backlight scale %v outside (0, 1]", scale)
	}
	out := f.Clone()
	clipped := 0
	boost := 1 / scale
	for i := range out.R {
		r, g, b := f.R[i]*boost, f.G[i]*boost, f.B[i]*boost
		if r > 1 || g > 1 || b > 1 {
			clipped++
		}
		out.R[i] = stats.Clamp(r, 0, 1)
		out.G[i] = stats.Clamp(g, 0, 1)
		out.B[i] = stats.Clamp(b, 0, 1)
	}
	return LCDResult{
		Frame:          out,
		BacklightScale: scale,
		ClippedFrac:    float64(clipped) / float64(len(out.R)),
	}, nil
}

// BacklightForClipBudget finds the lowest backlight scale whose
// compensation clips at most budget of the pixels — the
// "quality-adapted" parameter search the LCD strategies run per chunk.
func BacklightForClipBudget(f *Frame, budget float64) (float64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	if budget < 0 || budget > 1 {
		return 0, fmt.Errorf("frame: clip budget %v outside [0, 1]", budget)
	}
	// The needed scale for pixel i is its max channel value; scale s
	// clips exactly the pixels with maxChannel > s. Choose the
	// (1-budget) quantile of max-channel values.
	maxes := make([]float64, len(f.R))
	for i := range f.R {
		m := f.R[i]
		if f.G[i] > m {
			m = f.G[i]
		}
		if f.B[i] > m {
			m = f.B[i]
		}
		maxes[i] = m
	}
	s := stats.Percentile(maxes, (1-budget)*100)
	return stats.Clamp(s, 0.05, 1), nil
}

// OLEDResult is the outcome of per-pixel color transforming.
type OLEDResult struct {
	Frame *Frame
	// MeanShift is the average per-pixel color displacement (distortion
	// proxy).
	MeanShift float64
}

// TransformColors performs per-pixel channel scaling on an OLED frame:
// each channel is multiplied by its factor (blue hardest — it is the
// most power-hungry emitter), with factors in (0, 1].
func TransformColors(f *Frame, sr, sg, sb float64) (OLEDResult, error) {
	if err := f.Validate(); err != nil {
		return OLEDResult{}, err
	}
	for _, s := range [3]float64{sr, sg, sb} {
		if s <= 0 || s > 1 {
			return OLEDResult{}, fmt.Errorf("frame: channel scale %v outside (0, 1]", s)
		}
	}
	out := f.Clone()
	shift := 0.0
	for i := range out.R {
		nr, ng, nb := f.R[i]*sr, f.G[i]*sg, f.B[i]*sb
		shift += math.Abs(nr-f.R[i]) + math.Abs(ng-f.G[i]) + math.Abs(nb-f.B[i])
		out.R[i], out.G[i], out.B[i] = nr, ng, nb
	}
	return OLEDResult{Frame: out, MeanShift: shift / float64(3*len(out.R))}, nil
}

// PowerOn evaluates the display power of showing the frame on the spec,
// via the aggregate power model over the frame's exact statistics.
func PowerOn(spec display.Spec, f *Frame) (float64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	return display.PlaybackPower(spec, f.Stats())
}
