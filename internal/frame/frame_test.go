package frame

import (
	"math"
	"testing"
	"testing/quick"

	"lpvs/internal/display"
	"lpvs/internal/stats"
)

func genFrame(tb testing.TB, cfg GenConfig) *Frame {
	tb.Helper()
	f, err := Generate(stats.NewRNG(1), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func oledSpec() display.Spec {
	return display.Spec{Type: display.OLED, Resolution: display.Res1080p, DiagonalInch: 6, Brightness: 0.6}
}

func TestNewAndValidate(t *testing.T) {
	f, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(0, 3); err == nil {
		t.Fatal("zero width accepted")
	}
	bad := f.Clone()
	bad.R[0] = 2
	if bad.Validate() == nil {
		t.Fatal("out-of-range pixel accepted")
	}
	bad = f.Clone()
	bad.G = bad.G[:3]
	if bad.Validate() == nil {
		t.Fatal("short plane accepted")
	}
}

func TestGenerateValid(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.W != DefaultWidth || f.H != DefaultHeight {
		t.Fatalf("dimensions %dx%d", f.W, f.H)
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := stats.NewRNG(1)
	bad := DefaultGenConfig()
	bad.W = 0
	if _, err := Generate(rng, bad); err == nil {
		t.Fatal("zero width accepted")
	}
	bad = DefaultGenConfig()
	bad.BaseLuma = 2
	if _, err := Generate(rng, bad); err == nil {
		t.Fatal("bad base luma accepted")
	}
	bad = DefaultGenConfig()
	bad.Texture = -1
	if _, err := Generate(rng, bad); err == nil {
		t.Fatal("negative texture accepted")
	}
}

func TestGenerateTracksBaseLuma(t *testing.T) {
	dark := DefaultGenConfig()
	dark.BaseLuma = 0.15
	bright := DefaultGenConfig()
	bright.BaseLuma = 0.6
	fd := genFrame(t, dark)
	fb := genFrame(t, bright)
	if fd.Stats().MeanLuma >= fb.Stats().MeanLuma {
		t.Fatal("base luma not respected")
	}
	if math.Abs(fd.Stats().MeanLuma-0.15) > 0.08 {
		t.Fatalf("dark mean luma %v", fd.Stats().MeanLuma)
	}
}

func TestGenerateSpatialCorrelation(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	// Horizontal neighbours should be closer in luma than random pairs.
	adj, rnd := 0.0, 0.0
	n := 0
	for y := 0; y < f.H; y++ {
		for x := 1; x < f.W; x++ {
			i := y*f.W + x
			adj += math.Abs(f.Luma(i) - f.Luma(i-1))
			j := ((i * 131) + 7) % (f.W * f.H)
			rnd += math.Abs(f.Luma(i) - f.Luma(j))
			n++
		}
	}
	if adj >= rnd {
		t.Fatalf("no spatial correlation: adjacent %v vs random %v", adj/float64(n), rnd/float64(n))
	}
}

func TestStatsValid(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	if err := f.Stats().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaleBacklightPreservesAppearance(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	res, err := ScaleBacklight(f, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// Perceived luminance = pixel luma x backlight. Away from clipping it
	// must match the original.
	worst := 0.0
	for i := range f.R {
		if res.Frame.R[i] >= 1 || res.Frame.G[i] >= 1 || res.Frame.B[i] >= 1 {
			continue // clipped pixel
		}
		d := math.Abs(res.Frame.Luma(i)*res.BacklightScale - f.Luma(i))
		if d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Fatalf("compensation error %v on unclipped pixels", worst)
	}
}

func TestScaleBacklightClippingMonotone(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	prev := -1.0
	for _, s := range []float64{1, 0.8, 0.6, 0.4, 0.2} {
		res, err := ScaleBacklight(f, s)
		if err != nil {
			t.Fatal(err)
		}
		if res.ClippedFrac < prev {
			t.Fatalf("clipping not monotone at scale %v", s)
		}
		prev = res.ClippedFrac
	}
	// Full backlight clips nothing.
	res, _ := ScaleBacklight(f, 1)
	if res.ClippedFrac != 0 {
		t.Fatalf("scale 1 clipped %v", res.ClippedFrac)
	}
}

func TestScaleBacklightErrors(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	for _, s := range []float64{0, -0.5, 1.5} {
		if _, err := ScaleBacklight(f, s); err == nil {
			t.Fatalf("scale %v accepted", s)
		}
	}
}

func TestBacklightForClipBudget(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	s0, err := BacklightForClipBudget(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	s5, err := BacklightForClipBudget(f, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if s5 > s0 {
		t.Fatalf("looser budget raised the scale: %v vs %v", s5, s0)
	}
	// The chosen scale must actually respect the budget.
	res, err := ScaleBacklight(f, s5)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClippedFrac > 0.05+2.0/float64(f.W*f.H) {
		t.Fatalf("budget 0.05 violated: clipped %v", res.ClippedFrac)
	}
	if _, err := BacklightForClipBudget(f, 2); err == nil {
		t.Fatal("bad budget accepted")
	}
}

func TestTransformColorsSavesPower(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	res, err := TransformColors(f, 0.95, 1, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	spec := oledSpec()
	before, err := PowerOn(spec, f)
	if err != nil {
		t.Fatal(err)
	}
	after, err := PowerOn(spec, res.Frame)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("color transform saved nothing: %v -> %v", before, after)
	}
	if res.MeanShift <= 0 {
		t.Fatal("no recorded distortion")
	}
}

func TestTransformColorsIdentity(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	res, err := TransformColors(f, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanShift != 0 {
		t.Fatalf("identity transform shifted %v", res.MeanShift)
	}
}

func TestTransformColorsErrors(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	if _, err := TransformColors(f, 0, 1, 1); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := TransformColors(f, 1, 1.2, 1); err == nil {
		t.Fatal("over-unity scale accepted")
	}
}

func TestFrameStatsMatchAggregateModel(t *testing.T) {
	// The per-pixel path and the aggregate ContentStats path must agree:
	// power from frame stats is by construction the aggregate model, and
	// a channel-scaled frame's power must track the analytically scaled
	// emission within tolerance.
	f := genFrame(t, DefaultGenConfig())
	spec := oledSpec()
	before, err := PowerOn(spec, f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TransformColors(f, 0.8, 0.8, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	after, err := PowerOn(spec, res.Frame)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform 0.8 scaling scales emission by 0.8; driver power is the
	// unscaled remainder.
	dark := display.ContentStats{}
	base, err := display.PlaybackPower(spec, dark)
	if err != nil {
		t.Fatal(err)
	}
	wantAfter := base + (before-base)*0.8
	if math.Abs(after-wantAfter) > 1e-9 {
		t.Fatalf("per-pixel power %v, analytic %v", after, wantAfter)
	}
}

func TestGeneratedFramesAlwaysValidProperty(t *testing.T) {
	f := func(seed int64, luma, texture uint8) bool {
		cfg := DefaultGenConfig()
		cfg.BaseLuma = float64(luma%90+5) / 100
		cfg.Texture = float64(texture%40) / 100
		fr, err := Generate(stats.NewRNG(seed), cfg)
		if err != nil {
			return false
		}
		return fr.Validate() == nil && fr.Stats().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
