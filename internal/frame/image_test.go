package frame

import (
	"bytes"
	"image/png"
	"math"
	"testing"
)

func TestSRGBRoundTrip(t *testing.T) {
	for v := 0.0; v <= 1.0; v += 0.01 {
		back := srgbDecode(srgbEncode(v))
		if math.Abs(back-v) > 1e-9 {
			t.Fatalf("sRGB round trip at %v: %v", v, back)
		}
	}
	// Known point: linear 0.5 encodes to ~0.7354.
	if got := srgbEncode(0.5); math.Abs(got-0.7354) > 1e-3 {
		t.Fatalf("srgbEncode(0.5) = %v", got)
	}
}

func TestPNGRoundTrip(t *testing.T) {
	f := genFrame(t, DefaultGenConfig())
	var buf bytes.Buffer
	if err := f.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != f.W || back.H != f.H {
		t.Fatalf("dimensions changed: %dx%d", back.W, back.H)
	}
	// 8-bit quantisation through the gamma curve: tolerate ~1% in linear
	// light per pixel.
	worst := 0.0
	for i := range f.R {
		for _, d := range [3]float64{
			math.Abs(back.R[i] - f.R[i]),
			math.Abs(back.G[i] - f.G[i]),
			math.Abs(back.B[i] - f.B[i]),
		} {
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 0.012 {
		t.Fatalf("round-trip error %v exceeds 8-bit tolerance", worst)
	}
	// Aggregate statistics survive the round trip tightly.
	a, b := f.Stats(), back.Stats()
	if math.Abs(a.MeanLuma-b.MeanLuma) > 0.005 {
		t.Fatalf("mean luma drifted: %v vs %v", a.MeanLuma, b.MeanLuma)
	}
}

func TestFromImageNil(t *testing.T) {
	if _, err := FromImage(nil); err == nil {
		t.Fatal("nil image accepted")
	}
}

func TestToImageInvalidFrame(t *testing.T) {
	bad := &Frame{W: 2, H: 2, R: []float64{1}, G: []float64{1}, B: []float64{1}}
	if _, err := bad.ToImage(); err == nil {
		t.Fatal("invalid frame accepted")
	}
}
