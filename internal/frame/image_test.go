package frame

import (
	"bytes"
	"image/color"
	"image/png"
	"math"
	"testing"
)

// TestSRGBEncode pins the encode curve to IEC 61966-2-1: linear below
// the knee, the 2.4 power above it, the two pieces meeting at the knee,
// rising over [0, 1] from 0 to 1.
func TestSRGBEncode(t *testing.T) {
	if got := srgbEncode(0.002); math.Abs(got-0.02584) > 1e-15 {
		t.Fatalf("srgbEncode(0.002) = %v, want the linear segment", got)
	}
	const knee = 0.0031308
	if below, above := srgbEncode(knee), srgbEncode(math.Nextafter(knee, 1)); math.Abs(above-below) > 1e-6 {
		t.Fatalf("srgbEncode jumps at the knee: %v to %v", below, above)
	}
	prev := srgbEncode(0)
	for v := 0.01; v <= 1.0; v += 0.01 {
		got := srgbEncode(v)
		if got <= prev {
			t.Fatalf("srgbEncode not rising at %v: %v after %v", v, got, prev)
		}
		prev = got
	}
	if got := srgbEncode(1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("srgbEncode(1) = %v", got)
	}
	// Known point: linear 0.5 encodes to ~0.7354.
	if got := srgbEncode(0.5); math.Abs(got-0.7354) > 1e-3 {
		t.Fatalf("srgbEncode(0.5) = %v", got)
	}
}

// TestPNGRoundTrip decodes what EncodePNG wrote and finds every pixel
// exactly as to8 quantised it, opaque.
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
	if b := img.Bounds(); b.Dx() != f.W || b.Dy() != f.H {
		t.Fatalf("dimensions changed: %dx%d, want %dx%d", b.Dx(), b.Dy(), f.W, f.H)
	}
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			i := y*f.W + x
			want := color.RGBA{R: to8(f.R[i]), G: to8(f.G[i]), B: to8(f.B[i]), A: 255}
			if got := color.RGBAModel.Convert(img.At(img.Bounds().Min.X+x, img.Bounds().Min.Y+y)); got != want {
				t.Fatalf("pixel (%d, %d) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestToImageInvalidFrame(t *testing.T) {
	bad := &Frame{W: 2, H: 2, R: []float64{1}, G: []float64{1}, B: []float64{1}}
	if _, err := bad.ToImage(); err == nil {
		t.Fatal("invalid frame accepted")
	}
}
