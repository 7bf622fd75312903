package frame

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
)

// sRGB transfer function: frames store linear light (power is linear in
// emitted light), PNG stores gamma-encoded sRGB.

// srgbEncode converts linear light to the sRGB transfer curve.
func srgbEncode(v float64) float64 {
	if v <= 0.0031308 {
		return 12.92 * v
	}
	return 1.055*math.Pow(v, 1/2.4) - 0.055
}

// ToImage renders the frame as an 8-bit sRGB image.
func (f *Frame) ToImage() (*image.RGBA, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	img := image.NewRGBA(image.Rect(0, 0, f.W, f.H))
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			i := y*f.W + x
			img.SetRGBA(x, y, color.RGBA{
				R: to8(f.R[i]),
				G: to8(f.G[i]),
				B: to8(f.B[i]),
				A: 255,
			})
		}
	}
	return img, nil
}

func to8(linear float64) uint8 {
	return uint8(srgbEncode(linear)*255 + 0.5)
}

// EncodePNG writes the frame as a PNG.
func (f *Frame) EncodePNG(w io.Writer) error {
	img, err := f.ToImage()
	if err != nil {
		return err
	}
	if err := png.Encode(w, img); err != nil {
		return fmt.Errorf("frame: png encode: %w", err)
	}
	return nil
}
