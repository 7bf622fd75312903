package stats

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Values outside
// the range are clamped into the first / last bin so that no observation
// is silently dropped — the survey-curve extraction depends on every
// answer being counted.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram creates a histogram with bins equal-width bins spanning
// [lo, hi). It panics on a non-positive bin count or an empty range.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram requires bins > 0")
	}
	if hi <= lo {
		panic("stats: NewHistogram requires hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	idx := h.binOf(x)
	h.Counts[idx]++
}

func (h *Histogram) binOf(x float64) int {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	idx := int((x - h.Lo) / w)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	return idx
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Render draws a textual bar chart of the histogram, width characters
// wide, one row per bin — the form used by the figure regenerators to
// print Fig. 5-style histograms.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%8.1f | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}
