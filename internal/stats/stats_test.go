package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

// TestRNGSequenceUnchanged pins the stream against plain math/rand:
// every recorded figure and golden depends on this draw sequence.
func TestRNGSequenceUnchanged(t *testing.T) {
	g := NewRNG(1)
	// First three Float64 draws of math/rand.New(rand.NewSource(1)).
	want := []float64{0.6046602879796196, 0.9405090880450124, 0.6645600532184904}
	for i, w := range want {
		if got := g.Float64(); got != w {
			t.Fatalf("draw %d: %v, want %v (sequence changed)", i, got, w)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Fork()
	// The child must be deterministic given the parent seed.
	parent2 := NewRNG(7)
	child2 := parent2.Fork()
	for i := 0; i < 10; i++ {
		if child.Float64() != child2.Float64() {
			t.Fatal("forked streams are not reproducible")
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform(-2,5) = %v out of range", v)
		}
	}
}

func TestTruncNormalWithinBounds(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 2000; i++ {
		v := g.TruncNormal(0.31, 12, 0.13, 0.49)
		if v < 0.13 || v > 0.49 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestTruncNormalSwappedBounds(t *testing.T) {
	g := NewRNG(3)
	v := g.TruncNormal(0, 1, 1, -1)
	if v < -1 || v > 1 {
		t.Fatalf("TruncNormal with swapped bounds out of range: %v", v)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	g := NewRNG(4)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[g.Categorical([]float64{1, 2, 7})]++
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Fatalf("categorical frequencies not ordered by weight: %v", counts)
	}
	frac2 := float64(counts[2]) / 30000
	if math.Abs(frac2-0.7) > 0.03 {
		t.Fatalf("weight-7 frequency = %v, want about 0.7", frac2)
	}
}

func TestCategoricalPanics(t *testing.T) {
	g := NewRNG(5)
	for _, weights := range [][]float64{nil, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", weights)
				}
			}()
			g.Categorical(weights)
		}()
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.96, 0.975},
		{-1.96, 0.025},
	}
	for _, c := range cases {
		got := StdNormalCDF(c.x)
		if math.Abs(got-c.want) > 1e-3 {
			t.Errorf("StdNormalCDF(%v) = %v, want ~%v", c.x, got, c.want)
		}
	}
}

func TestNormalPDFIntegratesToOne(t *testing.T) {
	// Simple trapezoidal integration over a wide interval.
	sum := 0.0
	const step = 0.001
	for x := -8.0; x < 8.0; x += step {
		sum += StdNormalPDF(x) * step
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("pdf integrates to %v, want 1", sum)
	}
}

func TestTruncNormalMeanSymmetric(t *testing.T) {
	// Symmetric truncation around the mean leaves the mean unchanged.
	got := TruncNormalMean(0.3, 0.1, 0.1, 0.5)
	if math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("symmetric truncated mean = %v, want 0.3", got)
	}
}

func TestTruncNormalMeanOneSided(t *testing.T) {
	// Truncating to the right of the mean must pull the mean right.
	got := TruncNormalMean(0, 1, 0.5, 4)
	if got <= 0.5 || got >= 4 {
		t.Fatalf("one-sided truncated mean = %v, want inside (0.5, 4)", got)
	}
}

func TestTruncNormalMeanNoMass(t *testing.T) {
	// Interval far above the distribution: collapses to nearer endpoint.
	got := TruncNormalMean(0, 0.01, 5, 6)
	if got != 5 {
		t.Fatalf("no-mass truncated mean = %v, want 5", got)
	}
	got = TruncNormalMean(10, 0.01, 5, 6)
	if got != 6 {
		t.Fatalf("no-mass truncated mean = %v, want 6", got)
	}
}

// squash maps an arbitrary float64 (including NaN/Inf) into [-1, 1] so
// property tests explore a physically meaningful domain.
func squash(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return math.Tanh(x / 10)
}

func TestTruncNormalMeanPropertyWithinBounds(t *testing.T) {
	f := func(mean, spread, lo, width float64) bool {
		m0 := squash(mean) * 100
		stddev := math.Abs(squash(spread))*50 + 0.01
		l := squash(lo) * 100
		h := l + math.Abs(squash(width))*100 + 0.01
		m := TruncNormalMean(m0, stddev, l, h)
		return m >= l-1e-9 && m <= h+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncNormalVarNonNegativeAndBounded(t *testing.T) {
	f := func(mean, spread, lo, width float64) bool {
		m0 := squash(mean) * 100
		stddev := math.Abs(squash(spread))*50 + 0.01
		l := squash(lo) * 100
		h := l + math.Abs(squash(width))*100 + 0.01
		v := TruncNormalVar(m0, stddev, l, h)
		// Truncation never increases variance beyond the original, and
		// variance is bounded by the squared half-range.
		half := (h - l) / 2
		return v >= 0 && (v <= stddev*stddev+1e-9 || v <= half*half+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {-5, 10}, {110, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Must not mutate the input.
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2.5, 4.5, 6.5, 8.5} // y = 2x + 0.5
	fit := FitLine(xs, ys)
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-0.5) > 1e-12 {
		t.Fatalf("fit = %+v, want slope 2 intercept 0.5", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	g := NewRNG(9)
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 0.055*x-0.324+g.Normal(0, 0.1))
	}
	fit := FitLine(xs, ys)
	if math.Abs(fit.Slope-0.055) > 0.005 {
		t.Fatalf("slope = %v, want about 0.055", fit.Slope)
	}
	if fit.R2 < 0.95 {
		t.Fatalf("R2 = %v, want > 0.95", fit.R2)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{0.5, 1, 3, 9.9, -4, 15} {
		h.Add(v)
	}
	// -4 clamps to first bin, 15 clamps to last.
	if h.Counts[0] != 3 { // 0.5, 1, -4
		t.Fatalf("first bin = %d, want 3", h.Counts[0])
	}
	if h.Counts[4] != 2 { // 9.9, 15
		t.Fatalf("last bin = %d, want 2", h.Counts[4])
	}
	if h.Counts[1]+h.Counts[2]+h.Counts[3] != 1 { // 3: no observation dropped
		t.Fatalf("middle bins = %v, want one observation", h.Counts[1:4])
	}
}

func TestHistogramRenderNonEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(0.1)
	if h.Render(20) == "" {
		t.Fatal("empty render")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}
