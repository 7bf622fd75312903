package anxiety

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"lpvs/internal/survey"
	"lpvs/internal/testenv"
)

func extractDefault(t *testing.T) *Curve {
	t.Helper()
	ds := survey.Generate(survey.DefaultConfig())
	c, err := Extract(ds.ChargeThresholds())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExtractRejectsBadInput(t *testing.T) {
	if _, err := Extract(nil); err == nil {
		t.Fatal("no error for empty answers")
	}
	if _, err := Extract([]int{50, 0}); err == nil {
		t.Fatal("no error for answer 0")
	}
	if _, err := Extract([]int{50, 101}); err == nil {
		t.Fatal("no error for answer 101")
	}
}

func TestExtractSmallExample(t *testing.T) {
	// Answers 2 and 4: bins [1..2] get +1 from the first answer, bins
	// [1..4] +1 from the second. Counts: level1=2, level2=2, level3=1,
	// level4=1, level5..=0. Normalised by 2.
	c, err := Extract([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{1: 1, 2: 1, 3: 0.5, 4: 0.5, 5: 0, 100: 0}
	for level, w := range want {
		if got := c.AtLevel(level); math.Abs(got-w) > 1e-12 {
			t.Errorf("AtLevel(%d) = %v, want %v", level, got, w)
		}
	}
}

func TestCurveMonotoneNonIncreasing(t *testing.T) {
	c := extractDefault(t)
	for level := 2; level <= Levels; level++ {
		if c.AtLevel(level) > c.AtLevel(level-1)+1e-12 {
			t.Fatalf("curve increases from level %d to %d", level-1, level)
		}
	}
}

func TestCurveRangeAndEndpoints(t *testing.T) {
	c := extractDefault(t)
	if c.AtLevel(1) != 1 {
		t.Fatalf("anxiety at level 1 = %v, want 1 (normalised max)", c.AtLevel(1))
	}
	for level := 1; level <= Levels; level++ {
		v := c.AtLevel(level)
		if v < 0 || v > 1 {
			t.Fatalf("anxiety out of [0,1] at level %d: %v", level, v)
		}
	}
	if c.AtLevel(100) > 0.05 {
		t.Fatalf("anxiety at full battery = %v, want near 0", c.AtLevel(100))
	}
}

func TestCurveSharpIncreaseAtWarning(t *testing.T) {
	c := extractDefault(t)
	// The average per-level increase crossing the warning region must
	// exceed the average increase in the comfortable 40-60% band.
	dropWarn := (c.AtLevel(15) - c.AtLevel(25)) / 10
	dropMid := (c.AtLevel(45) - c.AtLevel(55)) / 10
	if dropWarn <= dropMid {
		t.Fatalf("no sharp increase at warning level: warn slope %v vs mid slope %v", dropWarn, dropMid)
	}
}

func TestCurveConvexAboveWarning(t *testing.T) {
	c := extractDefault(t)
	// Convexity of anxiety in energy on [20, 100]: the curve must lie
	// below the chord between the segment endpoints (sampled coarsely to
	// tolerate sampling noise).
	a, b := 25, 95
	fa, fb := c.AtLevel(a), c.AtLevel(b)
	violations := 0
	for level := a + 5; level < b; level += 5 {
		chord := fa + (fb-fa)*float64(level-a)/float64(b-a)
		if c.AtLevel(level) > chord+0.02 {
			violations++
		}
	}
	if violations > 0 {
		t.Fatalf("%d convexity violations above the warning level", violations)
	}
}

func TestCurveConcaveBelowWarning(t *testing.T) {
	c := extractDefault(t)
	// On [1, 20] the curve must lie above the chord.
	a, b := 2, 19
	fa, fb := c.AtLevel(a), c.AtLevel(b)
	violations := 0
	for level := a + 2; level < b; level += 2 {
		chord := fa + (fb-fa)*float64(level-a)/float64(b-a)
		if c.AtLevel(level) < chord-0.02 {
			violations++
		}
	}
	if violations > 0 {
		t.Fatalf("%d concavity violations below the warning level", violations)
	}
}

func TestCurveAnxietyInterpolation(t *testing.T) {
	c, err := Extract([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Between levels 2 (1.0) and 3 (0.5) the interpolated value at
	// fraction 0.025 (level 2.5) is 0.75.
	if got := c.Anxiety(0.025); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Anxiety(0.025) = %v, want 0.75", got)
	}
	// Clamping.
	if got := c.Anxiety(-1); got != c.AtLevel(1) {
		t.Fatalf("Anxiety(-1) = %v, want level-1 value", got)
	}
	if got := c.Anxiety(2); got != c.AtLevel(100) {
		t.Fatalf("Anxiety(2) = %v, want level-100 value", got)
	}
}

func TestPoints(t *testing.T) {
	c := extractDefault(t)
	pts := c.Points()
	if len(pts) != Levels {
		t.Fatalf("points = %d, want %d", len(pts), Levels)
	}
	if pts[0][0] != 1 || pts[99][0] != 100 {
		t.Fatal("point levels wrong")
	}
}

func TestCanonicalShape(t *testing.T) {
	m := NewCanonical()
	if got := m.Anxiety(1); got != 0 {
		t.Fatalf("Anxiety(1) = %v, want 0", got)
	}
	if got := m.Anxiety(0); got != 1 {
		t.Fatalf("Anxiety(0) = %v, want 1", got)
	}
	w := float64(WarningLevel) / Levels
	if got := m.Anxiety(w); math.Abs(got-m.AnxietyAtWarning) > 1e-12 {
		t.Fatalf("Anxiety(0.2) = %v, want %v", got, m.AnxietyAtWarning)
	}
}

func TestCanonicalMonotoneProperty(t *testing.T) {
	m := NewCanonical()
	f := func(a, b float64) bool {
		x := math.Abs(math.Mod(a, 1))
		y := math.Abs(math.Mod(b, 1))
		if x > y {
			x, y = y, x
		}
		return m.Anxiety(x) >= m.Anxiety(y)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalCurvature(t *testing.T) {
	m := NewCanonical()
	// Convex above warning: second difference >= 0.
	for e := 0.25; e < 0.95; e += 0.05 {
		d2 := m.Anxiety(e+0.02) - 2*m.Anxiety(e) + m.Anxiety(e-0.02)
		if d2 < -1e-9 {
			t.Fatalf("not convex at e=%v (d2=%v)", e, d2)
		}
	}
	// Concave below warning.
	for e := 0.05; e < 0.18; e += 0.02 {
		d2 := m.Anxiety(e+0.01) - 2*m.Anxiety(e) + m.Anxiety(e-0.01)
		if d2 > 1e-9 {
			t.Fatalf("not concave at e=%v (d2=%v)", e, d2)
		}
	}
}

func TestLinear(t *testing.T) {
	var m Linear
	cases := []struct{ in, want float64 }{
		{0, 1}, {1, 0}, {0.25, 0.75}, {-3, 1}, {4, 0},
	}
	for _, c := range cases {
		if got := m.Anxiety(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Linear.Anxiety(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(10, 8); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Reduction(10,8) = %v, want 0.2", got)
	}
	if got := Reduction(0, 5); got != 0 {
		t.Fatalf("Reduction(0,5) = %v, want 0", got)
	}
}

func TestRescaledShiftsWarning(t *testing.T) {
	base := NewCanonical()
	// An early worrier: personal warning at 40% battery.
	early, err := NewRescaled(base, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// At their own warning level they feel what the population feels at
	// the 20% warning.
	if got := early.Anxiety(0.4); math.Abs(got-base.Anxiety(0.2)) > 1e-12 {
		t.Fatalf("rescaled anxiety at personal warning = %v, want %v", got, base.Anxiety(0.2))
	}
	// At any battery level they are at least as anxious as the average
	// user (their axis is compressed).
	for e := 0.05; e < 1; e += 0.05 {
		if early.Anxiety(e) < base.Anxiety(e)-1e-12 {
			t.Fatalf("early worrier less anxious than baseline at %v", e)
		}
	}
}

func TestRescaledValidation(t *testing.T) {
	if _, err := NewRescaled(nil, 0.2); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := NewRescaled(NewCanonical(), 0); err == nil {
		t.Fatal("zero warning accepted")
	}
	if _, err := NewRescaled(NewCanonical(), 1.5); err == nil {
		t.Fatal("over-unity warning accepted")
	}
}

func TestRescaledIdentityAtPopulationWarning(t *testing.T) {
	base := NewCanonical()
	same, err := NewRescaled(base, float64(WarningLevel)/Levels)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0.0; e <= 1; e += 0.1 {
		if math.Abs(same.Anxiety(e)-base.Anxiety(e)) > 1e-12 {
			t.Fatalf("identity rescale differs at %v", e)
		}
	}
}

func TestEmpiricalCloseToCanonical(t *testing.T) {
	// The synthetic survey is calibrated so its extracted curve tracks
	// the canonical published shape within loose tolerance.
	c := extractDefault(t)
	m := NewCanonical()
	worst := 0.0
	for level := 5; level <= 100; level += 5 {
		e := float64(level) / 100
		d := math.Abs(c.Anxiety(e) - m.Anxiety(e))
		if d > worst {
			worst = d
		}
	}
	if worst > 0.15 {
		t.Fatalf("empirical curve deviates from canonical by %v (max allowed 0.15)", worst)
	}
}

// canonicalPow is Canonical.Anxiety as written with math.Pow, the
// reference unitPow must equal bit for bit.
func canonicalPow(m *Canonical, energyFrac float64) float64 {
	e := clamp01(energyFrac)
	w := float64(WarningLevel) / Levels
	if e >= w {
		return m.AnxietyAtWarning * math.Pow((1-e)/(1-w), m.ConvexPower)
	}
	return 1 - float64((1-m.AnxietyAtWarning)*math.Pow(e/w, m.ConcavePower))
}

// TestCanonicalUnitPowDifferential holds φ with unitPow to φ with
// math.Pow, bit for bit, over seeded energy fractions: uniform on
// [0, 1], and dense near 0 (down past the 2⁻¹⁰⁰ fast-path floor), near
// the 20% warning level and near 1. The calibration's two exponents get
// 10M inputs each, and so does 2.7, whose integer part 3 (a fraction
// above ½ is carried) is the one product of three factors; 0.3, 1.25
// and 3.7 cover the integer parts 0, 1 and 4 with 1M each.
func TestCanonicalUnitPowDifferential(t *testing.T) {
	scale := 1
	if testenv.RaceEnabled {
		scale = 50
	}
	w := float64(WarningLevel) / Levels
	for _, tc := range []struct {
		y float64
		n int
	}{{2.2, 10_000_000}, {1.6, 10_000_000}, {2.7, 10_000_000}, {0.3, 1_000_000}, {1.25, 1_000_000}, {3.7, 1_000_000}} {
		y, n := tc.y, tc.n/scale
		m := &Canonical{AnxietyAtWarning: 0.72, ConvexPower: y, ConcavePower: y}
		rng := rand.New(rand.NewPCG(1, math.Float64bits(y)))
		mismatches := 0
		for i := 0; i < n; i++ {
			u := rng.Float64()
			var e float64
			switch i % 5 {
			case 0:
				e = u
			case 1: // near 0, on a log scale down to 2⁻¹¹⁰
				e = math.Ldexp(1+u, -rng.IntN(110))
			case 2:
				e = w + float64(u-0.5)*1e-3
			case 3:
				e = 1 - u*1e-3
			case 4:
				e = math.Nextafter(w, float64(rng.IntN(2)))
			}
			if got, want := m.Anxiety(e), canonicalPow(m, e); math.Float64bits(got) != math.Float64bits(want) {
				if mismatches++; mismatches <= 5 {
					t.Errorf("y=%v φ(%v) = %v, with math.Pow %v", y, e, got, want)
				}
			}
		}
		if mismatches > 0 {
			t.Errorf("y=%v: %d of %d inputs differ", y, mismatches, n)
		}
	}
}

// TestUnitPowOutsideFastPath: every input the fast path does not take —
// special values, integers, ½, x outside [2⁻¹⁰⁰, 1), y outside (0, 4) —
// is math.Pow's answer.
func TestUnitPowOutsideFastPath(t *testing.T) {
	xs := []float64{math.NaN(), math.Inf(-1), -0.5, math.Copysign(0, -1), 0, 5e-324, 0x1p-101, 0x1p-100, 0.3, 1, 1.5, math.Inf(1)}
	ys := []float64{math.NaN(), math.Inf(-1), -2.2, -1, 0, 0.5, 1, 2, 2.2, 3, 4, 4.5, math.Inf(1)}
	for _, x := range xs {
		for _, y := range ys {
			got, want := unitPow(x, y), math.Pow(x, y)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("unitPow(%v, %v) = %v, math.Pow %v", x, y, got, want)
			}
		}
	}
}
