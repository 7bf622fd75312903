package anxiety

import (
	"math"
	"testing"

	"lpvs/internal/survey"
)

// rmse is the root-mean-square difference between two anxiety models
// over the battery range: the fit-quality measure of FitCanonical.
func rmse(a, b Model) float64 {
	sum := 0.0
	const samples = 99
	for i := 1; i <= samples; i++ {
		e := float64(i) / 100
		d := a.Anxiety(e) - b.Anxiety(e)
		sum += d * d
	}
	return math.Sqrt(sum / samples)
}

func TestFitCanonicalRecoversItself(t *testing.T) {
	truth := &Canonical{AnxietyAtWarning: 0.65, ConvexPower: 1.8, ConcavePower: 2.2}
	got, err := FitCanonical(truth)
	if err != nil {
		t.Fatal(err)
	}
	if e := rmse(truth, got); e > 0.01 {
		t.Fatalf("self-fit RMSE %v", e)
	}
}

func TestFitCanonicalOnEmpiricalCurve(t *testing.T) {
	ds := survey.Generate(survey.DefaultConfig())
	curve, err := Extract(ds.ChargeThresholds())
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitCanonical(curve)
	if err != nil {
		t.Fatal(err)
	}
	if e := rmse(curve, fit); e > 0.05 {
		t.Fatalf("empirical fit RMSE %v", e)
	}
	// The fit must beat the default calibration on the empirical data.
	if rmse(curve, fit) > rmse(curve, NewCanonical())+1e-9 {
		t.Fatal("fit worse than the default calibration")
	}
}

func TestFitCanonicalLinearTarget(t *testing.T) {
	// A linear target is outside the family; the fit must still return
	// something sane without error.
	fit, err := FitCanonical(Linear{})
	if err != nil {
		t.Fatal(err)
	}
	if fit.AnxietyAtWarning <= 0 || fit.AnxietyAtWarning >= 1 {
		t.Fatalf("degenerate warm point %v", fit.AnxietyAtWarning)
	}
}

func TestFitCanonicalNil(t *testing.T) {
	if _, err := FitCanonical(nil); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestRMSEZeroForIdentical(t *testing.T) {
	m := NewCanonical()
	if got := rmse(m, m); got != 0 {
		t.Fatalf("self RMSE %v", got)
	}
}
