package bayes

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"lpvs/internal/stats"
)

func TestDefaultPriorMidpoint(t *testing.T) {
	e := NewGammaEstimator()
	// With a vague prior (sigma=12) the truncated expectation should sit
	// near the midpoint of the support.
	mid := (DefaultGammaL + DefaultGammaU) / 2
	if math.Abs(e.Gamma()-mid) > 0.01 {
		t.Fatalf("prior gamma = %v, want about %v", e.Gamma(), mid)
	}
}

func TestGammaAlwaysWithinBounds(t *testing.T) {
	e := NewGammaEstimator()
	obsSeq := []float64{0.9, 0.9, 0.9, 0.9} // pushing above the support
	for _, o := range obsSeq {
		if err := e.Observe(o); err != nil {
			t.Fatal(err)
		}
		g := e.Gamma()
		if g < DefaultGammaL || g > DefaultGammaU {
			t.Fatalf("gamma = %v escaped [%v, %v]", g, DefaultGammaL, DefaultGammaU)
		}
	}
}

func TestPosteriorConvergesToTruth(t *testing.T) {
	const truth = 0.37
	rng := stats.NewRNG(11)
	e := NewGammaEstimator()
	for i := 0; i < 200; i++ {
		obs := stats.Clamp(rng.Normal(truth, DefaultObsSigma), 0.01, 0.99)
		if err := e.Observe(obs); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(e.Gamma()-truth) > 0.02 {
		t.Fatalf("posterior gamma = %v, want about %v", e.Gamma(), truth)
	}
	if e.Observations() != 200 {
		t.Fatalf("observations = %d, want 200", e.Observations())
	}
}

func TestPosteriorVarianceShrinks(t *testing.T) {
	e := NewGammaEstimator()
	prev := e.Sigma()
	for i := 0; i < 10; i++ {
		if err := e.Observe(0.3); err != nil {
			t.Fatal(err)
		}
		if e.Sigma() >= prev {
			t.Fatalf("sigma did not shrink at step %d: %v -> %v", i, prev, e.Sigma())
		}
		prev = e.Sigma()
	}
}

func TestUncertaintyShrinks(t *testing.T) {
	e := NewGammaEstimator()
	before := e.Uncertainty()
	for i := 0; i < 20; i++ {
		if err := e.Observe(0.31); err != nil {
			t.Fatal(err)
		}
	}
	if e.Uncertainty() >= before {
		t.Fatalf("uncertainty did not shrink: %v -> %v", before, e.Uncertainty())
	}
}

func TestObserveRejectsInvalid(t *testing.T) {
	e := NewGammaEstimator()
	for _, bad := range []float64{0, -0.3, 1, 1.5, math.NaN()} {
		if err := e.Observe(bad); !errors.Is(err, ErrNoObservation) {
			t.Errorf("Observe(%v) err = %v, want ErrNoObservation", bad, err)
		}
	}
	if e.Observations() != 0 {
		t.Fatal("rejected observations were counted")
	}
}

func TestConjugateUpdateMatchesClosedForm(t *testing.T) {
	e := NewGammaEstimator()
	if err := e.Observe(0.4); err != nil {
		t.Fatal(err)
	}
	// Closed form: precision-weighted average.
	pp, op := 1/(DefaultPriorSigma*DefaultPriorSigma), 1/(DefaultObsSigma*DefaultObsSigma)
	wantVar := 1 / (pp + op)
	wantMean := wantVar * (DefaultPriorMean*pp + 0.4*op)
	if math.Abs(e.mean-wantMean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", e.mean, wantMean)
	}
	if math.Abs(e.Sigma()-math.Sqrt(wantVar)) > 1e-12 {
		t.Fatalf("sigma = %v, want %v", e.Sigma(), math.Sqrt(wantVar))
	}
}

func TestGammaBoundedProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := stats.NewRNG(seed)
		e := NewGammaEstimator()
		for i := 0; i < int(n%64); i++ {
			obs := stats.Clamp(rng.Float64(), 0.001, 0.999)
			if err := e.Observe(obs); err != nil {
				return false
			}
			g := e.Gamma()
			if g < DefaultGammaL-1e-9 || g > DefaultGammaU+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshot(t *testing.T) {
	e := NewGammaEstimator()
	if err := e.Observe(0.4); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Mean != e.mean || snap.Sigma != e.Sigma() {
		t.Fatalf("snapshot %+v disagrees with accessors", snap)
	}
	if snap.Observations != 1 {
		t.Fatalf("observations = %d, want 1", snap.Observations)
	}
}
