package bayes

import (
	"math"
	"testing"
)

// TestFromSnapshotRoundTrip: rebuilding from a snapshot must reproduce
// the estimator bit-for-bit, including after further observations
// applied in lockstep to the original and the restored copy.
func TestFromSnapshotRoundTrip(t *testing.T) {
	e := NewGammaEstimator()
	for _, obs := range []float64{0.3, 0.25, 0.41, 0.38} {
		if err := e.Observe(obs); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	r, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != snap {
		t.Fatalf("restored snapshot %+v != original %+v", r.Snapshot(), snap)
	}
	if r.Gamma() != e.Gamma() || r.mean != e.mean || r.Sigma() != e.Sigma() {
		t.Fatal("restored estimator diverged immediately")
	}
	// Lockstep updates must stay bit-identical: the restore is exact,
	// not approximate.
	for _, obs := range []float64{0.2, 0.45, 0.33, 0.29, 0.31} {
		if err := e.Observe(obs); err != nil {
			t.Fatal(err)
		}
		if err := r.Observe(obs); err != nil {
			t.Fatal(err)
		}
		if r.mean != e.mean || r.Sigma() != e.Sigma() || r.Gamma() != e.Gamma() {
			t.Fatalf("lockstep divergence after observing %v", obs)
		}
	}
	if r.Observations() != e.Observations() {
		t.Fatal("observation counts diverged")
	}
}

// TestFromSnapshotZeroObservations: the prior itself round-trips.
func TestFromSnapshotZeroObservations(t *testing.T) {
	e := NewGammaEstimator()
	r, err := FromSnapshot(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != e.Snapshot() {
		t.Fatal("prior did not round-trip")
	}
	if r.Observations() != 0 {
		t.Fatalf("observations = %d, want 0", r.Observations())
	}
}

// TestFromSnapshotRejects: snapshots that no valid estimator could
// have produced fail closed.
func TestFromSnapshotRejects(t *testing.T) {
	valid := NewGammaEstimator().Snapshot()
	cases := map[string]func(*Snapshot){
		"nan-mean":       func(s *Snapshot) { s.Mean = math.NaN() },
		"inf-mean":       func(s *Snapshot) { s.Mean = math.Inf(1) },
		"zero-sigma":     func(s *Snapshot) { s.Sigma = 0 },
		"negative-sigma": func(s *Snapshot) { s.Sigma = -1 },
		"nan-sigma":      func(s *Snapshot) { s.Sigma = math.NaN() },
		"inf-sigma":      func(s *Snapshot) { s.Sigma = math.Inf(1) },
		"zero-obs-sigma": func(s *Snapshot) { s.ObsSigma = 0 },
		"nan-obs-sigma":  func(s *Snapshot) { s.ObsSigma = math.NaN() },
		"nan-lo":         func(s *Snapshot) { s.Lo = math.NaN() },
		"inf-hi":         func(s *Snapshot) { s.Hi = math.Inf(1) },
		"inverted":       func(s *Snapshot) { s.Lo, s.Hi = s.Hi, s.Lo },
		"equal-bounds":   func(s *Snapshot) { s.Lo = s.Hi },
		"negative-count": func(s *Snapshot) { s.Observations = -1 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := valid
			mutate(&s)
			if _, err := FromSnapshot(s); err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
		})
	}
}
