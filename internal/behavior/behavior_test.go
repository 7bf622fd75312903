package behavior

import (
	"math"
	"testing"

	"lpvs/internal/anxiety"
)

func defaultLog(tb testing.TB) *Log {
	tb.Helper()
	log, err := Generate(DefaultLogConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return log
}

func TestGenerateValidation(t *testing.T) {
	bad := []LogConfig{
		{Users: 0, EventsPerUser: 10},
		{Users: 10, EventsPerUser: 0},
		{Users: 10, EventsPerUser: 10, OpportunisticRate: 1},
		{Users: 10, EventsPerUser: 10, StrandedRate: -0.1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	log := defaultLog(t)
	if len(log.TrueThresholds) != 2032 {
		t.Fatalf("users = %d", len(log.TrueThresholds))
	}
	if len(log.Events) < 2032*20 {
		t.Fatalf("only %d events", len(log.Events))
	}
	for _, e := range log.Events {
		if e.Level < 1 || e.Level > 100 {
			t.Fatalf("event level %d", e.Level)
		}
	}
	for _, th := range log.TrueThresholds {
		if th < 1 || th > 100 {
			t.Fatalf("threshold %d", th)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := defaultLog(t), defaultLog(t)
	if len(a.Events) != len(b.Events) {
		t.Fatal("event counts differ")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestEstimateRecoversThresholds(t *testing.T) {
	log := defaultLog(t)
	_, estimates, err := Estimate(log, EstimateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mae := ThresholdError(log, estimates)
	// Anxiety-driven events have sigma 2.5 jitter; the quantile
	// estimator should land within a few battery points on average
	// despite 25% opportunistic and 8% stranded contamination.
	if mae > 6 {
		t.Fatalf("mean absolute threshold error %v points, want <= 6", mae)
	}
}

func TestEstimateBeatsNaiveMean(t *testing.T) {
	log := defaultLog(t)
	_, quantileEst, err := Estimate(log, EstimateConfig{Quantile: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	_, meanish, err := Estimate(log, EstimateConfig{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// The median is already decent, but the low quantile must not be
	// worse once opportunistic charging contaminates the top of each
	// user's distribution.
	if ThresholdError(log, quantileEst) > ThresholdError(log, meanish)+1 {
		t.Fatalf("low-quantile estimator (%v) much worse than median (%v)",
			ThresholdError(log, quantileEst), ThresholdError(log, meanish))
	}
}

func TestBehaviouralCurveMatchesCanonical(t *testing.T) {
	log := defaultLog(t)
	curve, _, err := Estimate(log, EstimateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	canon := anxiety.NewCanonical()
	worst := 0.0
	for level := 10; level <= 100; level += 10 {
		e := float64(level) / 100
		d := math.Abs(curve.Anxiety(e) - canon.Anxiety(e))
		if d > worst {
			worst = d
		}
	}
	if worst > 0.12 {
		t.Fatalf("behavioural curve deviates from ground truth by %v", worst)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, _, err := Estimate(nil, EstimateConfig{}); err == nil {
		t.Fatal("nil log accepted")
	}
	if _, _, err := Estimate(&Log{}, EstimateConfig{}); err == nil {
		t.Fatal("empty log accepted")
	}
	log := &Log{Events: []ChargeEvent{{UserID: 0, Level: 200}}}
	if _, _, err := Estimate(log, EstimateConfig{}); err == nil {
		t.Fatal("bad level accepted")
	}
	log = &Log{Events: []ChargeEvent{{UserID: -1, Level: 20}}}
	if _, _, err := Estimate(log, EstimateConfig{}); err == nil {
		t.Fatal("negative user accepted")
	}
	log = &Log{Events: []ChargeEvent{{UserID: 0, Level: 20}}}
	if _, _, err := Estimate(log, EstimateConfig{MinEvents: 5}); err == nil {
		t.Fatal("under-observed population accepted")
	}
	if _, _, err := Estimate(defaultLog(t), EstimateConfig{Quantile: 2}); err == nil {
		t.Fatal("bad quantile accepted")
	}
}

func TestEstimateSkipsSparseUsers(t *testing.T) {
	log := &Log{
		Events: []ChargeEvent{
			{UserID: 0, Level: 20}, {UserID: 0, Level: 22}, {UserID: 0, Level: 19},
			{UserID: 1, Level: 50}, // only one event
		},
		TrueThresholds: []int{20, 50},
	}
	_, estimates, err := Estimate(log, EstimateConfig{MinEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	if estimates[1] != -1 {
		t.Fatal("sparse user not skipped")
	}
	if estimates[0] < 18 || estimates[0] > 22 {
		t.Fatalf("estimate %d for threshold 20", estimates[0])
	}
}

func TestThresholdErrorEdgeCases(t *testing.T) {
	if ThresholdError(nil, nil) != 0 {
		t.Fatal("nil log")
	}
	log := &Log{TrueThresholds: []int{20}}
	if ThresholdError(log, []int{-1}) != 0 {
		t.Fatal("all-skipped estimates")
	}
}
