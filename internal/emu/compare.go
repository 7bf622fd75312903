package emu

import (
	"encoding/json"
	"fmt"
	"io"

	"lpvs/internal/anxiety"
	"lpvs/internal/scheduler"
	"lpvs/internal/stats"
	"lpvs/internal/survey"
)

// Comparison pairs a treated (LPVS or baseline-policy) run with a
// no-transform run of the identical workload: same seed, same fleet,
// same stream content, same cache draws. Every paper metric that needs a
// counterfactual (anxiety reduction, TPV gain) is derived from it.
type Comparison struct {
	Treated  *RunResult
	Baseline *RunResult
}

// Compare runs the policy and the no-transform baseline on the same
// workload. A nil policy means the LPVS scheduler from cfg.
func Compare(cfg Config, policy scheduler.Policy) (*Comparison, error) {
	treatedEmu, err := New(cfg, policy)
	if err != nil {
		return nil, err
	}
	treated, err := treatedEmu.Run()
	if err != nil {
		return nil, err
	}
	// The baseline is a counterfactual, not the system under
	// observation: it writes no audit records (only the LPVS scheduler
	// carries the replayable record surface).
	baseEmu, err := New(cfg, scheduler.NoTransform{})
	if err != nil {
		return nil, err
	}
	baseline, err := baseEmu.Run()
	if err != nil {
		return nil, err
	}
	if len(baseline.TPVMin) != len(treated.TPVMin) {
		return nil, fmt.Errorf("emu: paired runs diverged in fleet size")
	}
	return &Comparison{Treated: treated, Baseline: baseline}, nil
}

// WriteJSON persists a paired comparison, so long emulations can be
// archived and re-analysed without re-running.
func (c *Comparison) WriteJSON(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(c); err != nil {
		return fmt.Errorf("emu: encode comparison: %w", err)
	}
	return nil
}

// EnergySavingRatio is the treated run's display-energy saving (the
// baseline's is zero by construction).
func (c *Comparison) EnergySavingRatio() float64 { return c.Treated.EnergySavingRatio() }

// AnxietyReduction is the Fig. 7/8b metric: relative decrease in the
// population mean anxiety versus the no-transform baseline.
func (c *Comparison) AnxietyReduction() float64 {
	return anxiety.Reduction(c.Baseline.MeanAnxiety(), c.Treated.MeanAnxiety())
}

// TPVGain computes the Fig. 9 metric over the paper's cohort: devices
// that started low-battery (energy in (0, 40%]) and were served by the
// treated policy at least once. It returns the baseline and treated mean
// watching minutes and the relative gain.
func (c *Comparison) TPVGain() (baseMin, treatedMin, gain float64) {
	cohort := func(i int) bool {
		return c.Treated.LowBatteryStart[i] && c.Treated.EverServed[i]
	}
	baseMin = c.Baseline.MeanTPVMin(cohort)
	treatedMin = c.Treated.MeanTPVMin(cohort)
	if baseMin > 0 {
		gain = (treatedMin - baseMin) / baseMin
	}
	return baseMin, treatedMin, gain
}

// CohortSize reports how many devices fall in the Fig. 9 cohort.
func (c *Comparison) CohortSize() int {
	n := 0
	for i := range c.Treated.TPVMin {
		if c.Treated.LowBatteryStart[i] && c.Treated.EverServed[i] {
			n++
		}
	}
	return n
}

// SurveyGiveUpSampler adapts a survey dataset's give-up answers into the
// device generator's sampler: each emulated owner draws a give-up
// threshold from the empirical answer distribution.
func SurveyGiveUpSampler(ds *survey.Dataset) func(*stats.RNG) float64 {
	answers := ds.GiveUpThresholds()
	if len(answers) == 0 {
		return nil
	}
	return func(rng *stats.RNG) float64 {
		return float64(answers[rng.Intn(len(answers))]) / 100
	}
}
