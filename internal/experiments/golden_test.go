package experiments

import (
	"flag"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lpvs/internal/testenv"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// g formats a reported value at full precision, so a golden pins every
// bit of it rather than the two decimals Render prints.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkGolden compares got with testdata/<name>.golden. A change meant
// to keep decisions — to how Phase-1 is searched, say — must not move
// one reported number; -update is for a change meant to move them.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	testenv.Golden(t, filepath.Join("testdata", name+".golden"), got, *update)
}

// The goldens run the default config, the one `lpvs-bench -exp figN`
// prints and EXPERIMENTS.md quotes.

func TestFig7Golden(t *testing.T) {
	r, err := Fig7(DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "group=%d saving=%s anxiety=%s\n", row.GroupSize, g(row.EnergySaving), g(row.AnxietyReduction))
	}
	fmt.Fprintf(&b, "avg_saving=%s max_saving=%s\n", g(r.AvgSaving), g(r.MaxSaving))
	fmt.Fprintf(&b, "avg_anxiety=%s max_anxiety=%s\n", g(r.AvgAnxiety), g(r.MaxAnxiety))
	checkGolden(t, "fig7", b.String())
}

func TestFig8Golden(t *testing.T) {
	r, err := Fig8(DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "lambda=%s group=%d saving=%s anxiety=%s\n", g(c.Lambda), c.GroupSize, g(c.EnergySaving), g(c.AnxietyReduction))
	}
	checkGolden(t, "fig8", b.String())
}

func TestFig9Golden(t *testing.T) {
	r, err := Fig9(DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("cohort=%d baseline_min=%s treated_min=%s gain=%s\n", r.CohortSize, g(r.BaselineMin), g(r.TreatedMin), g(r.Gain))
	checkGolden(t, "fig9", got)
}

// The rest run at the seed `lpvs-bench -exp <id>` defaults to.
var goldenSeed = DefaultEvalConfig().Seed

func TestTable1Golden(t *testing.T) {
	r, err := Table1(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s %q lo=%s hi=%s avg=%s\n", row.Strategy.Target, row.Strategy.Name,
			g(row.MeasuredLo), g(row.MeasuredHi), g(row.MeasuredAvg))
	}
	fmt.Fprintf(&b, "avg_lo=%s avg_hi=%s\n", g(r.AvgLo), g(r.AvgHi))
	checkGolden(t, "table1", b.String())
}

func TestValidationGolden(t *testing.T) {
	r, err := Validation(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%q mae=%s\n", row.Scenario, g(row.MAE))
	}
	checkGolden(t, "validation", b.String())
}

func TestAutoDimGolden(t *testing.T) {
	r, err := AutoDim(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%q saving=%s anxiety=%s quality_loss=%s tpv_gain=%s\n", row.Variant,
			g(row.EnergySaving), g(row.AnxietyReduction), g(row.QualityLoss), g(row.TPVGain))
	}
	checkGolden(t, "autodim", b.String())
}

func TestTraceWideGolden(t *testing.T) {
	r, err := TraceWide(goldenSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("channels=%d skipped=%d devices=%d saving=%s anxiety=%s\ncohort=%d baseline_min=%s treated_min=%s gain=%s\n",
		r.Channels, r.Skipped, r.Devices, g(r.EnergySaving), g(r.AnxietyReduction),
		r.CohortSize, g(r.TPVBaselineMin), g(r.TPVTreatedMin), g(r.TPVGain))
	checkGolden(t, "trace-wide", got)
}

func TestBehaviorGolden(t *testing.T) {
	r, err := Behavior(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("users=%d events=%d threshold_mae=%s curve_max_delta=%s\n",
		r.Users, r.Events, g(r.ThresholdMAE), g(r.CurveMaxDelta))
	checkGolden(t, "behavior", got)
}

// TestAblationGoldens pins each ablation's rows without the sched-time
// column, which is wall clock.
func TestAblationGoldens(t *testing.T) {
	for _, tc := range []struct {
		id  string
		run func(int64) (AblationResult, error)
	}{
		{"ablation-swap", AblationSwap},
		{"ablation-bayes", AblationBayes},
		{"ablation-solver", AblationSolver},
		{"ablation-slot", AblationSlotLength},
		{"ablation-engine", AblationEngine},
	} {
		t.Run(tc.id, func(t *testing.T) {
			r, err := tc.run(goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, row := range r.Rows {
				fmt.Fprintf(&b, "%q saving=%s anxiety=%s\n", row.Variant, g(row.EnergySaving), g(row.AnxietyReduction))
			}
			checkGolden(t, tc.id, b.String())
		})
	}
}
