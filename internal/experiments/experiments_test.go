package experiments

import (
	"strings"
	"testing"

	"lpvs/internal/video"
)

func evalCfg() EvalConfig {
	cfg := DefaultEvalConfig()
	cfg.Slots = 12 // keep the test suite quick
	return cfg
}

func TestFig1DisplayDominates(t *testing.T) {
	r := Fig1()
	if len(r.LCD) == 0 || len(r.OLED) == 0 {
		t.Fatal("empty breakdowns")
	}
	if !strings.Contains(r.Render(), "display share") {
		t.Fatal("render incomplete")
	}
}

func TestFig2HeadlineNumbers(t *testing.T) {
	r, err := Fig2(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 2032 {
		t.Fatalf("N = %d", r.N)
	}
	if r.LBARate < 0.88 || r.LBARate > 0.95 {
		t.Fatalf("LBA rate %v, want near 0.9188", r.LBARate)
	}
	if r.Curve.AtLevel(20) < 0.5 || r.Curve.AtLevel(20) > 0.9 {
		t.Fatalf("curve at 20%% = %v, want near 0.72", r.Curve.AtLevel(20))
	}
	if !strings.Contains(r.Render(), "LBA incidence") {
		t.Fatal("render incomplete")
	}
}

func TestTable1WithinPublishedBands(t *testing.T) {
	r, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 11 {
		t.Fatalf("%d rows, want 11", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Measured savings must stay within (or very near) the published
		// range; the OLED driver floor can push the bottom slightly
		// below.
		if row.MeasuredLo < row.Strategy.SavingLo-0.10 {
			t.Errorf("%q: measured lo %v far below published %v",
				row.Strategy.Name, row.MeasuredLo, row.Strategy.SavingLo)
		}
		if row.MeasuredHi > row.Strategy.SavingHi+0.02 {
			t.Errorf("%q: measured hi %v above published %v",
				row.Strategy.Name, row.MeasuredHi, row.Strategy.SavingHi)
		}
		if row.MeasuredAvg <= 0 {
			t.Errorf("%q: no average saving", row.Strategy.Name)
		}
	}
	if r.AvgLo > r.AvgHi {
		t.Fatal("inverted catalogue bounds")
	}
}

func TestTable2Renders(t *testing.T) {
	out := Table2(1).Render()
	for _, want := range []string{"Gender", "Occupation", "N = 2032"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFig5PopulationAndShape(t *testing.T) {
	r, err := Fig5(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Channels != 1566 || r.Sessions != 4761 {
		t.Fatalf("population %d/%d, want 1566/4761", r.Channels, r.Sessions)
	}
	if r.Median < 60 || r.Median > 150 {
		t.Fatalf("median %v min", r.Median)
	}
}

func TestFig7PaperShape(t *testing.T) {
	r, err := Fig7(evalCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows, want 6 (sizes 50-100)", len(r.Rows))
	}
	// Paper: ~35% average energy saving, ~7% anxiety reduction.
	if r.AvgSaving < 0.28 || r.AvgSaving > 0.45 {
		t.Fatalf("avg saving %v outside the paper band", r.AvgSaving)
	}
	if r.AvgAnxiety < 0.02 || r.AvgAnxiety > 0.15 {
		t.Fatalf("avg anxiety reduction %v outside the paper band", r.AvgAnxiety)
	}
	if r.MaxSaving < r.AvgSaving || r.MaxAnxiety < r.AvgAnxiety {
		t.Fatal("max below average")
	}
}

func TestFig8PaperShape(t *testing.T) {
	cfg := evalCfg()
	r, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Energy saving decreases with N for every lambda.
	for _, l := range r.Lambdas {
		first, _ := r.Cell(r.Sizes[0], l)
		last, _ := r.Cell(r.Sizes[len(r.Sizes)-1], l)
		if last.EnergySaving >= first.EnergySaving {
			t.Fatalf("lambda=%v: saving did not decrease with N (%v -> %v)",
				l, first.EnergySaving, last.EnergySaving)
		}
		if last.AnxietyReduction >= first.AnxietyReduction {
			t.Fatalf("lambda=%v: anxiety reduction did not decrease with N", l)
		}
	}
	// Larger lambda must not save more energy, and must not reduce
	// anxiety less, at fixed N (paper's Fig. 8 trade-off).
	for _, n := range r.Sizes {
		lo, _ := r.Cell(n, r.Lambdas[0])
		hi, _ := r.Cell(n, r.Lambdas[len(r.Lambdas)-1])
		if hi.EnergySaving > lo.EnergySaving+0.01 {
			t.Fatalf("N=%d: higher lambda saved more energy", n)
		}
		if hi.AnxietyReduction < lo.AnxietyReduction-0.01 {
			t.Fatalf("N=%d: higher lambda reduced anxiety less", n)
		}
	}
}

func TestFig9PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("8-hour emulations")
	}
	r, err := Fig9(evalCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.CohortSize == 0 {
		t.Fatal("empty cohort")
	}
	if r.TreatedMin <= r.BaselineMin {
		t.Fatal("LPVS did not extend TPV")
	}
	// Paper: +38.8%; accept the 20-50% band.
	if r.Gain < 0.20 || r.Gain > 0.55 {
		t.Fatalf("TPV gain %v outside [0.20, 0.55]", r.Gain)
	}
}

// TestFig10LinearScaling asserts the paper's linear-scaling claim on the
// work the scheduler did, which is a pure function of the seed and the
// group size. The wall-clock fit stays in the experiment's report
// (lpvs-bench prints it; a dedicated run gives R^2 > 0.99) but is not
// asserted: on a shared test machine it is noise.
func TestFig10LinearScaling(t *testing.T) {
	cfg := evalCfg()
	sizes := []int{500, 1000, 2000, 3000}
	// Fig10 fails if any of a row's five trials comes back Replayed: the
	// figure is five cold solves, never a cache.
	r, err := Fig10(cfg, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.Rows {
		// Every device is compacted exactly once by a cold solve, and
		// the greedy Phase-1 above the exact threshold expands no nodes,
		// so work per device stays within a small constant of one.
		if row.GroupSize != sizes[i] || row.Work < row.GroupSize || row.Work > 2*row.GroupSize {
			t.Fatalf("N=%d: %d work units, want between N and 2N", row.GroupSize, row.Work)
		}
		if row.Seconds <= 0 {
			t.Fatalf("N=%d: no wall time measured", row.GroupSize)
		}
	}
	if r.WorkFit.Slope <= 0 {
		t.Fatalf("work not growing with N: slope %v", r.WorkFit.Slope)
	}
	if r.WorkFit.R2 < 0.999 {
		t.Fatalf("work not linear in N: R^2 = %v", r.WorkFit.R2)
	}
	again, err := Fig10(cfg, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		if again.Rows[i].Work != r.Rows[i].Work {
			t.Fatalf("N=%d: work counter not deterministic: %d then %d", sizes[i], r.Rows[i].Work, again.Rows[i].Work)
		}
	}
}

func TestAblationSwapHelpsAnxiety(t *testing.T) {
	r, err := AblationSwap(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatal("want 2 variants")
	}
	full, phase1 := r.Rows[0], r.Rows[1]
	if full.AnxietyReduction < phase1.AnxietyReduction-0.01 {
		t.Fatalf("phase-2 lowered anxiety reduction: %v vs %v",
			full.AnxietyReduction, phase1.AnxietyReduction)
	}
}

func TestAblationBayesRuns(t *testing.T) {
	r, err := AblationBayes(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.EnergySaving <= 0 {
			t.Fatalf("%s: no saving", row.Variant)
		}
	}
}

func TestAblationSolverOrdering(t *testing.T) {
	r, err := AblationSolver(1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Variant] = row
	}
	lpvs := byName["lpvs two-phase"]
	random := byName["random"]
	if lpvs.EnergySaving < random.EnergySaving-0.01 {
		t.Fatalf("LPVS (%v) did not beat random (%v) on energy", lpvs.EnergySaving, random.EnergySaving)
	}
}

func TestAblationSlotLength(t *testing.T) {
	r, err := AblationSlotLength(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatal("want 3 slot lengths")
	}
	if !strings.Contains(r.Render(), "slot=300s") {
		t.Fatal("render incomplete")
	}
}

func TestTraceWideAggregates(t *testing.T) {
	r, err := TraceWide(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Channels == 0 || r.Channels > 8 {
		t.Fatalf("channels = %d", r.Channels)
	}
	if r.Devices == 0 {
		t.Fatal("no devices")
	}
	if r.EnergySaving <= 0.1 {
		t.Fatalf("trace-wide saving %v", r.EnergySaving)
	}
	if !strings.Contains(r.Render(), "virtual cluster") {
		t.Fatal("render incomplete")
	}
}

func TestBehaviorEstimation(t *testing.T) {
	r, err := Behavior(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ThresholdMAE > 6 {
		t.Fatalf("threshold MAE %v", r.ThresholdMAE)
	}
	if r.CurveMaxDelta > 0.12 {
		t.Fatalf("curve deviation %v", r.CurveMaxDelta)
	}
	if !strings.Contains(r.Render(), "charging log") {
		t.Fatal("render incomplete")
	}
}

func TestOverheadOneSlotAheadFree(t *testing.T) {
	r, err := Overhead(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.AheadRebufferS != 0 {
			t.Fatalf("one-slot-ahead stalled at N=%d", row.GroupSize)
		}
		if row.InlineStartupS < row.AheadStartupS {
			t.Fatalf("inline startup cheaper than ahead at N=%d", row.GroupSize)
		}
	}
	if !strings.Contains(r.Render(), "one-slot-ahead") {
		t.Fatal("render incomplete")
	}
}

func TestAutoDimComparison(t *testing.T) {
	r, err := AutoDim(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	lpvsRow, dimRow := r.Rows[0], r.Rows[1]
	if lpvsRow.EnergySaving <= dimRow.EnergySaving {
		t.Fatalf("LPVS (%v) must out-save auto-dim (%v)",
			lpvsRow.EnergySaving, dimRow.EnergySaving)
	}
	if lpvsRow.QualityLoss >= dimRow.QualityLoss {
		t.Fatalf("LPVS per-chunk loss (%v) must undercut auto-dim (%v)",
			lpvsRow.QualityLoss, dimRow.QualityLoss)
	}
	if !strings.Contains(r.Render(), "auto-dim") {
		t.Fatal("render incomplete")
	}
}

func TestValidationForecastTight(t *testing.T) {
	r, err := Validation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MAE <= 0 || row.MAE > 0.02 {
			t.Fatalf("%s: MAE %v outside (0, 0.02]", row.Scenario, row.MAE)
		}
	}
	full, partial := r.Rows[0].MAE, r.Rows[1].MAE
	if partial <= full {
		t.Fatalf("partial windows (%v) should forecast worse than full (%v)", partial, full)
	}
	if !strings.Contains(r.Render(), "Model validation") {
		t.Fatal("render incomplete")
	}
}

func TestSyntheticCluster(t *testing.T) {
	reqs, err := syntheticCluster(1, 50, video.Gaming)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 50 {
		t.Fatalf("%d requests, want 50", len(reqs))
	}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
