package emu

import (
	"math"
	"testing"

	"lpvs/internal/device"
	"lpvs/internal/scheduler"
	"lpvs/internal/stats"
	"lpvs/internal/survey"
	"lpvs/internal/video"
)

func baseConfig() Config {
	return Config{
		Seed:          7,
		GroupSize:     40,
		Slots:         12,
		Lambda:        1,
		ServerStreams: -1, // sufficient capacity
		Genre:         video.Gaming,
	}
}

func mustCompare(tb testing.TB, cfg Config, policy scheduler.Policy) *Comparison {
	tb.Helper()
	c, err := Compare(cfg, policy)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func toFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.GroupSize = 0 },
		func(c *Config) { c.Slots = 0 },
		func(c *Config) { c.SlotSec = -5 },
		func(c *Config) { c.SlotSec = 5 }, // shorter than one chunk
		func(c *Config) { c.FixedGamma = 1 },
		func(c *Config) { c.FixedGamma = -0.2 },
	}
	for i, mut := range bad {
		cfg := baseConfig()
		mut(&cfg)
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunBasicInvariants(t *testing.T) {
	e, err := New(baseConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SlotsRun != 12 {
		t.Fatalf("slots run = %d, want 12", res.SlotsRun)
	}
	if res.Policy != "lpvs" {
		t.Fatalf("policy = %q", res.Policy)
	}
	if res.DisplayEnergyJ <= 0 || res.UntransformedDisplayEnergyJ < res.DisplayEnergyJ {
		t.Fatalf("energy accounting broken: actual %v untransformed %v",
			res.DisplayEnergyJ, res.UntransformedDisplayEnergyJ)
	}
	if res.AnxietySamples != 40*12 {
		t.Fatalf("anxiety samples = %d, want %d", res.AnxietySamples, 40*12)
	}
	if len(res.TPVMin) != 40 || len(res.SelectedPerSlot) != 12 {
		t.Fatal("result vector sizes wrong")
	}
	for i, tpv := range res.TPVMin {
		if tpv < 0 || tpv > 60.0+1e-9 { // 12 slots x 5 min
			t.Fatalf("device %d TPV %v outside [0, 60]", i, tpv)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := New(baseConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(baseConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ra.DisplayEnergyJ != rb.DisplayEnergyJ || ra.MeanAnxiety() != rb.MeanAnxiety() {
		t.Fatal("equal-seed runs diverged")
	}
	for i := range ra.TPVMin {
		if ra.TPVMin[i] != rb.TPVMin[i] {
			t.Fatalf("TPV for device %d differs", i)
		}
	}
}

func TestNoTransformSavesNothing(t *testing.T) {
	e, err := New(baseConfig(), scheduler.NoTransform{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergySavingRatio() != 0 {
		t.Fatalf("no-transform saved %v", res.EnergySavingRatio())
	}
	for slot, n := range res.SelectedPerSlot {
		if n != 0 {
			t.Fatalf("slot %d selected %d devices under no-transform", slot, n)
		}
	}
}

func TestLPVSSavesEnergyInPaperBand(t *testing.T) {
	c := mustCompare(t, baseConfig(), nil)
	saving := c.EnergySavingRatio()
	// Paper Fig. 7: average 35.2%, max 37.13% under sufficient capacity.
	if saving < 0.25 || saving > 0.45 {
		t.Fatalf("energy saving %v outside the plausible paper band [0.25, 0.45]", saving)
	}
}

func TestLPVSReducesAnxiety(t *testing.T) {
	c := mustCompare(t, baseConfig(), nil)
	red := c.AnxietyReduction()
	if red <= 0 {
		t.Fatalf("anxiety reduction %v, want positive", red)
	}
	if red > 0.3 {
		t.Fatalf("anxiety reduction %v implausibly large", red)
	}
}

func TestLPVSExtendsLowBatteryTPV(t *testing.T) {
	cfg := baseConfig()
	cfg.Slots = 48
	cfg.GroupSize = 60
	ds := survey.Generate(survey.DefaultConfig())
	cfg.GiveUpSampler = SurveyGiveUpSampler(ds)
	c := mustCompare(t, cfg, nil)
	base, treated, gain := c.TPVGain()
	if c.CohortSize() == 0 {
		t.Fatal("empty low-battery cohort")
	}
	if treated <= base {
		t.Fatalf("LPVS did not extend watching: %v vs %v", treated, base)
	}
	if gain < 0.10 {
		t.Fatalf("TPV gain %v, want at least 10%%", gain)
	}
}

func TestLimitedCapacityReducesSaving(t *testing.T) {
	plentiful := baseConfig()
	plentiful.GroupSize = 120
	plentiful.ServerStreams = 200

	starved := plentiful
	starved.ServerStreams = 20

	cp := mustCompare(t, plentiful, nil)
	cs := mustCompare(t, starved, nil)
	if cs.EnergySavingRatio() >= cp.EnergySavingRatio() {
		t.Fatalf("starved capacity (%v) should save less than plentiful (%v)",
			cs.EnergySavingRatio(), cp.EnergySavingRatio())
	}
	// Capacity is denominated in 720p units, so cheap 480p or partially
	// cached streams can push the count above 20 — but nowhere near the
	// whole cluster.
	for slot, n := range cs.Treated.SelectedPerSlot {
		if n > 60 {
			t.Fatalf("slot %d transformed %d streams on a 20-unit server", slot, n)
		}
	}
	meanStarved := stats.Mean(toFloats(cs.Treated.SelectedPerSlot))
	meanPlenty := stats.Mean(toFloats(cp.Treated.SelectedPerSlot))
	if meanStarved >= meanPlenty {
		t.Fatalf("starved server selected %v per slot vs plentiful %v", meanStarved, meanPlenty)
	}
}

func TestLambdaShiftsSelectionTowardAnxious(t *testing.T) {
	// Under limited capacity, higher lambda must not reduce the anxiety
	// reduction.
	mk := func(lambda float64) *Comparison {
		cfg := baseConfig()
		cfg.GroupSize = 90
		cfg.ServerStreams = 25
		cfg.Slots = 18
		cfg.Lambda = lambda
		return mustCompare(t, cfg, nil)
	}
	lo := mk(0)
	hi := mk(8)
	if hi.AnxietyReduction() < lo.AnxietyReduction()-0.005 {
		t.Fatalf("lambda=8 anxiety reduction %v below lambda=0 %v",
			hi.AnxietyReduction(), lo.AnxietyReduction())
	}
}

func TestFixedGammaAblationRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.FixedGamma = 0.31
	c := mustCompare(t, cfg, nil)
	if c.EnergySavingRatio() <= 0 {
		t.Fatal("fixed-gamma run saved nothing")
	}
}

func TestBaselinePoliciesRun(t *testing.T) {
	cfg := baseConfig()
	cfg.GroupSize = 50
	cfg.ServerStreams = 15
	scfg, err := SchedulerConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := scheduler.NewRandomPolicy(scfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := scheduler.NewGreedyBatteryPolicy(scfg)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := scheduler.NewJointKnapsackPolicy(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []scheduler.Policy{rnd, gb, joint} {
		c := mustCompare(t, cfg, p)
		if c.Treated.Policy != p.Name() {
			t.Fatalf("policy name mismatch: %q vs %q", c.Treated.Policy, p.Name())
		}
		if c.EnergySavingRatio() <= 0 {
			t.Fatalf("%s saved nothing", p.Name())
		}
	}
}

func TestLPVSBeatsRandomOnObjectiveMetrics(t *testing.T) {
	cfg := baseConfig()
	cfg.GroupSize = 100
	cfg.ServerStreams = 25
	cfg.Slots = 18

	lp := mustCompare(t, cfg, nil)
	scfg, err := SchedulerConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := scheduler.NewRandomPolicy(scfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	rd := mustCompare(t, cfg, rnd)
	if lp.EnergySavingRatio() <= rd.EnergySavingRatio() {
		t.Fatalf("LPVS energy saving %v does not beat random %v",
			lp.EnergySavingRatio(), rd.EnergySavingRatio())
	}
}

func TestGammaLearningImprovesEstimates(t *testing.T) {
	cfg := baseConfig()
	cfg.Slots = 20
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float64, len(e.estimators))
	for i, est := range e.estimators {
		before[i] = est.Uncertainty()
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tightened := 0
	for i, est := range e.estimators {
		if est.Observations() > 0 && est.Uncertainty() < before[i] {
			tightened++
		}
	}
	if tightened < len(e.estimators)/2 {
		t.Fatalf("only %d of %d estimators learned anything", tightened, len(e.estimators))
	}
}

func TestDeadClusterStopsScheduling(t *testing.T) {
	cfg := baseConfig()
	cfg.GiveUpSampler = func(*stats.RNG) float64 { return 0 }
	cfg.Slots = 30
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range e.devices {
		d.Battery.LevelJ = 0.03 * d.Battery.CapacityJ // nearly dead fleet
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// All devices drain out; later slots must select nothing.
	last := res.SelectedPerSlot[len(res.SelectedPerSlot)-1]
	if last != 0 {
		t.Fatalf("dead cluster still scheduling %d devices", last)
	}
	dead := 0
	for _, s := range res.FinalState {
		if s == device.BatteryDead {
			dead++
		}
	}
	if dead < cfg.GroupSize/2 {
		t.Fatalf("only %d devices died in a near-dead fleet", dead)
	}
}

func TestZeroCapacityServer(t *testing.T) {
	cfg := baseConfig()
	cfg.ServerStreams = 0
	c := mustCompare(t, cfg, nil)
	if c.EnergySavingRatio() != 0 {
		t.Fatalf("zero-capacity edge saved %v", c.EnergySavingRatio())
	}
}

func TestSurveyGiveUpSampler(t *testing.T) {
	ds := survey.Generate(survey.DefaultConfig())
	sampler := SurveyGiveUpSampler(ds)
	if sampler == nil {
		t.Fatal("nil sampler for populated dataset")
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 200; i++ {
		v := sampler(rng)
		if v < 0.01 || v > 1 {
			t.Fatalf("sampled give-up %v outside (0, 1]", v)
		}
	}
	if SurveyGiveUpSampler(&survey.Dataset{}) != nil {
		t.Fatal("empty dataset must yield nil sampler")
	}
}

func TestEnergySavingRatioEdgeCases(t *testing.T) {
	r := &RunResult{}
	if r.EnergySavingRatio() != 0 || r.MeanAnxiety() != 0 {
		t.Fatal("zero-value result must report zeros")
	}
	if r.MeanTPVMin(nil) != 0 {
		t.Fatal("empty TPV mean")
	}
	if got := (&RunResult{TPVMin: []float64{2, 4}}).MeanTPVMin(nil); math.Abs(got-3) > 1e-12 {
		t.Fatalf("TPV mean = %v, want 3", got)
	}
}

func TestTimelineRecorded(t *testing.T) {
	e, err := New(baseConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != res.SlotsRun {
		t.Fatalf("timeline %d entries for %d slots", len(res.Timeline), res.SlotsRun)
	}
	for i, st := range res.Timeline {
		if st.Slot != i {
			t.Fatalf("slot index %d at position %d", st.Slot, i)
		}
		if st.MeanEnergyFrac < 0 || st.MeanEnergyFrac > 1 || st.MeanAnxiety < 0 || st.MeanAnxiety > 1 {
			t.Fatalf("bad aggregates %+v", st)
		}
		if st.Watching < 0 || st.Watching > 40 {
			t.Fatalf("watching %d", st.Watching)
		}
	}
	// Batteries only drain: mean energy is non-increasing.
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].MeanEnergyFrac > res.Timeline[i-1].MeanEnergyFrac+1e-9 {
			t.Fatal("mean energy increased across slots")
		}
	}
}

func TestEnergyForecastAccurate(t *testing.T) {
	// The scheduler's compacted energy model must track reality closely:
	// with a perfect cache (full windows) and learned gamma, the forecast
	// error should be well under one battery percent.
	cfg := baseConfig()
	cfg.Slots = 16
	cfg.CacheHitRatio = 1
	cfg.CacheMinPrefix = 0.99
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PredErrSamples == 0 {
		t.Fatal("no forecast samples")
	}
	if mae := res.MeanEnergyPredictionError(); mae > 0.01 {
		t.Fatalf("forecast error %v battery fraction, want < 0.01", mae)
	}
}

func TestEnergyForecastDegradesWithPartialWindows(t *testing.T) {
	run := func(hit float64) float64 {
		cfg := baseConfig()
		cfg.Slots = 16
		cfg.CacheHitRatio = hit
		cfg.CacheMinPrefix = 0.2
		e, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanEnergyPredictionError()
	}
	full := run(0.999)
	starved := run(0.01)
	if starved <= full {
		t.Fatalf("partial windows (%v) should hurt forecasts vs full (%v)", starved, full)
	}
}

func TestAutoDimSavesEnergyWithQualityCost(t *testing.T) {
	cfg := baseConfig()
	cfg.Slots = 24
	cfg.GiveUpSampler = func(*stats.RNG) float64 { return 0.01 }
	cfg.AutoDimBelow = 0.5 // dim half the fleet from the start
	e, err := New(cfg, scheduler.NoTransform{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergySavingRatio() <= 0 {
		t.Fatal("auto-dim saved nothing")
	}
	if res.MeanAffectedQualityLoss() < 0.3 {
		t.Fatalf("uncompensated dimming should cost heavy quality, got %v",
			res.MeanAffectedQualityLoss())
	}
	// Validation.
	bad := baseConfig()
	bad.AutoDimBelow = 1.5
	if _, err := New(bad, nil); err == nil {
		t.Fatal("bad threshold accepted")
	}
}

func TestLPVSQualityLossBounded(t *testing.T) {
	c := mustCompare(t, baseConfig(), nil)
	q := c.Treated.MeanAffectedQualityLoss()
	if q <= 0 || q > 0.3 {
		t.Fatalf("LPVS per-chunk quality loss %v outside (0, 0.3]", q)
	}
	if c.Baseline.MeanQualityLoss() != 0 {
		t.Fatal("baseline run recorded quality loss")
	}
}

func TestPersonalizedAnxietyRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.PersonalizedAnxiety = true
	cfg.GroupSize = 80
	cfg.ServerStreams = 20 // constrained, so the curves matter
	cfg.Lambda = 5
	c := mustCompare(t, cfg, nil)
	if c.EnergySavingRatio() <= 0 {
		t.Fatal("personalized run saved nothing")
	}
	if c.AnxietyReduction() <= 0 {
		t.Fatal("personalized run reduced no anxiety")
	}
	// Personalization is deterministic.
	c2 := mustCompare(t, cfg, nil)
	if c.EnergySavingRatio() != c2.EnergySavingRatio() {
		t.Fatal("personalized runs diverged")
	}
}

func TestMultiStreamCluster(t *testing.T) {
	cfg := baseConfig()
	cfg.Streams = 4
	c := mustCompare(t, cfg, nil)
	if c.EnergySavingRatio() <= 0.1 {
		t.Fatalf("multi-stream VC saved only %v", c.EnergySavingRatio())
	}
	// Validation: more streams than devices is rejected.
	bad := baseConfig()
	bad.GroupSize = 3
	bad.Streams = 5
	if _, err := New(bad, nil); err == nil {
		t.Fatal("streams > devices accepted")
	}
	bad = baseConfig()
	bad.Streams = -1
	if _, err := New(bad, nil); err == nil {
		t.Fatal("negative streams accepted")
	}
}

func TestMultiStreamDeterministic(t *testing.T) {
	cfg := baseConfig()
	cfg.Streams = 3
	a := mustCompare(t, cfg, nil)
	b := mustCompare(t, cfg, nil)
	if a.EnergySavingRatio() != b.EnergySavingRatio() {
		t.Fatal("multi-stream runs diverged")
	}
}

func TestPerPixelEngine(t *testing.T) {
	cfg := baseConfig()
	cfg.UseFrames = true
	c := mustCompare(t, cfg, nil)
	saving := c.EnergySavingRatio()
	if saving <= 0.1 {
		t.Fatalf("per-pixel engine saved only %v", saving)
	}
	// The aggregate engine is calibrated to approximate the per-pixel
	// one; their cluster-level savings should land in the same band.
	agg := mustCompare(t, baseConfig(), nil)
	if saving < 0.5*agg.EnergySavingRatio() || saving > 2*agg.EnergySavingRatio() {
		t.Fatalf("engines diverge: per-pixel %v vs aggregate %v", saving, agg.EnergySavingRatio())
	}
}

func TestSoakAllFeaturesTogether(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// Everything at once: multi-stream VC, per-pixel engine,
	// personalized anxiety, constrained capacity, 90-minute stream.
	cfg := Config{
		Seed:                42,
		GroupSize:           100,
		Slots:               18,
		Lambda:              3,
		ServerStreams:       40,
		Streams:             4,
		UseFrames:           true,
		PersonalizedAnxiety: true,
	}
	c, err := Compare(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Treated.SlotsRun != 18 {
		t.Fatal("soak run aborted")
	}
	if c.EnergySavingRatio() <= 0.05 {
		t.Fatalf("soak saving %v", c.EnergySavingRatio())
	}
	if c.AnxietyReduction() <= 0 {
		t.Fatalf("soak anxiety reduction %v", c.AnxietyReduction())
	}
}

func TestCacheAffectsRequests(t *testing.T) {
	cfg := baseConfig()
	cfg.CacheHitRatio = 0.01
	cfg.CacheMinPrefix = 0.2
	c := mustCompare(t, cfg, nil)
	// With mostly-partial windows everything still works and saves
	// energy (playback covers the full window regardless of what the
	// scheduler saw).
	if c.EnergySavingRatio() <= 0 {
		t.Fatal("partial cache broke the pipeline")
	}
}
