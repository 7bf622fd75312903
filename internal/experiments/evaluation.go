package experiments

import (
	"fmt"
	"strings"
	"time"

	"lpvs/internal/emu"
	"lpvs/internal/scheduler"
	"lpvs/internal/stats"
	"lpvs/internal/survey"
	"lpvs/internal/video"
)

// EvalConfig bundles the knobs shared by the emulation experiments.
type EvalConfig struct {
	Seed int64
	// Slots is the emulated stream length per run.
	Slots int
	// Genre of the emulated streams.
	Genre video.Genre
}

// DefaultEvalConfig matches the paper's setup closely enough for the
// shapes to land while keeping the harness fast.
func DefaultEvalConfig() EvalConfig {
	return EvalConfig{Seed: 1, Slots: 24, Genre: video.Gaming}
}

// giveUpSampler builds the survey-driven give-up behaviour shared by the
// emulation experiments.
func giveUpSampler(seed int64) func(*stats.RNG) float64 {
	cfg := survey.DefaultConfig()
	cfg.Seed = seed
	return emu.SurveyGiveUpSampler(survey.Generate(cfg))
}

// Fig7Row is one sufficient-capacity group result.
type Fig7Row struct {
	GroupSize        int
	EnergySaving     float64
	AnxietyReduction float64
}

// Fig7Result is the sufficient-capacity evaluation.
type Fig7Result struct {
	Rows []Fig7Row
	// Aggregates across the groups, matching the numbers the paper
	// quotes (avg 35.20% / max 37.13% saving; avg 6.82% / max 7.36%
	// anxiety reduction).
	AvgSaving, MaxSaving   float64
	AvgAnxiety, MaxAnxiety float64
}

// Fig7 evaluates LPVS with sufficient edge resource: VC sizes 50-100 on
// an unbounded server.
func Fig7(cfg EvalConfig) (Fig7Result, error) {
	var res Fig7Result
	sampler := giveUpSampler(cfg.Seed)
	for size := 50; size <= 100; size += 10 {
		ec := emu.Config{
			Seed:          cfg.Seed + int64(size),
			GroupSize:     size,
			Slots:         cfg.Slots,
			Lambda:        1,
			ServerStreams: -1,
			Genre:         cfg.Genre,
		}
		ec.GiveUpSampler = sampler
		c, err := emu.Compare(ec, nil)
		if err != nil {
			return Fig7Result{}, err
		}
		row := Fig7Row{
			GroupSize:        size,
			EnergySaving:     c.EnergySavingRatio(),
			AnxietyReduction: c.AnxietyReduction(),
		}
		res.Rows = append(res.Rows, row)
		res.AvgSaving += row.EnergySaving
		res.AvgAnxiety += row.AnxietyReduction
		if row.EnergySaving > res.MaxSaving {
			res.MaxSaving = row.EnergySaving
		}
		if row.AnxietyReduction > res.MaxAnxiety {
			res.MaxAnxiety = row.AnxietyReduction
		}
	}
	res.AvgSaving /= float64(len(res.Rows))
	res.AvgAnxiety /= float64(len(res.Rows))
	return res, nil
}

// Render implements the text report.
func (r Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 7 — LPVS with sufficient edge resource\n")
	b.WriteString("group  energy-saving  anxiety-reduction\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%5d   %6.2f%%        %5.2f%%\n",
			row.GroupSize, 100*row.EnergySaving, 100*row.AnxietyReduction)
	}
	fmt.Fprintf(&b, "avg saving %.2f%% (paper 35.20%%), max %.2f%% (paper 37.13%%)\n",
		100*r.AvgSaving, 100*r.MaxSaving)
	fmt.Fprintf(&b, "avg anxiety reduction %.2f%% (paper 6.82%%), max %.2f%% (paper 7.36%%)\n",
		100*r.AvgAnxiety, 100*r.MaxAnxiety)
	return b.String()
}

// Fig8Cell is one (group size, lambda) result under limited capacity.
type Fig8Cell struct {
	GroupSize        int
	Lambda           float64
	EnergySaving     float64
	AnxietyReduction float64
}

// Fig8Result is the limited-capacity sweep.
type Fig8Result struct {
	Lambdas []float64
	Sizes   []int
	Cells   []Fig8Cell
}

// Fig8 evaluates LPVS with limited edge resource (the paper's 100-stream
// server) for VC sizes 100-500 across lambda settings.
func Fig8(cfg EvalConfig) (Fig8Result, error) {
	res := Fig8Result{
		Lambdas: []float64{0, 1, 5},
		Sizes:   []int{100, 200, 300, 400, 500},
	}
	sampler := giveUpSampler(cfg.Seed)
	slots := cfg.Slots
	if slots > 12 {
		slots = 12 // the sweep is quadratic in work; cap the tail
	}
	for _, lambda := range res.Lambdas {
		for _, size := range res.Sizes {
			ec := emu.Config{
				Seed:          cfg.Seed + int64(size),
				GroupSize:     size,
				Slots:         slots,
				Lambda:        lambda,
				ServerStreams: 100,
				Genre:         cfg.Genre,
			}
			ec.GiveUpSampler = sampler
			c, err := emu.Compare(ec, nil)
			if err != nil {
				return Fig8Result{}, err
			}
			res.Cells = append(res.Cells, Fig8Cell{
				GroupSize:        size,
				Lambda:           lambda,
				EnergySaving:     c.EnergySavingRatio(),
				AnxietyReduction: c.AnxietyReduction(),
			})
		}
	}
	return res, nil
}

// Cell returns the result for a (size, lambda) pair.
func (r Fig8Result) Cell(size int, lambda float64) (Fig8Cell, bool) {
	for _, c := range r.Cells {
		if c.GroupSize == size && c.Lambda == lambda {
			return c, true
		}
	}
	return Fig8Cell{}, false
}

// Render implements the text report.
func (r Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 8 — LPVS with limited edge resource (100-stream server)\n")
	b.WriteString("(a) energy saving\n        ")
	for _, l := range r.Lambdas {
		fmt.Fprintf(&b, "lambda=%-4.1f ", l)
	}
	b.WriteString("\n")
	for _, size := range r.Sizes {
		fmt.Fprintf(&b, "N=%-4d  ", size)
		for _, l := range r.Lambdas {
			c, _ := r.Cell(size, l)
			fmt.Fprintf(&b, "%6.2f%%     ", 100*c.EnergySaving)
		}
		b.WriteString("\n")
	}
	b.WriteString("(b) anxiety reduction\n        ")
	for _, l := range r.Lambdas {
		fmt.Fprintf(&b, "lambda=%-4.1f ", l)
	}
	b.WriteString("\n")
	for _, size := range r.Sizes {
		fmt.Fprintf(&b, "N=%-4d  ", size)
		for _, l := range r.Lambdas {
			c, _ := r.Cell(size, l)
			fmt.Fprintf(&b, "%6.2f%%     ", 100*c.AnxietyReduction)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig9Result is the time-per-viewer comparison for low-battery users.
type Fig9Result struct {
	CohortSize  int
	BaselineMin float64
	TreatedMin  float64
	Gain        float64
}

// Fig9 measures watching time of low-battery users (energy in (0, 40%]
// at stream start, served by LPVS) with and without LPVS, under
// sufficient capacity. Streams run long enough (8 h) that give-up, not
// stream end, terminates most low-battery sessions.
func Fig9(cfg EvalConfig) (Fig9Result, error) {
	sampler := giveUpSampler(cfg.Seed)
	var res Fig9Result
	var baseSum, treatSum float64
	for _, size := range []int{60, 80, 100} {
		ec := emu.Config{
			Seed:          cfg.Seed + int64(size),
			GroupSize:     size,
			Slots:         96,
			Lambda:        1,
			ServerStreams: -1,
			Genre:         cfg.Genre,
		}
		ec.GiveUpSampler = sampler
		c, err := emu.Compare(ec, nil)
		if err != nil {
			return Fig9Result{}, err
		}
		base, treated, _ := c.TPVGain()
		n := c.CohortSize()
		baseSum += base * float64(n)
		treatSum += treated * float64(n)
		res.CohortSize += n
	}
	if res.CohortSize > 0 {
		res.BaselineMin = baseSum / float64(res.CohortSize)
		res.TreatedMin = treatSum / float64(res.CohortSize)
	}
	if res.BaselineMin > 0 {
		res.Gain = (res.TreatedMin - res.BaselineMin) / res.BaselineMin
	}
	return res, nil
}

// Render implements the text report.
func (r Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 9 — time per viewer of low-battery users\n")
	fmt.Fprintf(&b, "cohort: %d low-battery users served by LPVS\n", r.CohortSize)
	fmt.Fprintf(&b, "without LPVS: %.1f min (paper: 42.3)\n", r.BaselineMin)
	fmt.Fprintf(&b, "with    LPVS: %.1f min (paper: 58.7)\n", r.TreatedMin)
	fmt.Fprintf(&b, "gain: %.1f%% (paper: 38.8%%)\n", 100*r.Gain)
	return b.String()
}

// Fig10Row is one scheduler-runtime measurement.
type Fig10Row struct {
	GroupSize int
	Seconds   float64
	// Work counts what a cold solve does: one plan compacted per device,
	// Phase-1 branch-and-bound nodes and accepted Phase-2 swaps. Unlike
	// Seconds it is a pure function of the seed and group size.
	Work int
}

// Fig10Result is the runtime-scaling experiment.
type Fig10Result struct {
	Rows []Fig10Row
	// Fit is the wall-clock trend the paper reports; WorkFit is the same
	// fit over the deterministic work counter, which is what a test can
	// assert linearity on without depending on the machine's load.
	Fit     stats.LinearFit
	WorkFit stats.LinearFit
	// MaxDevicesPerSlot extrapolates how many devices fit a 5-minute
	// scheduling slot under the fitted trend.
	MaxDevicesPerSlot int
}

// Fig10 measures LPVS scheduling wall time against the VC group size on
// synthetic clusters, and fits the linear trend the paper reports
// (y = 0.055x - 0.324, R^2 = 0.999 on their hardware).
func Fig10(cfg EvalConfig, sizes []int) (Fig10Result, error) {
	if len(sizes) == 0 {
		sizes = []int{500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000}
	}
	var res Fig10Result
	var xs, ys, ws []float64
	for _, n := range sizes {
		reqs, err := syntheticCluster(cfg.Seed, n, cfg.Genre)
		if err != nil {
			return Fig10Result{}, err
		}
		scfg, err := emu.SchedulerConfig(emu.Config{
			Seed: cfg.Seed, GroupSize: n, Slots: 1, Lambda: 1,
			ServerStreams: 100, Genre: cfg.Genre,
		})
		if err != nil {
			return Fig10Result{}, err
		}
		sched, err := scheduler.New(scfg)
		if err != nil {
			return Fig10Result{}, err
		}
		// Best of five cold solves: wall-clock noise from a loaded
		// machine only ever inflates a measurement, so the minimum is
		// the cleanest estimate of the true cost.
		row := Fig10Row{GroupSize: n}
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			dec, err := sched.Schedule(reqs)
			if err != nil {
				return Fig10Result{}, err
			}
			if t := time.Since(start).Seconds(); trial == 0 || t < row.Seconds {
				row.Seconds = t
			}
			row.Work = len(reqs) + dec.Phase1Nodes + dec.Swaps
		}
		res.Rows = append(res.Rows, row)
		xs = append(xs, float64(n))
		ys = append(ys, row.Seconds)
		ws = append(ws, float64(row.Work))
	}
	res.Fit = stats.FitLine(xs, ys)
	res.WorkFit = stats.FitLine(xs, ws)
	if res.Fit.Slope > 0 {
		res.MaxDevicesPerSlot = int((scheduler.DefaultSlotSeconds - res.Fit.Intercept) / res.Fit.Slope)
	}
	return res, nil
}

// Render implements the text report.
func (r Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 10 — LPVS scheduler running time vs VC group size\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "N=%-5d  %8.4f s  %7d work units\n", row.GroupSize, row.Seconds, row.Work)
	}
	fmt.Fprintf(&b, "linear fit: y = %.3gx %+.3g (R^2 = %.4f; paper: y = 0.055x - 0.324, R^2 = 0.999)\n",
		r.Fit.Slope, r.Fit.Intercept, r.Fit.R2)
	fmt.Fprintf(&b, "work fit:   %.3g units per device (R^2 = %.4f; devices compacted + Phase-1 nodes + Phase-2 swaps)\n",
		r.WorkFit.Slope, r.WorkFit.R2)
	fmt.Fprintf(&b, "extrapolated capacity within one 5-min slot: %d devices (paper: >5000)\n",
		r.MaxDevicesPerSlot)
	return b.String()
}

// syntheticCluster builds a standalone request set for scheduler-only
// experiments.
func syntheticCluster(seed int64, n int, genre video.Genre) ([]scheduler.Request, error) {
	ec := emu.Config{Seed: seed, GroupSize: n, Slots: 1, Lambda: 1, ServerStreams: 100, Genre: genre}
	e, err := emu.New(ec, scheduler.NoTransform{})
	if err != nil {
		return nil, err
	}
	return e.SnapshotRequests()
}
