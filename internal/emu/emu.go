// Package emu implements the LPVS emulator (paper section VI, Fig. 6):
// a time-slotted loop of information gathering, one-slot-ahead request
// scheduling, video transforming, playback with battery drain, and
// Bayesian updating of the per-device power-reduction ratio.
//
// A virtual cluster is the audience sharing one edge server — by default
// one Twitch channel's viewers, optionally split across several live
// streams (Config.Streams). Every device plays its stream on its own
// display (so with its own power rates) and its own battery. Metrics
// mirror the paper's evaluation:
//
//   - display energy saving ratio (Figs. 7, 8a): the energy actually
//     drawn by displays vs. what the same played content would have
//     drawn untransformed;
//   - anxiety reduction (Figs. 7, 8b): mean anxiety degree across
//     devices and slots, compared against a paired baseline run without
//     LPVS (same seed, same workload);
//   - time per viewer (Fig. 9): watching minutes until give-up, device
//     death, or stream end;
//   - scheduler running time (Fig. 10).
package emu

import (
	"context"
	"fmt"
	"time"

	"lpvs/internal/anxiety"
	"lpvs/internal/bayes"
	"lpvs/internal/device"
	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/obs"
	"lpvs/internal/obs/audit"
	"lpvs/internal/obs/flight"
	"lpvs/internal/obs/history"
	"lpvs/internal/obs/slo"
	"lpvs/internal/obs/span"
	"lpvs/internal/scheduler"
	"lpvs/internal/stats"
	"lpvs/internal/transform"
	"lpvs/internal/video"
)

// Config parameterises one emulation run.
type Config struct {
	Seed int64
	// GroupSize is the virtual-cluster size N.
	GroupSize int
	// Slots is the stream length in scheduling slots (5 minutes each).
	Slots int
	// Lambda is the scheduler's energy/anxiety balance.
	Lambda float64
	// ServerStreams sizes the edge server in concurrently transformable
	// 720p streams; negative means unbounded capacity.
	ServerStreams int
	// Genre of the cluster's live stream(s).
	Genre video.Genre
	// Streams is the number of distinct live streams watched within the
	// virtual cluster (a base-station area serves several channels);
	// devices are assigned round-robin. Zero means 1. Streams beyond the
	// first rotate through the other genres.
	Streams int
	// SlotSec and ChunkSec shape the timeline; zero means defaults
	// (300 s slots of 10 s chunks).
	SlotSec, ChunkSec float64
	// Tolerance is the distortion budget granted to transforms, in
	// [0, 1].
	Tolerance float64
	// Device generation; zero value means device.DefaultGenConfig.
	Device device.GenConfig
	// Anxiety is the phi model; nil means the canonical curve.
	Anxiety anxiety.Model
	// CacheHitRatio / CacheMinPrefix override the probabilistic chunk
	// cache; zero values mean the default cache.
	CacheHitRatio, CacheMinPrefix float64
	// LRUCacheMB and PrefetchMBPerSlot, when both positive, replace the
	// probabilistic availability model with a real LRU cache filled by a
	// budgeted CDN-to-edge prefetcher (the paper's content delivery
	// strategy).
	LRUCacheMB, PrefetchMBPerSlot float64
	// DisableSwap turns off Phase-2 in the LPVS scheduler (ablation).
	DisableSwap bool
	// SchedDeadline bounds each slot's scheduling wall time; on expiry
	// the LPVS scheduler degrades to its anytime shortcuts (DESIGN.md
	// §12) and the slot is flagged in SlotStat. Zero means unbounded.
	// Only applies to the LPVS engine (a nil policy in New).
	SchedDeadline time.Duration
	// FixedGamma, when positive, disables Bayesian learning and plans
	// with this constant reduction ratio (ablation).
	FixedGamma float64
	// UseFrames switches the transform engine to the per-pixel keyframe
	// path: chunks carry synthetic keyframes, and selected streams are
	// transformed pixel by pixel instead of through the calibrated
	// aggregate statistics.
	UseFrames bool
	// AutoDimBelow, when positive, emulates the OS power saver: devices
	// whose battery drops under this fraction dim their display to
	// AutoDimFactor of its brightness — without compensation, so the
	// full luminance loss is perceived. The practical client-side
	// alternative LPVS competes against.
	AutoDimBelow float64
	// AutoDimFactor is the dimmed brightness multiplier in (0, 1];
	// zero means 0.6 when auto-dim is enabled.
	AutoDimFactor float64
	// PersonalizedAnxiety derives a per-device anxiety curve from each
	// owner's give-up threshold (users worry before they quit), so the
	// scheduler optimises personal curves instead of the population
	// average.
	PersonalizedAnxiety bool
	// ExactThreshold forwards to the scheduler; zero means its default.
	ExactThreshold int
	// Workers is the width of the scheduler.Pool the LPVS engine runs
	// slots through: the per-device information-compacting step inside
	// the slot parallelises across that many goroutines. Zero means one.
	// Only applies to the LPVS engine (a nil policy in New); explicit
	// baseline policies always run serially. Decisions are bit-identical
	// at any width — see the scheduler package's differential tests.
	Workers int
	// Progress, when non-nil, receives each slot's aggregate snapshot as
	// soon as the slot finishes — live telemetry for long campaigns. The
	// policy name distinguishes the treated run from the paired baseline.
	Progress func(policy string, st SlotStat)
	// AuditDir, when non-empty, appends one decision audit record per
	// scheduled slot to AuditDir/audit.jsonl (internal/obs/audit).
	// Records are only written when the LPVS engine decides; baselines
	// are not auditable.
	AuditDir string
	// StopAfter, when positive, ends the run after that many total
	// slots — before stream finalisation — so the caller can
	// Checkpoint() the emulator and resume it in a later process
	// (durable state, DESIGN.md §14). Zero runs all Slots.
	StopAfter int
	// SLOSlotLatency is the scheduling wall-time budget per slot behind
	// the emulator's slot-latency SLO (slower slots count as bad
	// events); zero means 250ms. The SLO engine runs on a synthetic
	// clock advancing SlotSec per slot, so campaign reports state SLO
	// compliance with the same burn-rate code that pages on the daemon.
	SLOSlotLatency time.Duration
	// Tracer, when non-nil, traces each slot as a span tree: slot →
	// gather / schedule (→ vc → compact / phase1 / phase2) / play /
	// bayes-update. Decisions are identical with tracing on or off.
	Tracer *span.Tracer
	// FlightDir, when non-empty, arms a flight recorder on the run's
	// synthetic-clock SLO engine: every alarm firing freezes an
	// incident bundle (per-slot metric history, the span ring, recent
	// audit records) into FlightDir — the same bundle format lpvsd
	// writes, inspectable with `lpvsctl flight`. Pure observation: excluded
	// from the checkpoint config hash, decisions identical either way.
	FlightDir string
}

// normalized fills defaults and validates.
func (c Config) normalized() (Config, error) {
	if c.GroupSize <= 0 {
		return c, fmt.Errorf("emu: group size %d", c.GroupSize)
	}
	if c.Slots <= 0 {
		return c, fmt.Errorf("emu: slot count %d", c.Slots)
	}
	if c.SlotSec == 0 {
		c.SlotSec = scheduler.DefaultSlotSeconds
	}
	if c.ChunkSec == 0 {
		c.ChunkSec = video.DefaultChunkSeconds
	}
	if c.SlotSec <= 0 || c.ChunkSec <= 0 || c.ChunkSec > c.SlotSec {
		return c, fmt.Errorf("emu: bad slot/chunk lengths %v/%v", c.SlotSec, c.ChunkSec)
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.70
	}
	if c.Tolerance < 0 || c.Tolerance > 1 {
		return c, fmt.Errorf("emu: tolerance %v outside [0, 1]", c.Tolerance)
	}
	if c.Device.InitMean == 0 && c.Device.InitStd == 0 {
		sampler := c.Device.GiveUpSampler
		c.Device = device.DefaultGenConfig()
		c.Device.GiveUpSampler = sampler
	}
	if c.Anxiety == nil {
		c.Anxiety = anxiety.NewCanonical()
	}
	if c.CacheHitRatio == 0 && c.CacheMinPrefix == 0 {
		dc := edge.DefaultCache()
		c.CacheHitRatio, c.CacheMinPrefix = dc.HitRatio, dc.MinPrefix
	}
	if c.FixedGamma < 0 || c.FixedGamma >= 1 {
		return c, fmt.Errorf("emu: fixed gamma %v outside [0, 1)", c.FixedGamma)
	}
	if c.Streams == 0 {
		c.Streams = 1
	}
	if c.Streams < 1 || c.Streams > c.GroupSize {
		return c, fmt.Errorf("emu: %d streams for %d devices", c.Streams, c.GroupSize)
	}
	if c.AutoDimBelow < 0 || c.AutoDimBelow > 1 {
		return c, fmt.Errorf("emu: auto-dim threshold %v outside [0, 1]", c.AutoDimBelow)
	}
	if c.AutoDimBelow > 0 && c.AutoDimFactor == 0 {
		c.AutoDimFactor = 0.6
	}
	if c.AutoDimBelow > 0 && (c.AutoDimFactor <= 0 || c.AutoDimFactor > 1) {
		return c, fmt.Errorf("emu: auto-dim factor %v outside (0, 1]", c.AutoDimFactor)
	}
	if (c.LRUCacheMB > 0) != (c.PrefetchMBPerSlot > 0) {
		return c, fmt.Errorf("emu: LRUCacheMB and PrefetchMBPerSlot must be set together")
	}
	if c.LRUCacheMB < 0 || c.PrefetchMBPerSlot < 0 {
		return c, fmt.Errorf("emu: negative LRU cache parameters")
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("emu: negative worker count %d", c.Workers)
	}
	if c.SchedDeadline < 0 {
		return c, fmt.Errorf("emu: negative scheduling deadline %v", c.SchedDeadline)
	}
	if c.StopAfter < 0 || c.StopAfter > c.Slots {
		return c, fmt.Errorf("emu: stop-after %d outside [0, %d]", c.StopAfter, c.Slots)
	}
	return c, nil
}

// RunResult aggregates one emulation run.
type RunResult struct {
	Policy   string
	SlotsRun int
	// DisplayEnergyJ is the display energy actually drawn.
	DisplayEnergyJ float64
	// UntransformedDisplayEnergyJ is what the same played seconds would
	// have drawn without transforms.
	UntransformedDisplayEnergyJ float64
	// AnxietySum accumulates the anxiety degree over device-slots;
	// AnxietySamples counts them.
	AnxietySum     float64
	AnxietySamples int
	// TPVMin is the watching time per device in minutes.
	TPVMin []float64
	// LowBatteryStart flags devices that began in (0, 40%].
	LowBatteryStart []bool
	// EverServed flags devices selected for transforming at least once.
	EverServed []bool
	// FinalState per device.
	FinalState []device.State
	// SchedSeconds is the cumulative scheduler wall time; SchedCPUSeconds
	// is the matching CPU-sum across pool workers (the policy's own wall
	// time under a baseline). Under a multi-worker pool the wall figure is
	// what the paper's Fig. 10 overhead metric should report.
	SchedSeconds    float64
	SchedCPUSeconds float64
	// QualityLossSum / QualityLossSamples track the perceptual
	// distortion introduced per played chunk, by transforms and by the
	// uncompensated auto-dim power saver. The Affected pair restricts
	// the average to chunks that were actually altered.
	QualityLossSum         float64
	QualityLossSamples     int
	AffectedQualitySum     float64
	AffectedQualitySamples int
	// SelectedPerSlot records how many devices each slot transformed.
	SelectedPerSlot []int
	// Timeline records per-slot aggregates for post-hoc analysis.
	Timeline []SlotStat
	// DegradedSlots counts slots whose decision was degraded by the
	// scheduling deadline (Config.SchedDeadline).
	DegradedSlots int
	// PredErrSum / PredErrSamples accumulate the absolute error between
	// the scheduler's compacted energy forecast for a slot and the
	// realised end-of-slot battery fraction, for devices that played the
	// slot through. Validates the paper's information-compacted model
	// (Eqs. (3), (5), (12)) against the emulated ground truth.
	PredErrSum     float64
	PredErrSamples int
	// SLO holds the final burn-rate states of the run's scheduling
	// objectives, evaluated once per slot on a synthetic clock that
	// advances SlotSec per slot; SLOAlarms counts alarm firings across
	// the run (DESIGN.md §13).
	SLO       []slo.State
	SLOAlarms int
	// FlightBundles counts incident bundles the run's flight recorder
	// wrote (Config.FlightDir; 0 when disarmed).
	FlightBundles int
}

// SlotStat is one slot's aggregate snapshot, taken after playback.
type SlotStat struct {
	Slot           int
	Watching       int
	Selected       int
	Eligible       int
	Swaps          int
	MeanEnergyFrac float64
	MeanAnxiety    float64
	// MeanGamma is the cluster mean of the Bayesian gamma estimates
	// (FixedGamma when learning is disabled).
	MeanGamma float64
	// SchedSec is the slot's scheduling wall time, with the compacting /
	// Phase-1 / Phase-2 breakdown alongside; SchedCPUSec is the CPU-sum
	// across pool workers (equal to SchedSec under a baseline policy);
	// PlaySec is the playback (battery-drain) emulation time.
	SchedSec    float64
	SchedCPUSec float64
	CompactSec  float64
	Phase1Sec   float64
	Phase2Sec   float64
	PlaySec     float64
	// Degraded marks a slot whose decision hit the scheduling deadline
	// and took the anytime shortcuts; DegradedReason says which
	// (DESIGN.md §12).
	Degraded       bool
	DegradedReason string
}

// EnergySavingRatio is the paper's Fig. 7/8a metric.
func (r *RunResult) EnergySavingRatio() float64 {
	if r.UntransformedDisplayEnergyJ <= 0 {
		return 0
	}
	return (r.UntransformedDisplayEnergyJ - r.DisplayEnergyJ) / r.UntransformedDisplayEnergyJ
}

// MeanAnxiety is the average anxiety degree over device-slots.
func (r *RunResult) MeanAnxiety() float64 {
	if r.AnxietySamples == 0 {
		return 0
	}
	return r.AnxietySum / float64(r.AnxietySamples)
}

// MeanQualityLoss is the average perceptual distortion per played chunk.
func (r *RunResult) MeanQualityLoss() float64 {
	if r.QualityLossSamples == 0 {
		return 0
	}
	return r.QualityLossSum / float64(r.QualityLossSamples)
}

// MeanAffectedQualityLoss averages distortion over only the chunks that
// were transformed or dimmed — how hard an intervention hits when it
// hits.
func (r *RunResult) MeanAffectedQualityLoss() float64 {
	if r.AffectedQualitySamples == 0 {
		return 0
	}
	return r.AffectedQualitySum / float64(r.AffectedQualitySamples)
}

// MeanEnergyPredictionError is the average absolute gap (in battery
// fraction) between the scheduler's slot forecast and reality.
func (r *RunResult) MeanEnergyPredictionError() float64 {
	if r.PredErrSamples == 0 {
		return 0
	}
	return r.PredErrSum / float64(r.PredErrSamples)
}

// MeanTPVMin averages watching minutes over a device subset (nil filter
// means all devices).
func (r *RunResult) MeanTPVMin(filter func(i int) bool) float64 {
	sum, n := 0.0, 0
	for i, tpv := range r.TPVMin {
		if filter != nil && !filter(i) {
			continue
		}
		sum += tpv
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Emulator drives one virtual cluster under one policy. A slot's
// decision comes from exactly one of two places: the engine the daemon
// ticks through (pool, with its cross-slot stream) or an explicit
// baseline Policy.
type Emulator struct {
	cfg    Config
	policy scheduler.Policy
	// pool is the LPVS engine, built when New is given no policy; policy
	// is then its Scheduler, kept for the name.
	pool *scheduler.Pool

	devices    []*device.Device
	estimators []*bayes.GammaEstimator
	// streams are the VC's live channels; deviceStream[i] indexes the
	// stream device i watches.
	streams      []*video.Video
	deviceStream []int
	cache        *edge.Cache
	cacheRNG     *stats.RNG
	prefetcher   *edge.Prefetcher            // non-nil when the LRU model is enabled
	strategies   map[bool]transform.Strategy // key: isOLED
	// frameCache memoises per-pixel transform results within one slot:
	// ApplyFrame depends only on the keyframe, the tolerance, and the
	// display type — not on the individual device — so one transform per
	// (stream, chunk, type) serves the whole cluster.
	frameCache map[frameKey]transform.Result

	// Durable-state cursor (DESIGN.md §14): nextSlot is the first slot
	// the next Run call executes; resume carries the accumulated partial
	// result installed by Restore.
	nextSlot int
	resume   *RunResult
}

// frameKey identifies a memoised per-pixel transform.
type frameKey struct {
	stream, chunk int
	oled          bool
}

// New builds an emulator. If policy is nil, the LPVS engine — a
// scheduler.Pool of Config.Workers, as the daemon runs — is constructed
// from the config (the common case); pass an explicit policy to run
// baselines.
func New(cfg Config, policy scheduler.Policy) (*Emulator, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	var pool *scheduler.Pool
	if policy == nil {
		scfg, err := SchedulerConfig(cfg)
		if err != nil {
			return nil, err
		}
		pool, err = scheduler.NewPool(scfg, scheduler.PoolConfig{Workers: max(cfg.Workers, 1)})
		if err != nil {
			return nil, err
		}
		policy = pool.Scheduler()
	}
	rng := stats.NewRNG(cfg.Seed)
	deviceRNG := rng.Fork()
	contentRNG := rng.Fork()
	cacheRNG := rng.Fork()

	devices, err := device.NewFleet(deviceRNG, cfg.GroupSize, cfg.Device)
	if err != nil {
		return nil, err
	}

	chunksPerSlot := int(cfg.SlotSec / cfg.ChunkSec)
	genres := video.AllGenres()
	streams := make([]*video.Video, cfg.Streams)
	for s := range streams {
		genre := cfg.Genre
		if s > 0 {
			genre = genres[(int(cfg.Genre)+s)%len(genres)]
		}
		vcfg := video.DefaultGenConfig(fmt.Sprintf("stream-%d", s), genre, cfg.Slots*chunksPerSlot)
		vcfg.ChunkSec = cfg.ChunkSec
		vcfg.WithKeyframes = cfg.UseFrames
		streams[s], err = video.Generate(contentRNG.Fork(), vcfg)
		if err != nil {
			return nil, err
		}
	}
	deviceStream := make([]int, len(devices))
	for i := range deviceStream {
		deviceStream[i] = i % cfg.Streams
	}

	cache, err := edge.NewCache(cfg.CacheHitRatio, cfg.CacheMinPrefix)
	if err != nil {
		return nil, err
	}
	var prefetcher *edge.Prefetcher
	if cfg.LRUCacheMB > 0 {
		lru, err := edge.NewLRUCache(cfg.LRUCacheMB)
		if err != nil {
			return nil, err
		}
		prefetcher, err = edge.NewPrefetcher(lru, cfg.PrefetchMBPerSlot)
		if err != nil {
			return nil, err
		}
	}

	estimators := make([]*bayes.GammaEstimator, len(devices))
	for i := range estimators {
		estimators[i] = bayes.NewGammaEstimator()
	}

	return &Emulator{
		cfg:          cfg,
		policy:       policy,
		pool:         pool,
		devices:      devices,
		estimators:   estimators,
		streams:      streams,
		deviceStream: deviceStream,
		cache:        cache,
		cacheRNG:     cacheRNG,
		prefetcher:   prefetcher,
		strategies: map[bool]transform.Strategy{
			false: transform.Default(display.LCD),
			true:  transform.Default(display.OLED),
		},
	}, nil
}

// SchedulerConfig is the one mapping from an emulator config to the
// scheduler's: the engine is built from it, and so are callers' baseline
// policies and bare schedulers.
func SchedulerConfig(cfg Config) (scheduler.Config, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return scheduler.Config{}, err
	}
	var server *edge.Server
	if cfg.ServerStreams >= 0 {
		server, err = edge.NewServer(cfg.ServerStreams)
		if err != nil {
			return scheduler.Config{}, err
		}
	}
	return scheduler.Config{
		SlotSec:        cfg.SlotSec,
		Lambda:         cfg.Lambda,
		Anxiety:        cfg.Anxiety,
		Server:         server,
		DisableSwap:    cfg.DisableSwap,
		ExactThreshold: cfg.ExactThreshold,
	}, nil
}

// Run executes the emulation — all Slots, or only up to
// Config.StopAfter, or the remaining slots after a Restore — and
// returns the aggregated result.
func (e *Emulator) Run() (*RunResult, error) {
	startSlot := e.nextSlot
	endSlot := e.cfg.Slots
	if e.cfg.StopAfter > 0 && e.cfg.StopAfter < endSlot {
		endSlot = e.cfg.StopAfter
	}
	if startSlot >= endSlot {
		return nil, fmt.Errorf("emu: nothing to run (at slot %d, end %d)", startSlot, endSlot)
	}
	var res *RunResult
	if e.resume != nil {
		// Continuing a restored run: the accumulators carry on exactly
		// where the checkpointed process left them.
		res = e.resume
		e.resume = nil
	} else {
		res = &RunResult{
			Policy:          e.policy.Name(),
			TPVMin:          make([]float64, len(e.devices)),
			LowBatteryStart: make([]bool, len(e.devices)),
			EverServed:      make([]bool, len(e.devices)),
			FinalState:      make([]device.State, len(e.devices)),
		}
		for i, d := range e.devices {
			res.LowBatteryStart[i] = d.LowBattery()
		}
	}
	// One builder for the run: every slot's record and line reuse its
	// storage, the path the daemon's tick takes.
	var auditRec audit.Builder
	var auditLog *audit.Log
	if e.cfg.AuditDir != "" {
		var err error
		auditLog, err = audit.Open(e.cfg.AuditDir)
		if err != nil {
			return nil, fmt.Errorf("emu: %w", err)
		}
		defer auditLog.Close()
	}
	// SLO evaluation on a synthetic clock: one reading per slot, the
	// clock advancing SlotSec each time. Pure observation over already-
	// final slot stats — it cannot influence a decision.
	sloLatency := e.cfg.SLOSlotLatency
	if sloLatency <= 0 {
		sloLatency = 250 * time.Millisecond
	}
	var sloSlow, sloDegraded, sloTotal float64
	slotDur := time.Duration(e.cfg.SlotSec * float64(time.Second))
	// On a resumed run the SLO windows restart at the checkpoint slot —
	// burn-rate state is observation, not decision input, and is not
	// persisted (DESIGN.md §14).
	sloClock := time.Unix(0, 0).Add(time.Duration(startSlot) * slotDur)
	// flightRec is assigned after the engine exists; the transition
	// hook only fires from Evaluate inside the slot loop, by which time
	// it is set.
	var flightRec *flight.Recorder
	sloEng, err := slo.NewEngine(slo.Config{
		FastWindow: 2 * slotDur,
		SlowWindow: 10 * slotDur,
		Now:        func() time.Time { return sloClock },
		OnTransition: func(st slo.State) {
			if st.Alarming {
				res.SLOAlarms++
				if flightRec != nil {
					flightRec.OnSLOTransition(st)
				}
			}
		},
	},
		slo.Objective{
			Name:        "slot-latency",
			Description: "Slot scheduling must finish within " + sloLatency.String() + ".",
			Target:      0.99,
			Source:      func() (float64, float64) { return sloSlow, sloTotal },
		},
		slo.Objective{
			Name:        "degraded-slots",
			Description: "Slots must not degrade to the anytime deadline shortcuts.",
			Target:      0.99,
			Source:      func() (float64, float64) { return sloDegraded, sloTotal },
		},
	)
	if err != nil {
		return nil, fmt.Errorf("emu: slo engine: %w", err)
	}

	// Flight recorder on the synthetic clock (DESIGN.md §15): a small
	// live registry mirrors the shared metric vocabulary per slot, a
	// history store samples it on the slot clock, and SLO alarms freeze
	// the same bundle format lpvsd writes.
	var flightHist *history.Store
	var flightLive *liveMetrics
	if e.cfg.FlightDir != "" {
		reg := obs.NewRegistry()
		flightLive = newLiveMetrics(reg)
		flightHist = history.New(reg, history.Config{
			Window:   10 * slotDur,
			Interval: slotDur,
			Now:      func() time.Time { return sloClock },
		})
		flightRec, err = flight.New(flight.Config{
			Dir:       e.cfg.FlightDir,
			Triggers:  flight.Triggers{SLOAlarm: true, Manual: true},
			History:   flightHist,
			Tracer:    e.cfg.Tracer,
			SLOStates: sloEng.Snapshot,
			Binary:    "lpvs-emu",
			Now:       func() time.Time { return sloClock },
			// The synthetic clock advances SlotSec per slot, so the
			// default 30s cooldown would suppress nothing; keep it off
			// and let every alarm firing produce its bundle.
			Cooldown: -1,
		})
		if err != nil {
			return nil, fmt.Errorf("emu: flight recorder: %w", err)
		}
	}

	for slot := startSlot; slot < endSlot; slot++ {
		windows := e.slotWindows(slot)

		slotCtx, slotSp := e.cfg.Tracer.Start(context.Background(), "slot")
		slotSp.SetInt("slot", slot)
		_, gsp := span.Child(slotCtx, "gather")
		reqs, reqIdx := e.gatherRequests(windows)
		gsp.SetInt("requests", len(reqs))
		gsp.End()
		var decision scheduler.Decision
		schedSec, schedCPUSec := 0.0, 0.0
		if len(reqs) > 0 {
			schedCtx, ssp := span.Child(slotCtx, "schedule")
			var err error
			decision, schedSec, schedCPUSec, err = e.decide(schedCtx, reqs)
			if err != nil {
				ssp.End()
				slotSp.End()
				return nil, fmt.Errorf("emu: slot %d: %w", slot, err)
			}
			ssp.SetInt("selected", decision.Selected)
			ssp.End()
			res.SchedSeconds += schedSec
			res.SchedCPUSeconds += schedCPUSec
			// The flight tail mirrors the audit log: without -audit-dir
			// there is nothing to tee and the slot never pays for
			// encoding a record nobody persists. Only the engine's
			// decisions carry the full config/verdict surface the audit
			// log replays.
			if auditLog != nil && e.pool != nil {
				rec := auditRec.Build(slot, "vc", e.pool.Scheduler().Config(), reqs, decision)
				rec.Seed = e.cfg.Seed
				rec.UnixSec = float64(time.Now().UnixNano()) / 1e9
				rec.TraceID = slotSp.TraceID()
				// Encode once; the audit log and the flight recorder's
				// tail ring get the same bytes, so bundles replay
				// byte-identically against the log. Both take them
				// before the next slot's Build reuses the line.
				line, err := auditRec.Encode()
				if err != nil {
					slotSp.End()
					return nil, fmt.Errorf("emu: slot %d: audit: %w", slot, err)
				}
				if err := auditLog.AppendLine(line); err != nil {
					slotSp.End()
					return nil, fmt.Errorf("emu: slot %d: audit: %w", slot, err)
				}
				if flightRec != nil {
					flightRec.NoteAudit(line)
				}
			}
		}
		res.SelectedPerSlot = append(res.SelectedPerSlot, decision.Selected)

		predicted := e.predictEnergies(reqs, decision)
		playStart := time.Now()
		e.playSlot(slotCtx, windows, decision, reqIdx, res)
		playSec := time.Since(playStart).Seconds()
		for k, i := range reqIdx {
			d := e.devices[i]
			if d.State != device.Watching {
				continue // truncated playback invalidates the forecast
			}
			err := predicted[k] - d.EnergyFrac()
			if err < 0 {
				err = -err
			}
			res.PredErrSum += err
			res.PredErrSamples++
		}

		// Anxiety census after the slot: every owner, watching or not,
		// feels their battery level.
		stat := SlotStat{
			Slot:           slot,
			Selected:       decision.Selected,
			Eligible:       decision.Eligible,
			Swaps:          decision.Swaps,
			SchedSec:       schedSec,
			SchedCPUSec:    schedCPUSec,
			CompactSec:     decision.CompactSeconds,
			Phase1Sec:      decision.Phase1Seconds,
			Phase2Sec:      decision.Phase2Seconds,
			PlaySec:        playSec,
			Degraded:       decision.Degraded.Any(),
			DegradedReason: decision.Degraded.Reason(),
		}
		if stat.Degraded {
			res.DegradedSlots++
		}
		for _, d := range e.devices {
			anx := e.cfg.Anxiety.Anxiety(d.EnergyFrac())
			res.AnxietySum += anx
			res.AnxietySamples++
			stat.MeanAnxiety += anx
			stat.MeanEnergyFrac += d.EnergyFrac()
			if d.State == device.Watching {
				stat.Watching++
			}
		}
		for _, est := range e.estimators {
			stat.MeanGamma += est.Gamma()
		}
		if n := float64(len(e.devices)); n > 0 {
			stat.MeanAnxiety /= n
			stat.MeanEnergyFrac /= n
			stat.MeanGamma /= n
		}
		if e.cfg.FixedGamma > 0 {
			stat.MeanGamma = e.cfg.FixedGamma
		}
		res.Timeline = append(res.Timeline, stat)
		res.SlotsRun++
		sloTotal++
		if stat.SchedSec > sloLatency.Seconds() {
			sloSlow++
		}
		if stat.Degraded {
			sloDegraded++
		}
		sloClock = time.Unix(0, 0).Add(time.Duration(slot+1) * slotDur)
		// Sample history on the advanced clock before evaluating, so a
		// bundle captured by this Evaluate covers the slot that
		// triggered the alarm.
		if flightHist != nil {
			flightLive.observe(e, stat)
			flightHist.Sample()
		}
		sloEng.Evaluate()
		slotSp.SetInt("watching", stat.Watching)
		slotSp.SetInt("selected", stat.Selected)
		slotSp.End()
		if e.cfg.Progress != nil {
			e.cfg.Progress(e.policy.Name(), stat)
		}
	}

	res.SLO = sloEng.Snapshot()
	if flightRec != nil {
		res.FlightBundles = int(flightRec.BundlesWritten())
	}
	e.nextSlot = endSlot

	if endSlot < e.cfg.Slots {
		// Partial run (Config.StopAfter): stream finalisation and the
		// final per-device fills wait for the resuming process; the
		// caller checkpoints the emulator now (Checkpoint).
		return res, nil
	}
	for i, d := range e.devices {
		d.FinishStream()
		res.FinalState[i] = d.State
		res.TPVMin[i] = d.WatchedSec / 60
	}
	return res, nil
}

// decide obtains one slot's decision, from the engine (under
// Config.SchedDeadline, when set) or from the baseline policy, with the
// scheduling wall time and the CPU-sum across pool workers.
func (e *Emulator) decide(ctx context.Context, reqs []scheduler.Request) (dec scheduler.Decision, wallSec, cpuSec float64, err error) {
	if e.pool == nil {
		start := time.Now()
		dec, err = e.policy.Schedule(reqs)
		wallSec = time.Since(start).Seconds()
		if err == nil && len(dec.X) != len(reqs) {
			// The slot reads the decision by position; a policy from
			// outside the repo may have filled only the ID-keyed maps.
			err = fmt.Errorf("policy decided %d of %d requests by position (Decision.X)", len(dec.X), len(reqs))
		}
		return dec, wallSec, wallSec, err
	}
	if e.cfg.SchedDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.SchedDeadline)
		defer cancel()
	}
	pres, err := e.pool.DecideCtx(ctx, []scheduler.VC{{ID: "vc", Requests: reqs}})
	if err != nil {
		return scheduler.Decision{}, 0, 0, err
	}
	return pres.Decision(), pres.WallSeconds, pres.CPUSeconds, nil
}

// predictEnergies evaluates the scheduler's own energy model per
// request: the compacted forecast of the end-of-slot battery fraction
// (Eq. (12) applied over the *available* chunk window, with the
// transformed power rate for selected devices). The gap against reality
// comes from the gamma estimate, from the unavailable chunk tail, and
// from content the aggregate statistics miss.
func (e *Emulator) predictEnergies(reqs []scheduler.Request, dec scheduler.Decision) []float64 {
	out := make([]float64, len(reqs))
	for k := range reqs {
		r := &reqs[k]
		selected := dec.X[k]
		energy := r.EnergyFrac
		for _, c := range r.Chunks {
			watts, err := video.PowerRate(r.Display, c)
			if err != nil {
				panic(fmt.Sprintf("emu: predict: %v", err))
			}
			if selected {
				watts *= r.Gamma
			}
			energy -= (watts + r.BasePowerW) * c.DurationSec / r.BatteryCapacityJ
		}
		if energy < 0 {
			energy = 0
		}
		out[k] = energy
	}
	return out
}

// slotWindows returns every stream's chunk window for the slot.
func (e *Emulator) slotWindows(slot int) [][]video.Chunk {
	chunksPerSlot := int(e.cfg.SlotSec / e.cfg.ChunkSec)
	windows := make([][]video.Chunk, len(e.streams))
	for s, stream := range e.streams {
		lo := slot * chunksPerSlot
		hi := lo + chunksPerSlot
		if hi > len(stream.Chunks) {
			hi = len(stream.Chunks)
		}
		if lo > hi {
			lo = hi
		}
		windows[s] = stream.Chunks[lo:hi]
	}
	return windows
}

// SnapshotRequests returns the information-gathering output for the
// first slot without running the emulation — used by scheduler-only
// experiments such as the Fig. 10 runtime scaling.
func (e *Emulator) SnapshotRequests() ([]scheduler.Request, error) {
	reqs, _ := e.gatherRequests(e.slotWindows(0))
	return reqs, nil
}

// gatherRequests performs the information-gathering step for one slot:
// every still-watching device reports its display, energy status and the
// chunk window of its stream available at the edge.
func (e *Emulator) gatherRequests(windows [][]video.Chunk) ([]scheduler.Request, []int) {
	var reqs []scheduler.Request
	var idx []int
	// Availability: with the LRU model the prefetcher fills the cache
	// (the transfer happened during the previous slot) and the cached
	// prefix is what every viewer of a stream sees; otherwise each
	// device draws from the probabilistic cache.
	lruAvail := make([]int, len(windows))
	if e.prefetcher != nil {
		e.prefetcher.StartSlot()
	}
	for s, window := range windows {
		lruAvail[s] = -1
		if e.prefetcher != nil {
			e.prefetcher.PrefetchWindow(e.streams[s].ID, window)
			lruAvail[s] = e.prefetcher.AvailablePrefix(e.streams[s].ID, window)
		}
	}
	for i, d := range e.devices {
		if d.State != device.Watching {
			continue
		}
		window := windows[e.deviceStream[i]]
		if len(window) == 0 {
			continue
		}
		avail := lruAvail[e.deviceStream[i]]
		if avail < 0 {
			avail = e.cache.AvailableChunks(e.cacheRNG, len(window))
		}
		if avail == 0 {
			// Nothing prefetched yet: the device still streams (from the
			// CDN through the edge) but cannot be power-estimated, so it
			// is not schedulable this slot.
			continue
		}
		gamma := e.cfg.FixedGamma
		if gamma == 0 {
			gamma = e.estimators[i].Gamma()
		}
		req := scheduler.Request{
			DeviceID:         d.ID,
			Display:          d.Display,
			EnergyFrac:       d.EnergyFrac(),
			BatteryCapacityJ: d.Battery.CapacityJ,
			BasePowerW:       d.BasePowerW,
			Chunks:           window[:avail],
			Gamma:            gamma,
		}
		if e.cfg.PersonalizedAnxiety {
			// The owner starts worrying roughly twice as early as they
			// quit; clamp into the model's valid range.
			warning := stats.Clamp(2*d.GiveUpFrac, 0.08, 0.6)
			personal, err := anxiety.NewRescaled(e.cfg.Anxiety, warning)
			if err == nil {
				req.Anxiety = personal
			}
		}
		reqs = append(reqs, req)
		idx = append(idx, i)
	}
	return reqs, idx
}

// playSlot plays the slot's full chunk window on every watching device,
// applying the transform to selected ones, draining batteries, and
// feeding realised savings back into the Bayesian estimators.
// frameTransform returns the memoised per-pixel transform of a chunk for
// a display type.
func (e *Emulator) frameTransform(streamIdx int, chunk video.Chunk, strat transform.Strategy, spec display.Spec) (transform.Result, error) {
	key := frameKey{stream: streamIdx, chunk: chunk.Index, oled: spec.Type == display.OLED}
	if cached, ok := e.frameCache[key]; ok {
		return cached, nil
	}
	fres, err := strat.ApplyFrame(spec, chunk.Keyframe, e.cfg.Tolerance)
	if err != nil {
		return transform.Result{}, err
	}
	if e.frameCache == nil {
		e.frameCache = make(map[frameKey]transform.Result)
	}
	e.frameCache[key] = fres.Result
	return fres.Result, nil
}

func (e *Emulator) playSlot(ctx context.Context, windows [][]video.Chunk, dec scheduler.Decision, reqIdx []int, res *RunResult) {
	_, psp := span.Child(ctx, "play")
	// The memo is per slot: chunk indexes repeat across slots only for
	// different content windows.
	e.frameCache = nil
	selected := make(map[int]bool, len(reqIdx))
	for k, i := range reqIdx {
		if dec.X[k] {
			selected[i] = true
			res.EverServed[i] = true
		}
	}
	// Realised reductions are collected during playback and applied to
	// the estimators in one batch afterwards (the Fig. 6 "Bayesian
	// updating" stage); nothing inside the playback loop reads them, so
	// the deferral changes no behaviour and gives the update its own
	// span.
	type observation struct {
		device int
		mean   float64
	}
	var observations []observation
	for _, i := range reqIdx {
		d := e.devices[i]
		window := windows[e.deviceStream[i]]
		savings := make([]float64, 0, len(window))
		for _, chunk := range window {
			if d.State != device.Watching {
				break
			}
			plainW, err := video.PowerRate(d.Display, chunk)
			if err != nil {
				// Generated content is always valid; a failure here is a
				// programming error.
				panic(fmt.Sprintf("emu: power rate: %v", err))
			}
			actualW := plainW
			quality := 0.0
			if selected[i] {
				strat := e.strategies[d.Display.Type == display.OLED]
				var tres transform.Result
				var err error
				if e.cfg.UseFrames && chunk.Keyframe != nil {
					tres, err = e.frameTransform(e.deviceStream[i], chunk, strat, d.Display)
				} else {
					tres, err = strat.Apply(d.Display, chunk.Stats, e.cfg.Tolerance)
				}
				if err != nil {
					panic(fmt.Sprintf("emu: transform: %v", err))
				}
				saving, err := transform.RealizedSaving(d.Display, chunk.Stats, tres)
				if err != nil {
					panic(fmt.Sprintf("emu: realized saving: %v", err))
				}
				actualW = plainW * (1 - saving)
				quality = tres.QualityLoss
				savings = append(savings, saving)
			}
			if e.cfg.AutoDimBelow > 0 && d.EnergyFrac() < e.cfg.AutoDimBelow {
				// OS power saver: uncompensated dimming scales the display
				// power roughly linearly and costs the full luminance drop
				// in perceived quality.
				actualW *= e.cfg.AutoDimFactor
				quality = stats.Clamp(quality+(1-e.cfg.AutoDimFactor), 0, 1)
			}
			watched := d.Watch(chunk.DurationSec, actualW)
			res.DisplayEnergyJ += actualW * watched
			res.UntransformedDisplayEnergyJ += plainW * watched
			if watched > 0 {
				res.QualityLossSum += quality
				res.QualityLossSamples++
				if quality > 0 {
					res.AffectedQualitySum += quality
					res.AffectedQualitySamples++
				}
			}
		}
		if len(savings) > 0 && e.cfg.FixedGamma == 0 {
			observations = append(observations, observation{device: i, mean: stats.Mean(savings)})
		}
	}
	psp.End()
	_, bsp := span.Child(ctx, "bayes-update")
	for _, o := range observations {
		// Observation Delta_n: the slot's mean realised reduction. A
		// degenerate observation (0 or 1) carries no information and
		// is deliberately skipped — the conjugate update assumes a
		// valid ratio.
		_ = e.estimators[o.device].Observe(o.mean)
	}
	bsp.SetInt("observations", len(observations))
	bsp.End()
}
