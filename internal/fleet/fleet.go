// Package fleet orchestrates trace-driven evaluations across many
// virtual clusters: every live channel in a Twitch-like trace becomes
// one VC with its own edge server, device fleet, and stream, exactly as
// the paper's emulator consumes its dataset ("a group of viewers in each
// channel of Twitch are selected and form a virtual cluster").
//
// Clusters are independent, so the orchestrator runs them concurrently
// across workers and aggregates the paper's metrics — energy saving,
// anxiety reduction, and low-battery TPV — weighted by cluster size.
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"lpvs/internal/emu"
	"lpvs/internal/stats"
	"lpvs/internal/trace"
	"lpvs/internal/video"
)

// Config parameterises a trace-driven run.
type Config struct {
	// Trace is the workload; required.
	Trace *trace.Trace
	// MaxChannels bounds how many channels are emulated (0 = all).
	MaxChannels int
	// MaxSlots caps per-session length in slots (0 = 24, i.e. 2 h).
	MaxSlots int
	// Lambda is the scheduler's energy/anxiety balance.
	Lambda float64
	// ServerStreams is each VC's edge capacity (negative = unbounded).
	ServerStreams int
	// Workers bounds concurrency (0 = GOMAXPROCS).
	Workers int
	// Seed drives all derived randomness.
	Seed int64
	// GiveUpSampler forwards to the device generator.
	GiveUpSampler func(*stats.RNG) float64
}

// Cluster sizes: each VC is capped at the paper's 500 viewers, and a
// channel whose audience never reaches minGroupSize is skipped as too
// small to be interesting.
const (
	maxGroupSize = 500
	minGroupSize = 10
)

func (c Config) normalized() (Config, error) {
	if c.Trace == nil {
		return c, fmt.Errorf("fleet: nil trace")
	}
	if err := c.Trace.Validate(); err != nil {
		return c, err
	}
	if c.MaxSlots == 0 {
		c.MaxSlots = 24
	}
	if c.MaxSlots < 1 {
		return c, fmt.Errorf("fleet: MaxSlots %d", c.MaxSlots)
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("fleet: Workers %d", c.Workers)
	}
	return c, nil
}

// ClusterResult is one channel's paired outcome.
type ClusterResult struct {
	ChannelID        string
	Genre            video.Genre
	GroupSize        int
	Slots            int
	EnergySaving     float64
	AnxietyReduction float64
	TPVBaselineMin   float64
	TPVTreatedMin    float64
	CohortSize       int
}

// Result aggregates a trace-driven run.
type Result struct {
	Clusters []ClusterResult
	// Devices counts emulated devices across clusters.
	Devices int
	// EnergySaving is the device-weighted mean saving.
	EnergySaving float64
	// AnxietyReduction is the device-weighted mean reduction.
	AnxietyReduction float64
	// TPVGain aggregates the low-battery cohort across clusters.
	TPVBaselineMin, TPVTreatedMin, TPVGain float64
	CohortSize                             int
	// Skipped counts channels below the audience threshold.
	Skipped int
}

// Run emulates (up to MaxChannels of) the trace's channels as
// independent virtual clusters and aggregates the metrics.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}

	type job struct {
		channel *trace.Channel
		session *trace.Session
		seed    int64
	}
	var jobs []job
	res := &Result{}
	seedRNG := stats.NewRNG(cfg.Seed)
	for i := range cfg.Trace.Channels {
		ch := &cfg.Trace.Channels[i]
		if cfg.MaxChannels > 0 && len(jobs) >= cfg.MaxChannels {
			break
		}
		// The busiest session represents the channel.
		s := busiestSession(ch)
		if peakViewers(s) < minGroupSize {
			res.Skipped++
			continue
		}
		jobs = append(jobs, job{channel: ch, session: s, seed: seedRNG.Int63()})
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fleet: no channel reaches %d viewers", minGroupSize)
	}

	results := make([]ClusterResult, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = runCluster(cfg, j.channel, j.session, j.seed)
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var baseTPV, treatTPV float64
	for _, r := range results {
		res.Clusters = append(res.Clusters, r)
		w := float64(r.GroupSize)
		res.Devices += r.GroupSize
		res.EnergySaving += r.EnergySaving * w
		res.AnxietyReduction += r.AnxietyReduction * w
		baseTPV += r.TPVBaselineMin * float64(r.CohortSize)
		treatTPV += r.TPVTreatedMin * float64(r.CohortSize)
		res.CohortSize += r.CohortSize
	}
	if res.Devices > 0 {
		res.EnergySaving /= float64(res.Devices)
		res.AnxietyReduction /= float64(res.Devices)
	}
	if res.CohortSize > 0 {
		res.TPVBaselineMin = baseTPV / float64(res.CohortSize)
		res.TPVTreatedMin = treatTPV / float64(res.CohortSize)
	}
	if res.TPVBaselineMin > 0 {
		res.TPVGain = (res.TPVTreatedMin - res.TPVBaselineMin) / res.TPVBaselineMin
	}
	// Deterministic presentation order regardless of goroutine timing.
	sort.Slice(res.Clusters, func(a, b int) bool {
		return res.Clusters[a].ChannelID < res.Clusters[b].ChannelID
	})
	return res, nil
}

func runCluster(cfg Config, ch *trace.Channel, s *trace.Session, seed int64) (ClusterResult, error) {
	group := peakViewers(s)
	if group > maxGroupSize {
		group = maxGroupSize
	}
	slots := len(s.Samples)
	if slots > cfg.MaxSlots {
		slots = cfg.MaxSlots
	}
	ec := emu.Config{
		Seed:          seed,
		GroupSize:     group,
		Slots:         slots,
		Lambda:        cfg.Lambda,
		ServerStreams: cfg.ServerStreams,
		Genre:         ch.Genre,
		GiveUpSampler: cfg.GiveUpSampler,
	}
	cmp, err := emu.Compare(ec, nil)
	if err != nil {
		return ClusterResult{}, fmt.Errorf("fleet: channel %s: %w", ch.ID, err)
	}
	base, treated, _ := cmp.TPVGain()
	return ClusterResult{
		ChannelID:        ch.ID,
		Genre:            ch.Genre,
		GroupSize:        group,
		Slots:            slots,
		EnergySaving:     cmp.EnergySavingRatio(),
		AnxietyReduction: cmp.AnxietyReduction(),
		TPVBaselineMin:   base,
		TPVTreatedMin:    treated,
		CohortSize:       cmp.CohortSize(),
	}, nil
}

func busiestSession(ch *trace.Channel) *trace.Session {
	best := &ch.Sessions[0]
	for i := 1; i < len(ch.Sessions); i++ {
		if peakViewers(&ch.Sessions[i]) > peakViewers(best) {
			best = &ch.Sessions[i]
		}
	}
	return best
}

func peakViewers(s *trace.Session) int {
	peak := 0
	for _, sm := range s.Samples {
		if sm.Viewers > peak {
			peak = sm.Viewers
		}
	}
	return peak
}
