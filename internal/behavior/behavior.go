// Package behavior implements the paper's stated future work (section
// III-C): estimating the low-battery-anxiety curve from users' *real
// charging behaviour* instead of survey answers, avoiding the pitfall
// that "participants' answers truthfully reflect their feelings" may not
// hold.
//
// The package provides two halves:
//
//   - a generator of realistic charging logs: each user carries a hidden
//     anxiety threshold (the battery level at which they start charging
//     when they can), but observed plug-in events are noisy — users also
//     charge opportunistically at high levels (desk charger, car) and
//     occasionally get stranded far below their threshold;
//   - an estimator that recovers each user's threshold from their event
//     history and rebuilds the anxiety curve with the paper's original
//     cumulative-bin extraction.
//
// The estimator uses a low quantile of each user's plug-in levels:
// opportunistic charges bias the mean upward but barely move the lower
// quantiles, which track the anxiety-driven charges.
package behavior

import (
	"fmt"
	"sort"

	"lpvs/internal/anxiety"
	"lpvs/internal/stats"
)

// ChargeEvent is one observed plug-in: a user connected a charger with
// the battery at Level percent.
type ChargeEvent struct {
	UserID int
	// Level is the battery percentage in [1, 100] at plug-in time.
	Level int
}

// LogConfig parameterises the synthetic charging-log generator.
type LogConfig struct {
	Seed int64
	// Users is the population size.
	Users int
	// EventsPerUser is the expected number of plug-ins per user.
	EventsPerUser int
	// OpportunisticRate is the probability a plug-in is convenience-
	// driven (desk/car charger) rather than anxiety-driven.
	OpportunisticRate float64
	// StrandedRate is the probability the user could not charge at
	// their threshold and plugged in far below it.
	StrandedRate float64
}

// DefaultLogConfig mirrors the survey population with a month of
// charging behaviour per user.
func DefaultLogConfig() LogConfig {
	return LogConfig{
		Seed:              1,
		Users:             2032,
		EventsPerUser:     30,
		OpportunisticRate: 0.25,
		StrandedRate:      0.08,
	}
}

// Log is a charging-behaviour dataset with the hidden ground truth kept
// for evaluation.
type Log struct {
	Events []ChargeEvent
	// TrueThresholds maps user ID to the hidden anxiety threshold the
	// generator used — available only because the log is synthetic, and
	// used to validate the estimator.
	TrueThresholds []int
}

// Generate synthesises a charging log.
func Generate(cfg LogConfig) (*Log, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("behavior: users %d", cfg.Users)
	}
	if cfg.EventsPerUser <= 0 {
		return nil, fmt.Errorf("behavior: events per user %d", cfg.EventsPerUser)
	}
	if cfg.OpportunisticRate < 0 || cfg.OpportunisticRate >= 1 {
		return nil, fmt.Errorf("behavior: opportunistic rate %v outside [0, 1)", cfg.OpportunisticRate)
	}
	if cfg.StrandedRate < 0 || cfg.StrandedRate >= 1 {
		return nil, fmt.Errorf("behavior: stranded rate %v outside [0, 1)", cfg.StrandedRate)
	}
	rng := stats.NewRNG(cfg.Seed)
	log := &Log{TrueThresholds: make([]int, cfg.Users)}
	for u := 0; u < cfg.Users; u++ {
		truth := clampLevel(surveyLikeThreshold(rng))
		log.TrueThresholds[u] = truth
		n := cfg.EventsPerUser + rng.Intn(cfg.EventsPerUser/2+1) - cfg.EventsPerUser/4
		if n < 3 {
			n = 3
		}
		for e := 0; e < n; e++ {
			log.Events = append(log.Events, ChargeEvent{UserID: u, Level: sampleEvent(rng, cfg, truth)})
		}
	}
	return log, nil
}

// sampleEvent draws one plug-in level for a user with the given hidden
// threshold.
func sampleEvent(rng *stats.RNG, cfg LogConfig, truth int) int {
	switch {
	case rng.Bool(cfg.OpportunisticRate):
		// Convenience charging anywhere above the threshold.
		return clampLevel(int(rng.Uniform(float64(truth), 96)) + 1)
	case rng.Bool(cfg.StrandedRate):
		// Could not charge in time; plugged in well below the threshold.
		return clampLevel(truth - int(rng.Exponential(10)) - 3)
	default:
		// Anxiety-driven: near the threshold with small jitter.
		return clampLevel(truth + int(rng.Normal(0, 2.5)+0.5))
	}
}

// surveyLikeThreshold draws from the Fig. 2-calibrated shape: inverse-
// transform sampling of the canonical anxiety curve (the same logic the
// survey generator uses for charge-threshold answers).
func surveyLikeThreshold(rng *stats.RNG) int {
	m := anxiety.NewCanonical()
	u := rng.Float64()
	// Binary search the monotone curve for phi(e) = u.
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if m.Anxiety(mid) > u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return clampLevel(int(lo*100 + 0.5))
}

func clampLevel(v int) int {
	if v < 1 {
		return 1
	}
	if v > 100 {
		return 100
	}
	return v
}

// EstimateConfig tunes the threshold estimator.
type EstimateConfig struct {
	// Quantile of each user's plug-in levels taken as their threshold
	// estimate; low quantiles reject opportunistic charges. Zero means
	// 0.25.
	Quantile float64
	// MinEvents drops users with fewer observations. Zero means 3.
	MinEvents int
}

// Estimate recovers per-user thresholds from a charging log and rebuilds
// the anxiety curve with the paper's four-step extraction. It returns
// the curve and the per-user estimates (indexed by user ID, -1 for users
// with too few events).
func Estimate(log *Log, cfg EstimateConfig) (*anxiety.Curve, []int, error) {
	if log == nil || len(log.Events) == 0 {
		return nil, nil, fmt.Errorf("behavior: empty log")
	}
	if cfg.Quantile == 0 {
		cfg.Quantile = 0.25
	}
	if cfg.Quantile < 0 || cfg.Quantile > 1 {
		return nil, nil, fmt.Errorf("behavior: quantile %v outside [0, 1]", cfg.Quantile)
	}
	if cfg.MinEvents == 0 {
		cfg.MinEvents = 3
	}

	perUser := make(map[int][]float64)
	maxUser := 0
	for _, e := range log.Events {
		if e.Level < 1 || e.Level > 100 {
			return nil, nil, fmt.Errorf("behavior: event level %d outside [1, 100]", e.Level)
		}
		if e.UserID < 0 {
			return nil, nil, fmt.Errorf("behavior: negative user ID %d", e.UserID)
		}
		perUser[e.UserID] = append(perUser[e.UserID], float64(e.Level))
		if e.UserID > maxUser {
			maxUser = e.UserID
		}
	}

	estimates := make([]int, maxUser+1)
	for i := range estimates {
		estimates[i] = -1
	}
	var answers []int
	users := make([]int, 0, len(perUser))
	for u := range perUser {
		users = append(users, u)
	}
	sort.Ints(users)
	for _, u := range users {
		levels := perUser[u]
		if len(levels) < cfg.MinEvents {
			continue
		}
		est := clampLevel(int(stats.Percentile(levels, cfg.Quantile*100) + 0.5))
		estimates[u] = est
		answers = append(answers, est)
	}
	if len(answers) == 0 {
		return nil, nil, fmt.Errorf("behavior: no user has %d+ events", cfg.MinEvents)
	}
	curve, err := anxiety.Extract(answers)
	if err != nil {
		return nil, nil, err
	}
	return curve, estimates, nil
}

// ThresholdError summarises estimator accuracy against the generator's
// hidden truth: mean absolute error in battery-level points.
func ThresholdError(log *Log, estimates []int) float64 {
	if log == nil {
		return 0
	}
	sum, n := 0.0, 0
	for u, truth := range log.TrueThresholds {
		if u >= len(estimates) || estimates[u] < 0 {
			continue
		}
		d := float64(estimates[u] - truth)
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
