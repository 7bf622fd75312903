// Package slo evaluates service-level objectives over multi-window
// burn rates — the alerting policy of the SRE workbook, reduced to the
// stdlib and to the counters the LPVS daemon already keeps.
//
// An Objective names a bad-event ratio target ("at most 1% of ticks
// may exceed the latency budget") and a Source reading two cumulative
// counters (bad, total). The Engine samples every objective's counters
// on each Evaluate call, keeps a short ring of timestamped samples, and
// derives the burn rate over two windows:
//
//	burn(W) = badRatio(W) / (1 - target)
//
// where badRatio(W) is the bad-event fraction of the events that
// happened inside window W. A burn rate of 1 means the error budget is
// being consumed exactly as fast as the objective allows; a burn of 10
// means the budget will be gone in a tenth of the period. The engine
// alarms only when BOTH windows breach the threshold: the slow window
// proves the burn is sustained, the fast window proves it is still
// happening (so alarms clear promptly after recovery).
//
// Time is injected (Config.Now), so tests drive the windows with a
// fake clock.
package slo

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"lpvs/internal/obs"
)

// Source reads an objective's cumulative event counters: bad is the
// number of events that violated the objective, total the number of
// events observed. Both must be monotonic; the engine clamps backward
// steps to zero so a counter reset degrades to a silent window, not a
// negative burn.
type Source func() (bad, total float64)

// Objective is one declarative service-level objective.
type Objective struct {
	// Name labels the lpvs_slo_* series and the /v1/slo entry
	// (kebab-case, e.g. "tick-latency").
	Name string
	// Description is the operator-facing account of what counts as bad.
	Description string
	// Target is the good-event fraction promised, in (0, 1) — e.g.
	// 0.99 allows 1% bad events.
	Target float64
	// Source supplies the cumulative (bad, total) counters.
	Source Source
}

// Burn is the burn-rate threshold both windows must exceed before an
// objective alarms: at 10 the budget would be gone in a tenth of the
// period.
const Burn = 10

// The two burn-rate windows, sized for an edge daemon whose ticks
// arrive every few seconds in tests and every slot in production.
const (
	fastWindow = time.Minute
	slowWindow = 5 * time.Minute
)

// Config parameterises an Engine. The zero value gives the defaults
// noted per field.
type Config struct {
	// Now injects the clock; nil means time.Now. A fake clock makes
	// evaluation fully deterministic.
	Now func() time.Time
	// Logger receives warn-level lines on alarm transitions; nil
	// discards them.
	Logger *slog.Logger
	// OnTransition, when non-nil, is called after every alarm state
	// change with the objective's fresh state.
	OnTransition func(st State)
}

// WindowState is one window's burn evaluation within a State.
type WindowState struct {
	// Name distinguishes the windows: "fast" or "slow".
	Name string `json:"name"`
	// Seconds is the window length.
	Seconds float64 `json:"seconds"`
	// Events and Bad are the event counts that fell inside the window.
	Events float64 `json:"events"`
	Bad    float64 `json:"bad"`
	// BadRatio is Bad/Events (0 when the window saw no events).
	BadRatio float64 `json:"bad_ratio"`
	// BurnRate is BadRatio normalised by the error budget.
	BurnRate float64 `json:"burn_rate"`
	// Breaching reports BurnRate >= Burn.
	Breaching bool `json:"breaching"`
}

// State is one objective's evaluated burn state.
type State struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Target      float64 `json:"target"`
	// TotalEvents/BadEvents are the lifetime counter readings;
	// BadRatio their lifetime ratio.
	TotalEvents float64 `json:"total_events"`
	BadEvents   float64 `json:"bad_events"`
	BadRatio    float64 `json:"bad_ratio"`
	// BudgetRemaining is the lifetime error budget left, 1 = untouched,
	// 0 = exactly spent, negative = overspent.
	BudgetRemaining float64 `json:"budget_remaining"`
	// Windows holds the fast and slow window evaluations.
	Windows []WindowState `json:"windows"`
	// BurnThreshold echoes the alarm threshold, Burn.
	BurnThreshold float64 `json:"burn_threshold"`
	// Alarming reports that both windows breach the threshold;
	// AlarmSinceUnix is when the current alarm started (0 when clear).
	Alarming       bool    `json:"alarming"`
	AlarmSinceUnix float64 `json:"alarm_since_unix,omitempty"`
}

// sample is one timestamped counter reading.
type sample struct {
	t          time.Time
	bad, total float64
}

// objectiveState is the engine's per-objective bookkeeping.
type objectiveState struct {
	obj        Objective
	ring       []sample // time-ordered, pruned to the slow window
	alarming   bool
	alarmSince time.Time
	last       State
}

// Engine evaluates a fixed set of objectives. Safe for concurrent use.
type Engine struct {
	cfg Config

	mu   sync.Mutex
	objs []*objectiveState

	// Optional registry wiring (Register).
	target      *obs.GaugeVec
	badRatio    *obs.GaugeVec
	budget      *obs.GaugeVec
	alarm       *obs.GaugeVec
	burn        *obs.GaugeVec
	transitions *obs.CounterVec
}

// NewEngine validates the objectives and builds an engine.
func NewEngine(cfg Config, objs ...Objective) (*Engine, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(nopWriter{}, nil))
	}
	e := &Engine{cfg: cfg}
	seen := map[string]bool{}
	for _, o := range objs {
		if o.Name == "" || o.Source == nil {
			return nil, fmt.Errorf("slo: objective needs a name and a source")
		}
		if o.Target <= 0 || o.Target >= 1 {
			return nil, fmt.Errorf("slo: objective %s target %v outside (0, 1)", o.Name, o.Target)
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		e.objs = append(e.objs, &objectiveState{obj: o})
	}
	return e, nil
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// Register exposes the engine on a metrics registry as the lpvs_slo_*
// families; gauges refresh on every Evaluate.
func (e *Engine) Register(reg *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.target = reg.GaugeVec("lpvs_slo_target",
		"Good-event fraction each objective promises.", "slo")
	e.badRatio = reg.GaugeVec("lpvs_slo_bad_ratio",
		"Lifetime bad-event fraction per objective.", "slo")
	e.budget = reg.GaugeVec("lpvs_slo_error_budget_remaining",
		"Lifetime error budget left per objective (1 = untouched, negative = overspent).", "slo")
	e.alarm = reg.GaugeVec("lpvs_slo_alarm",
		"1 while the objective's burn rate breaches the threshold in both windows.", "slo")
	e.burn = reg.GaugeVec("lpvs_slo_burn_rate",
		"Error-budget burn rate per objective and window (1 = spending exactly the budget).", "slo", "window")
	e.transitions = reg.CounterVec("lpvs_slo_transitions_total",
		"Alarm state changes per objective and direction.", "slo", "direction")
	for _, os := range e.objs {
		e.target.With(os.obj.Name).Set(os.obj.Target)
	}
}

// Evaluate samples every objective's counters once and recomputes the
// burn state, firing transition callbacks and refreshing registered
// gauges. Returns the fresh states in objective order. The live
// daemon's sampling loop calls it each pass, and the /v1/slo handler
// calls it too, so polling dashboards sharpen the windows.
//
// OnTransition callbacks fire after the engine lock is released, so a
// callback may safely call back into the engine (the flight recorder
// captures Snapshot() from inside its SLO trigger, for example).
func (e *Engine) Evaluate() []State {
	now := e.cfg.Now()
	e.mu.Lock()
	out := make([]State, 0, len(e.objs))
	var fired []State
	for _, os := range e.objs {
		st := e.evaluateLocked(os, now, &fired)
		out = append(out, st)
	}
	e.mu.Unlock()
	if e.cfg.OnTransition != nil {
		for _, st := range fired {
			e.cfg.OnTransition(st)
		}
	}
	return out
}

// Snapshot returns the states of the last Evaluate without sampling.
func (e *Engine) Snapshot() []State {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]State, 0, len(e.objs))
	for _, os := range e.objs {
		out = append(out, os.last)
	}
	return out
}

func (e *Engine) evaluateLocked(os *objectiveState, now time.Time, fired *[]State) State {
	bad, total := os.obj.Source()
	// Clamp a counter reset: treat the reading as a fresh stream start.
	if n := len(os.ring); n > 0 && (bad < os.ring[n-1].bad || total < os.ring[n-1].total) {
		os.ring = os.ring[:0]
	}
	os.ring = append(os.ring, sample{t: now, bad: bad, total: total})
	// Prune everything strictly older than the slow window, but always
	// keep one sample at or beyond the horizon so window deltas have a
	// baseline.
	horizon := now.Add(-slowWindow)
	cut := 0
	for cut < len(os.ring)-1 && !os.ring[cut+1].t.After(horizon) {
		cut++
	}
	os.ring = os.ring[cut:]

	budget := 1 - os.obj.Target
	st := State{
		Name:          os.obj.Name,
		Description:   os.obj.Description,
		Target:        os.obj.Target,
		TotalEvents:   total,
		BadEvents:     bad,
		BurnThreshold: Burn,
	}
	if total > 0 {
		st.BadRatio = bad / total
	}
	st.BudgetRemaining = 1 - st.BadRatio/budget

	breachingAll := true
	for _, w := range []struct {
		name string
		dur  time.Duration
	}{{"fast", fastWindow}, {"slow", slowWindow}} {
		ws := windowState(os.ring, now, w.name, w.dur, budget)
		st.Windows = append(st.Windows, ws)
		if !ws.Breaching {
			breachingAll = false
		}
	}

	if breachingAll && !os.alarming {
		os.alarming = true
		os.alarmSince = now
		*fired = append(*fired, e.noteTransition(os, st, true))
	} else if !breachingAll && os.alarming {
		os.alarming = false
		os.alarmSince = time.Time{}
		*fired = append(*fired, e.noteTransition(os, st, false))
	}
	st.Alarming = os.alarming
	if os.alarming {
		st.AlarmSinceUnix = float64(os.alarmSince.UnixNano()) / 1e9
	}

	if e.target != nil {
		name := os.obj.Name
		e.badRatio.With(name).Set(st.BadRatio)
		e.budget.With(name).Set(st.BudgetRemaining)
		if st.Alarming {
			e.alarm.With(name).Set(1)
		} else {
			e.alarm.With(name).Set(0)
		}
		for _, ws := range st.Windows {
			e.burn.With(name, ws.Name).Set(ws.BurnRate)
		}
	}
	os.last = st
	return st
}

// noteTransition logs and counts one alarm state change and returns
// the state to forward to OnTransition once the engine lock is
// released (a callback re-entering the engine must not deadlock).
func (e *Engine) noteTransition(os *objectiveState, st State, alarming bool) State {
	st.Alarming = alarming
	if alarming {
		st.AlarmSinceUnix = float64(os.alarmSince.UnixNano()) / 1e9
	}
	direction := "clear"
	if alarming {
		direction = "fire"
	}
	if e.transitions != nil {
		e.transitions.With(os.obj.Name, direction).Inc()
	}
	fast, slow := 0.0, 0.0
	if len(st.Windows) == 2 {
		fast, slow = st.Windows[0].BurnRate, st.Windows[1].BurnRate
	}
	e.cfg.Logger.Warn("slo alarm transition",
		"slo", os.obj.Name, "state", direction,
		"burn_fast", fast, "burn_slow", slow,
		"threshold", Burn, "budget_remaining", st.BudgetRemaining)
	return st
}

// windowState computes one window's burn from the sample ring: the
// delta between the newest sample and the newest sample at or before
// the window start (falling back to the oldest retained sample).
func windowState(ring []sample, now time.Time, name string, dur time.Duration, budget float64) WindowState {
	ws := WindowState{Name: name, Seconds: dur.Seconds()}
	if len(ring) == 0 {
		return ws
	}
	newest := ring[len(ring)-1]
	start := now.Add(-dur)
	base := ring[0]
	for _, s := range ring {
		if s.t.After(start) {
			break
		}
		base = s
	}
	ws.Events = newest.total - base.total
	ws.Bad = newest.bad - base.bad
	if ws.Events < 0 {
		ws.Events = 0
	}
	if ws.Bad < 0 {
		ws.Bad = 0
	}
	if ws.Events > 0 {
		ws.BadRatio = ws.Bad / ws.Events
	}
	ws.BurnRate = ws.BadRatio / budget
	ws.Breaching = ws.BurnRate >= Burn
	return ws
}
