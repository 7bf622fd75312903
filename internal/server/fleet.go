package server

import (
	"net/http"
	"slices"
	"strings"
	"time"

	"lpvs/internal/obs"
	"lpvs/internal/obs/slo"
	"lpvs/internal/scheduler"
)

// This file implements the daemon's fleet-health telemetry (DESIGN.md
// §13): per-VC rows and labeled metric series, per scheduling stream
// and per channel, folded from each tick's outcome; the /v1/fleet and
// /v1/slo endpoints; and the /readyz readiness probe. All of it is pure
// observation — every value is read after the scheduling decision is
// final, so the differential and audit-replay byte-identity guarantees
// are untouched.

// DefaultSLOTickLatency is the per-tick wall-time budget backing the
// tick-latency objective: ticks slower than this count as bad events.
const DefaultSLOTickLatency = 250 * time.Millisecond

// vcMetrics holds the per-VC labeled series. The whole struct is nil
// when Config.VCLabelBudget is 0, which keeps the tick path free of
// labeled-series lookups (the "budget 0 = zero overhead" contract).
type vcMetrics struct {
	// Per scheduling stream (pool VC ID).
	tickDur  *obs.HistogramVec
	ticks    *obs.CounterVec
	degraded *obs.CounterVec

	// Per channel (the server-layer VC).
	devices            *obs.GaugeVec
	admitted           *obs.GaugeVec
	selected           *obs.GaugeVec
	transformedDevices *obs.CounterVec
	chunksTransformed  *obs.CounterVec
	gammaMean          *obs.GaugeVec
	gammaDrift         *obs.GaugeVec
}

func newVCMetrics(reg *obs.Registry) *vcMetrics {
	return &vcMetrics{
		tickDur: reg.HistogramVec("lpvs_vc_tick_seconds",
			"Scheduling wall time per tick, by scheduling stream.", obs.DefBuckets(), "vc"),
		ticks: reg.CounterVec("lpvs_vc_ticks_total",
			"Scheduling ticks solved, by scheduling stream.", "vc"),
		degraded: reg.CounterVec("lpvs_vc_degraded_ticks_total",
			"Deadline-degraded ticks, by scheduling stream.", "vc"),

		devices: reg.GaugeVec("lpvs_vc_devices",
			"Devices known to the daemon, by channel.", "vc"),
		admitted: reg.GaugeVec("lpvs_vc_admitted_devices",
			"Device reports admitted into the last tick, by channel.", "vc"),
		selected: reg.GaugeVec("lpvs_vc_selected_devices",
			"Devices selected for transforming in the last tick, by channel.", "vc"),
		transformedDevices: reg.CounterVec("lpvs_vc_transformed_devices_total",
			"Device-slots scheduled with the transform on, by channel.", "vc"),
		chunksTransformed: reg.CounterVec("lpvs_vc_chunks_transformed_total",
			"Chunks served with the low-power transform applied, by channel.", "vc"),
		gammaMean: reg.GaugeVec("lpvs_vc_gamma_mean",
			"Mean truncated-posterior gamma estimate, by channel.", "vc"),
		gammaDrift: reg.GaugeVec("lpvs_vc_gamma_drift",
			"Absolute change of the channel gamma mean between the last two ticks.", "vc"),
	}
}

// channelStat is the server's per-channel accumulator behind /v1/fleet.
// Guarded by s.mu.
type channelStat struct {
	devices     int
	admitted    int // reports folded into the last tick
	eligible    int
	selected    int
	transformed uint64 // chunks served transformed, lifetime
	gammaMean   float64
	gammaDrift  float64
	gammaSeen   bool
}

// fleetFold accumulates one tick's per-channel aggregates: the publish
// loop admits each scheduled device with its verdict, the device walk
// adds every known device with its gamma estimate.
type fleetFold map[string]*fleetAgg

// fleetAgg is one channel's share of a tick.
type fleetAgg struct {
	devices, admitted, eligible, selected int
	gammaSum                              float64
}

func (f fleetFold) of(ch string) *fleetAgg {
	a := f[ch]
	if a == nil {
		a = &fleetAgg{}
		f[ch] = a
	}
	return a
}

// admit counts a device the tick scheduled.
func (f fleetFold) admit(ch string, v *scheduler.Verdict) {
	a := f.of(ch)
	a.admitted++
	if v.Eligible {
		a.eligible++
	}
	if v.Selected {
		a.selected++
	}
}

// device counts a device the daemon knows, scheduled or not.
func (f fleetFold) device(ch string, gamma float64) {
	a := f.of(ch)
	a.devices++
	a.gammaSum += gamma
}

// fleetTickLocked folds one finished tick's per-channel aggregates into
// the per-channel and per-stream telemetry. Called with s.mu held,
// strictly after the decisions are final (observation only).
func (s *Server) fleetTickLocked(byCh fleetFold) {
	// Fold into the persistent per-channel stats; channels that lost all
	// their devices stay listed with zeroed live gauges (their lifetime
	// counters remain meaningful).
	for ch, cs := range s.fleet {
		if _, live := byCh[ch]; !live {
			cs.devices, cs.admitted, cs.eligible, cs.selected = 0, 0, 0, 0
		}
	}
	for ch, a := range byCh {
		cs := s.fleet[ch]
		if cs == nil {
			cs = &channelStat{}
			s.fleet[ch] = cs
		}
		cs.devices = a.devices
		cs.admitted = a.admitted
		cs.eligible = a.eligible
		cs.selected = a.selected
		mean := 0.0
		if a.devices > 0 {
			mean = a.gammaSum / float64(a.devices)
		}
		if cs.gammaSeen {
			cs.gammaDrift = abs(mean - cs.gammaMean)
		}
		cs.gammaMean = mean
		cs.gammaSeen = true
	}

	vm := s.metrics.vc
	if vm == nil {
		return
	}
	for ch, cs := range s.fleet {
		vm.devices.With(ch).Set(float64(cs.devices))
		vm.admitted.With(ch).Set(float64(cs.admitted))
		vm.selected.With(ch).Set(float64(cs.selected))
		vm.gammaMean.With(ch).Set(cs.gammaMean)
		vm.gammaDrift.With(ch).Set(cs.gammaDrift)
		if cs.selected > 0 {
			vm.transformedDevices.With(ch).Add(float64(cs.selected))
		}
	}
}

// streamTickLocked folds one decided VC into its stream row and its
// per-stream series. Called with s.mu held, from the publish loop of a
// tick whose decisions are final: a tick the scheduler refuses folds
// nothing.
func (s *Server) streamTickLocked(vc *scheduler.VCDecision) {
	st := s.streamStats[vc.VC]
	if st == nil {
		st = &StreamStat{Key: vc.VC}
		s.streamStats[vc.VC] = st
	}
	dec := &vc.Decision
	degraded := 0.0
	if dec.Degraded.Any() {
		st.DegradedTicks++
		degraded = 1
	}
	st.Ticks++
	st.WallSecondsTotal += vc.WallSeconds
	st.LastWallSeconds = vc.WallSeconds
	st.LastRequests, st.LastEligible, st.LastSelected = len(dec.X), dec.Eligible, dec.Selected
	if vm := s.metrics.vc; vm != nil {
		vm.ticks.With(vc.VC).Inc()
		vm.degraded.With(vc.VC).Add(degraded)
		vm.tickDur.With(vc.VC).Observe(vc.WallSeconds)
	}
}

// newSLOEngine wires the daemon's three objectives to its lifetime
// counters: the registry's tick, degraded and shed counters and the
// tickSlow and admitted atomics. Every source is a lock-free load, so
// SLO evaluation never touches s.mu (a stuck tick cannot stall the
// evaluator that would report it).
func (s *Server) newSLOEngine() (*slo.Engine, error) {
	lat := s.cfg.SLOTickLatency
	if lat <= 0 {
		lat = DefaultSLOTickLatency
	}
	s.sloLatency = lat
	// The transition hook reads s.flight at fire time, so engine and
	// recorder construction order in New does not matter.
	onTransition := func(st slo.State) {
		if s.flight != nil {
			s.flight.OnSLOTransition(st)
		}
	}
	return slo.NewEngine(slo.Config{Logger: s.log, OnTransition: onTransition},
		slo.Objective{
			Name:        "tick-latency",
			Description: "Scheduling ticks must finish within " + lat.String() + ".",
			Target:      0.99,
			Source: func() (float64, float64) {
				return float64(s.tickSlow.Load()), s.metrics.ticks.Value()
			},
		},
		slo.Objective{
			Name:        "degraded-ticks",
			Description: "Ticks must not degrade to the anytime deadline shortcuts.",
			Target:      0.99,
			Source: func() (float64, float64) {
				return s.metrics.degraded.Value(), s.metrics.ticks.Value()
			},
		},
		slo.Objective{
			Name:        "shed-requests",
			Description: "Heavy requests must be admitted, not shed with 429.",
			Target:      0.99,
			Source: func() (float64, float64) {
				shed := s.metrics.shed.Value()
				return shed, shed + float64(s.admitted.Load())
			},
		},
	)
}

// SLO exposes the daemon's burn-rate engine so the owner can run its
// sampling loop (cmd/lpvsd) or evaluate it directly (tests).
func (s *Server) SLO() *slo.Engine { return s.slo }

// SetReady flips the readiness probe: a draining daemon reports 503 on
// /readyz so load balancers stop routing to it, while /healthz keeps
// answering 200 (the process is alive, just not accepting work).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := FleetResponse{
		Slot:          s.slot,
		VCLabelBudget: s.cfg.VCLabelBudget,
		SeriesDropped: s.metrics.reg.DroppedSeries(),
		Channels:      make([]ChannelSummary, 0, len(s.fleet)),
		Streams:       make([]StreamStat, 0, len(s.streamStats)),
	}
	for _, st := range s.streamStats {
		resp.Streams = append(resp.Streams, *st)
	}
	slices.SortFunc(resp.Streams, func(a, b StreamStat) int { return strings.Compare(a.Key, b.Key) })
	// Device and pending-report counts come from the live tables so the
	// fleet view is current between ticks; the rest is per-last-tick.
	devices := map[string]int{}
	for _, st := range s.devices {
		devices[st.channel]++
	}
	pending := map[string]int{}
	for i := range s.pending {
		if st, ok := s.devices[s.pending[i].DeviceID]; ok {
			pending[st.channel]++
		}
	}
	for ch, cs := range s.fleet {
		resp.Channels = append(resp.Channels, ChannelSummary{
			Channel:           ch,
			Devices:           devices[ch],
			PendingReports:    pending[ch],
			Admitted:          cs.admitted,
			Eligible:          cs.eligible,
			Selected:          cs.selected,
			TransformedChunks: cs.transformed,
			GammaMean:         cs.gammaMean,
			GammaDrift:        cs.gammaDrift,
		})
	}
	// Channels with devices but no tick yet still deserve a row.
	for ch, n := range devices {
		if _, ok := s.fleet[ch]; !ok {
			resp.Channels = append(resp.Channels, ChannelSummary{
				Channel: ch, Devices: n, PendingReports: pending[ch],
			})
		}
	}
	slices.SortFunc(resp.Channels, func(a, b ChannelSummary) int { return strings.Compare(a.Channel, b.Channel) })
	WriteJSON(w, http.StatusOK, resp)
}
