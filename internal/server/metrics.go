package server

import (
	"strconv"
	"time"

	"lpvs/internal/obs"
	"lpvs/internal/scheduler"
)

// serverMetrics holds the daemon's typed metric handles, registered on
// one obs.Registry. Every lifetime count the daemon keeps is one of
// these handles: /v1/status, the SLO sources and the flight recorder's
// metadata read it with Value(), a lock-free atomic load, so no count
// is kept twice. Gauges that mirror state guarded by s.mu (slot, device
// count, pending reports, gamma mean) are scrape-time functions.
type serverMetrics struct {
	reg  *obs.Registry
	http *obs.HTTPMetrics

	reports      *obs.Counter
	ticks        *obs.Counter
	chunksServed *obs.Counter
	transformed  *obs.Counter
	observations *obs.Counter

	// Tick/scheduler instrumentation (paper §VI scheduler overhead).
	tickDur    *obs.Histogram
	tickCPU    *obs.Histogram
	compactDur *obs.Histogram
	phase1Dur  *obs.Histogram
	phase2Dur  *obs.Histogram
	phase1Runs *obs.CounterVec // labelled by proven optimality
	swapsTotal *obs.Counter
	tickSize   *obs.Histogram // reports per tick
	eligible   *obs.Gauge
	selected   *obs.Gauge

	// phase1Solves[1] and [0] are phase1Runs' optimal="true" and
	// "false" series, each resolved at its first solve, so a series
	// shows only once a solve counts in it and a solve allocates
	// nothing. Guarded by s.mu.
	phase1Solves [2]*obs.Counter

	coldNodes *obs.Gauge // Phase-1 search size

	// Resilience telemetry (DESIGN.md §12).
	degraded  *obs.Counter
	shed      *obs.Counter
	shedRoute *obs.CounterVec

	// Durable-state telemetry (DESIGN.md §14), written by SaveSnapshot
	// from a background loop.
	snapRestore   *obs.CounterVec
	snapWrites    *obs.Counter
	snapErrors    *obs.Counter
	snapLastUnix  *obs.Gauge
	snapLastBytes *obs.Gauge
	panics        *obs.Counter

	// Report-ingest telemetry (DESIGN.md §16): each codec's series of
	// the lpvs_ingest_* families, resolved once here, and the decode
	// free list's checkouts.
	ingestJSON, ingestWire           ingestCodec
	ingestPoolGets, ingestPoolMisses *obs.Counter

	// Shard-federation telemetry (DESIGN.md §17), registered in every
	// personality (zero outside shard mode), so dashboards need no
	// per-mode metric discovery.
	shardTicks, shardVCsDecided *obs.Counter

	// Per-VC fleet telemetry (DESIGN.md §13); nil when
	// Config.VCLabelBudget is 0.
	vc *vcMetrics

	// Bayesian-estimator telemetry, refreshed at each tick.
	gammaSigmaMean  *obs.Gauge
	gammaDrift      *obs.Gauge
	gammaSigmaDrift *obs.Gauge
}

// ingestCodec is one codec's ingest series.
type ingestCodec struct {
	bytes, records *obs.Counter
	decode         *obs.Histogram
}

// newServerMetrics registers every daemon metric on a fresh registry.
// Gauges that mirror live server state (slot, device count, pending
// reports, gamma mean) are registered as scrape-time functions reading
// through the server mutex.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:  reg,
		http: obs.NewHTTPMetrics(reg, s.log),

		reports:      reg.Counter("lpvs_reports_total", "Device slot reports accepted."),
		ticks:        reg.Counter("lpvs_ticks_total", "Scheduling ticks run."),
		chunksServed: reg.Counter("lpvs_chunks_served_total", "Chunk metadata responses served."),
		transformed:  reg.Counter("lpvs_chunks_transformed_total", "Chunks served with the low-power transform applied."),
		observations: reg.Counter("lpvs_observations_total", "Realised power-reduction observations folded into the Bayesian estimators."),

		tickDur: reg.Histogram("lpvs_tick_duration_seconds",
			"Wall time of one scheduling tick (information compacting + Phase-1 + Phase-2).", obs.DefBuckets()),
		tickCPU: reg.Histogram("lpvs_sched_cpu_seconds",
			"CPU-sum of one scheduling tick across pool workers (equals wall time on the serial path).", obs.DefBuckets()),
		compactDur: reg.Histogram("lpvs_sched_compact_seconds",
			"Information-compacting (plan building) time per tick.", obs.DefBuckets()),
		phase1Dur: reg.Histogram("lpvs_sched_phase1_seconds",
			"Phase-1 knapsack solve time per tick.", obs.DefBuckets()),
		phase2Dur: reg.Histogram("lpvs_sched_phase2_seconds",
			"Phase-2 anxiety-swap time per tick.", obs.DefBuckets()),
		phase1Runs: reg.CounterVec("lpvs_sched_phase1_runs_total",
			"Phase-1 solves, by whether the branch-and-bound proved optimality (greedy fallback counts as optimal=\"false\").", "optimal"),
		swapsTotal: reg.Counter("lpvs_sched_swaps_total", "Accepted Phase-2 anxiety swaps."),
		tickSize: reg.Histogram("lpvs_tick_reports",
			"Device reports batched into one scheduling tick.", obs.ExpBuckets(1, 4, 8)),
		eligible: reg.Gauge("lpvs_sched_eligible",
			"Devices passing the energy-feasibility check (11) in the last tick."),
		selected: reg.Gauge("lpvs_sched_selected",
			"Devices selected for transforming in the last tick."),

		coldNodes: reg.Gauge("lpvs_phase1_cold_nodes",
			"Branch-and-bound nodes of the last tick's Phase-1 solve."),

		degraded: reg.Counter("lpvs_sched_degraded_total",
			"Ticks whose scheduling deadline expired, degrading to the anytime shortcuts."),
		shed: reg.Counter("lpvs_shed_total",
			"Requests shed by admission control with 429 + Retry-After."),
		shedRoute: reg.CounterVec("lpvs_shed_route_total",
			"Requests shed by admission control, by route.", "route"),
		panics: reg.Counter("lpvs_panics_total",
			"Handler panics converted to envelope 500s by the recovery middleware."),

		snapRestore: reg.CounterVec("lpvs_snapshot_restore_total",
			"Boot-time durable-state recoveries, by path taken (snapshot, audit, cold).", "path"),
		snapWrites: reg.Counter("lpvs_snapshot_writes_total",
			"Durable-state snapshots written successfully."),
		snapErrors: reg.Counter("lpvs_snapshot_errors_total",
			"Snapshot writes that failed."),
		snapLastUnix: reg.Gauge("lpvs_snapshot_last_success_unix_seconds",
			"Wall-clock time of the last successful snapshot write (0 = none yet)."),
		snapLastBytes: reg.Gauge("lpvs_snapshot_size_bytes",
			"Size of the last successfully written snapshot."),

		ingestPoolGets: reg.Counter("lpvs_ingest_pool_gets_total",
			"Decode-scratch checkouts from the ingest pool."),
		ingestPoolMisses: reg.Counter("lpvs_ingest_pool_misses_total",
			"Decode-scratch checkouts that had to allocate a fresh workspace."),

		shardTicks: reg.Counter("lpvs_shard_ticks_total",
			"Federated shard ticks served on POST /v1/shard/tick."),
		shardVCsDecided: reg.Counter("lpvs_shard_vcs_decided_total",
			"Channel VCs decided across federated shard ticks."),

		gammaSigmaMean: reg.Gauge("lpvs_gamma_sigma_mean",
			"Mean posterior standard deviation of the per-device gamma estimators at the last tick."),
		gammaDrift: reg.Gauge("lpvs_gamma_mean_drift",
			"Absolute change of the cluster gamma mean between the last two ticks."),
		gammaSigmaDrift: reg.Gauge("lpvs_gamma_sigma_drift",
			"Absolute change of the mean posterior sigma between the last two ticks."),
	}

	ingestBytes := reg.CounterVec("lpvs_ingest_bytes_total",
		"Report request-body bytes ingested on POST /v1/report, by codec.", "codec")
	ingestRecords := reg.CounterVec("lpvs_ingest_records_total",
		"Device report records decoded on POST /v1/report, by codec.", "codec")
	ingestDecode := reg.HistogramVec("lpvs_ingest_decode_seconds",
		"Report request-body decode time, by codec.", obs.ExpBuckets(1e-6, 4, 12), "codec")
	codec := func(name string) ingestCodec {
		return ingestCodec{ingestBytes.With(name), ingestRecords.With(name), ingestDecode.With(name)}
	}
	m.ingestJSON, m.ingestWire = codec("json"), codec("binary")

	if s.cfg.VCLabelBudget != 0 {
		m.vc = newVCMetrics(reg)
	}
	reg.CounterFunc("lpvs_series_dropped_total",
		"Labeled series the registry refused over the cardinality budget.", func() float64 {
			return float64(reg.DroppedSeries())
		})
	reg.GaugeFunc("lpvs_pool_workers", "Scheduling pool fan-out the daemon runs with.", func() float64 {
		return float64(s.pool.Workers())
	})
	reg.GaugeFunc("lpvs_inflight", "Requests currently admitted through the heavy-route gate (0 when the gate is disabled).", func() float64 {
		if s.gate == nil {
			return 0
		}
		return float64(s.gate.inflight())
	})
	reg.GaugeFunc("lpvs_slot", "Current scheduling slot.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.slot)
	})
	reg.GaugeFunc("lpvs_devices", "Devices known to the daemon.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.devices))
	})
	reg.GaugeFunc("lpvs_pending_reports", "Reports waiting for the next tick.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.pending))
	})
	reg.GaugeFunc("lpvs_last_selected", "Devices selected in the last tick.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.lastTick.Selected)
	})
	reg.GaugeFunc("lpvs_gamma_mean",
		"Mean truncated-posterior gamma estimate across devices.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			mean, _ := s.gammaStatsLocked(nil)
			return mean
		})
	reg.GaugeFunc("lpvs_gamma_uncertainty_mean",
		"Mean truncated-posterior standard deviation across devices.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			sum := 0.0
			for _, st := range s.devices {
				sum += st.estimator.Uncertainty()
			}
			if len(s.devices) == 0 {
				return 0
			}
			return sum / float64(len(s.devices))
		})
	reg.CounterFunc("lpvs_gamma_observations_total",
		"Bayesian updates folded across all device estimators.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, st := range s.devices {
				n += st.estimator.Observations()
			}
			return float64(n)
		})
	reg.GaugeFunc("lpvs_shard_mode",
		"1 when the node-to-node /v1/shard/* surface is enabled.", func() float64 {
			if s.cfg.ShardMode {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("lpvs_snapshot_age_seconds",
		"Seconds since the last successful snapshot write (0 = none yet).", func() float64 {
			last := m.snapLastUnix.Value()
			if last == 0 {
				return 0
			}
			age := time.Since(time.Unix(int64(last), 0)).Seconds()
			if age < 0 {
				return 0
			}
			return age
		})
	return m
}

// gammaStatsLocked aggregates the Bayesian telemetry across devices. A
// tick passes its fleet fold, which takes each device's estimate for
// the per-channel means from the same walk (evaluating the truncated
// posterior is the cost of the walk); a scrape passes nil. Callers hold
// s.mu.
func (s *Server) gammaStatsLocked(fold fleetFold) (gammaMean, sigmaMean float64) {
	n := len(s.devices)
	if n == 0 {
		return 0, 0
	}
	for _, st := range s.devices {
		gamma := st.estimator.Gamma()
		gammaMean += gamma
		sigmaMean += st.estimator.Sigma()
		if fold != nil {
			fold.device(st.channel, gamma)
		}
	}
	return gammaMean / float64(n), sigmaMean / float64(n)
}

// observeSolve counts one decided cluster's Phase-1 solve, labelled by
// whether branch and bound proved it optimal (a greedy fallback did
// not). Called with s.mu held, from the tick's per-VC publish pass.
func (m *serverMetrics) observeSolve(dec *scheduler.Decision) {
	// A cluster with no eligible device ran no Phase-1 solve.
	if dec.Eligible > 0 {
		i := 0
		if dec.OptimalPhase1 {
			i = 1
		}
		if m.phase1Solves[i] == nil {
			m.phase1Solves[i] = m.phase1Runs.With(strconv.FormatBool(dec.OptimalPhase1))
		}
		m.phase1Solves[i].Inc()
	}
}

// observeTick records one tick's scheduler breakdown and refreshes the
// Bayesian drift gauges from the tick's gammaStatsLocked walk. Called
// with s.mu held (the gauges themselves are lock-free).
func (s *Server) observeTick(stats TickStats, gammaMean, sigmaMean float64) {
	m := s.metrics
	m.ticks.Inc()
	m.tickDur.Observe(stats.DurationSec)
	m.tickCPU.Observe(stats.CPUSec)
	m.compactDur.Observe(stats.CompactSec)
	m.phase1Dur.Observe(stats.Phase1Sec)
	m.phase2Dur.Observe(stats.Phase2Sec)
	m.tickSize.Observe(float64(stats.Reports))
	m.eligible.Set(float64(stats.Eligible))
	m.selected.Set(float64(stats.Selected))
	m.swapsTotal.Add(float64(stats.Swaps))
	m.coldNodes.Set(float64(stats.Phase1Nodes))
	if stats.Degraded {
		m.degraded.Inc()
	}
	// The tick-latency SLO's bad events (fleet.go), counted after
	// m.ticks so a source never reads more bad ticks than ticks.
	if stats.DurationSec > s.sloLatency.Seconds() {
		s.tickSlow.Add(1)
	}

	if s.tickSeen {
		m.gammaDrift.Set(abs(gammaMean - s.prevGammaMean))
		m.gammaSigmaDrift.Set(abs(sigmaMean - s.prevSigmaMean))
	}
	m.gammaSigmaMean.Set(sigmaMean)
	s.prevGammaMean, s.prevSigmaMean = gammaMean, sigmaMean
	s.tickSeen = true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Registry exposes the daemon's metrics registry so callers (cmd/lpvsd,
// tests) can attach process-level metrics such as build info.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }
