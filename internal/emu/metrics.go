package emu

import (
	"io"

	"lpvs/internal/obs"
)

// FillRegistry renders a finished run into an obs registry using the
// same metric vocabulary as the live edge daemon (lpvs_ticks_total,
// lpvs_tick_duration_seconds, the lpvs_sched_* phase histograms, ...),
// plus the run-level evaluation summaries of the paper's §VI. An
// emulation campaign's dump is therefore directly comparable with a
// scrape of a production lpvsd.
func (r *RunResult) FillRegistry(reg *obs.Registry) {
	reg.Counter("lpvs_ticks_total", "Scheduling ticks run.").Add(float64(r.SlotsRun))
	reg.Gauge("lpvs_devices", "Devices in the virtual cluster.").Set(float64(len(r.TPVMin)))

	tickDur := reg.Histogram("lpvs_tick_duration_seconds",
		"Wall time of one scheduling tick (information compacting + Phase-1 + Phase-2).", obs.DefBuckets())
	tickCPU := reg.Histogram("lpvs_sched_cpu_seconds",
		"CPU-sum of one scheduling tick across pool workers (equals wall time on the serial path).", obs.DefBuckets())
	compactDur := reg.Histogram("lpvs_sched_compact_seconds",
		"Information-compacting (plan building) time per tick.", obs.DefBuckets())
	phase1Dur := reg.Histogram("lpvs_sched_phase1_seconds",
		"Phase-1 knapsack solve time per tick.", obs.DefBuckets())
	phase2Dur := reg.Histogram("lpvs_sched_phase2_seconds",
		"Phase-2 anxiety-swap time per tick.", obs.DefBuckets())
	playDur := reg.Histogram("lpvs_emu_play_seconds",
		"Playback (battery-drain) emulation time per slot.", obs.DefBuckets())
	selected := reg.Histogram("lpvs_sched_selected_per_tick",
		"Devices selected for transforming per tick.", obs.ExpBuckets(1, 4, 8))
	swaps := reg.Counter("lpvs_sched_swaps_total", "Accepted Phase-2 anxiety swaps.")
	for _, st := range r.Timeline {
		tickDur.Observe(st.SchedSec)
		tickCPU.Observe(st.SchedCPUSec)
		compactDur.Observe(st.CompactSec)
		phase1Dur.Observe(st.Phase1Sec)
		phase2Dur.Observe(st.Phase2Sec)
		playDur.Observe(st.PlaySec)
		selected.Observe(float64(st.Selected))
		swaps.Add(float64(st.Swaps))
	}

	reg.Counter("lpvs_sched_seconds_total",
		"Cumulative scheduler wall time over the run.").Add(r.SchedSeconds)
	reg.Counter("lpvs_sched_cpu_seconds_total",
		"Cumulative scheduler CPU-sum across pool workers over the run.").Add(r.SchedCPUSeconds)
	reg.Counter("lpvs_display_energy_joules_total",
		"Display energy actually drawn across the cluster.").Add(r.DisplayEnergyJ)
	reg.Counter("lpvs_display_energy_untransformed_joules_total",
		"Display energy the same played content would have drawn untransformed.").Add(r.UntransformedDisplayEnergyJ)
	reg.Gauge("lpvs_energy_saving_ratio",
		"Display energy saving ratio of the run (paper Figs. 7/8a).").Set(r.EnergySavingRatio())
	reg.Gauge("lpvs_anxiety_mean",
		"Mean anxiety degree over device-slots (paper Figs. 7/8b input).").Set(r.MeanAnxiety())
	reg.Gauge("lpvs_quality_loss_mean",
		"Mean perceptual distortion per played chunk.").Set(r.MeanQualityLoss())
	reg.Gauge("lpvs_energy_prediction_error_mean",
		"Mean absolute error of the compacted energy forecast (battery fraction).").Set(r.MeanEnergyPredictionError())
	if n := len(r.Timeline); n > 0 {
		reg.Gauge("lpvs_gamma_mean",
			"Mean truncated-posterior gamma estimate across devices.").Set(r.Timeline[n-1].MeanGamma)
	}

	tpv := reg.Histogram("lpvs_tpv_minutes",
		"Watching time per viewer in minutes (paper Fig. 9).", obs.ExpBuckets(7.5, 2, 8))
	for _, min := range r.TPVMin {
		tpv.Observe(min)
	}
}

// WriteMetrics dumps the run summary in the Prometheus text exposition
// format — the shared observability vocabulary for emulation campaigns.
func (r *RunResult) WriteMetrics(w io.Writer) error {
	reg := obs.NewRegistry()
	r.FillRegistry(reg)
	return reg.WriteText(w)
}
