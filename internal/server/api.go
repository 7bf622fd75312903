// Package server implements the LPVS edge daemon: an HTTP service that
// collects device status reports, runs the LPVS scheduler at each slot
// tick, and serves per-device transform decisions and chunk metadata —
// the deployable counterpart of the paper's Fig. 6 pipeline.
//
// API (JSON; POST /v1/report takes one JSON report, or a binary batch
// under Content-Type: application/x-lpvs-report — see internal/wire and
// DESIGN.md §16):
//
//	POST /v1/report    device status + stream request for the next slot
//	POST /v1/tick      advance the slot: run the scheduler on reports
//	GET  /v1/decision  ?device=ID -> this slot's transform decision
//	GET  /v1/chunk     ?device=ID&index=K -> chunk metadata (transformed
//	                   for selected devices)
//	POST /v1/observe   device feeds back the realised power reduction
//	GET  /v1/explain   ?device=ID -> why the device was (not) selected
//	GET  /v1/status    cluster-wide counters
//	GET  /v1/fleet     per-channel and per-stream health rollup
//	GET  /v1/slo       SLO burn-rate states
//	GET  /v1/history   metric-history range queries (with -history-window)
//	POST /v1/incident  manual flight-recorder capture (with -flight-dir)
//	GET  /healthz      liveness
//	GET  /readyz       readiness (503 while draining)
package server

import (
	"lpvs/internal/obs/history"
	"lpvs/internal/obs/slo"
	"lpvs/internal/shard"
	"lpvs/internal/wire"
)

// ReportRequest is a device's slot report (information gathering). The
// type lives in internal/wire — the payload of POST /v1/report in both
// codecs, the JSON default and the binary
// Content-Type: application/x-lpvs-report framing (DESIGN.md §16) —
// and is aliased here so API consumers keep one import.
type ReportRequest = wire.ReportRequest

// ReportResponse acknowledges a report.
type ReportResponse struct {
	Slot     int  `json:"slot"`
	Accepted bool `json:"accepted"`
}

// TickStats is one scheduling round's full breakdown — the paper's §VI
// scheduler-overhead evaluation, measured per tick: how the wall time
// splits across information compacting, the Phase-1 knapsack, and the
// Phase-2 anxiety swapping, plus the funnel from reports through
// eligibility to selection.
type TickStats struct {
	Slot          int     `json:"slot"`
	Reports       int     `json:"reports"`
	Eligible      int     `json:"eligible"`
	Selected      int     `json:"selected"`
	Swaps         int     `json:"swaps"`
	Phase1Optimal bool    `json:"phase1_optimal"`
	CompactSec    float64 `json:"compact_sec"`
	Phase1Sec     float64 `json:"phase1_sec"`
	Phase2Sec     float64 `json:"phase2_sec"`
	// CPUSec sums solve time across pool workers; DurationSec is the
	// tick's wall time (what a viewer actually waits — the Fig. 10
	// overhead figure under a multi-worker pool).
	CPUSec      float64 `json:"cpu_sec"`
	DurationSec float64 `json:"duration_sec"`
	// Phase1Nodes is the Phase-1 branch-and-bound search size.
	Phase1Nodes int `json:"phase1_nodes"`
	// CacheHits, CacheMisses and CacheEvictions are always 0, and
	// Replayed always false: no tick is served from a cross-slot cache
	// or replayed whole (DESIGN.md §9). The fields stay only because the
	// benchmark harness (bench/lpvs-loadgen, result.go) reads them; they
	// go once that reader does.
	CacheHits      int  `json:"cache_hits"`
	CacheMisses    int  `json:"cache_misses"`
	CacheEvictions int  `json:"cache_evictions"`
	Replayed       bool `json:"replayed"`
	// Degraded reports that the scheduling deadline expired and the tick
	// fell back to the anytime shortcuts (DESIGN.md §12);
	// DegradedReason says which ("deadline:phase1-greedy",
	// "deadline:phase2-skipped", or both).
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// TickResponse summarises a scheduling round. The flat counters are
// kept for older clients; Sched carries the full breakdown.
type TickResponse struct {
	Slot     int       `json:"slot"`
	Reports  int       `json:"reports"`
	Eligible int       `json:"eligible"`
	Selected int       `json:"selected"`
	Swaps    int       `json:"swaps"`
	Degraded bool      `json:"degraded"`
	Sched    TickStats `json:"sched"`
}

// DecisionResponse is one device's current decision.
type DecisionResponse struct {
	DeviceID  string  `json:"device_id"`
	Slot      int     `json:"slot"`
	Transform bool    `json:"transform"`
	Gamma     float64 `json:"gamma"`
}

// ChunkResponse carries chunk metadata for playback; the content
// statistics are post-transform when the device was selected.
type ChunkResponse struct {
	Index       int     `json:"index"`
	DurationSec float64 `json:"duration_sec"`
	BitrateKbps int     `json:"bitrate_kbps"`
	Transformed bool    `json:"transformed"`
	// Content statistics driving the client-side power model.
	MeanLuma float64 `json:"mean_luma"`
	PeakLuma float64 `json:"peak_luma"`
	MeanR    float64 `json:"mean_r"`
	MeanG    float64 `json:"mean_g"`
	MeanB    float64 `json:"mean_b"`
	// BrightnessScale asks LCD clients to dim the backlight (1 = no
	// change).
	BrightnessScale float64 `json:"brightness_scale"`
	// PlainPowerW is the edge's estimate of the chunk's untransformed
	// display power on this device (the paper's p_{n,m}(kappa)); clients
	// use it to measure the realised reduction they report back.
	PlainPowerW float64 `json:"plain_power_w"`
}

// PlaylistResponse lists the chunks of the device's current slot — the
// manifest a player fetches before requesting chunk metadata.
type PlaylistResponse struct {
	DeviceID    string    `json:"device_id"`
	Slot        int       `json:"slot"`
	Transformed bool      `json:"transformed"`
	Chunks      int       `json:"chunks"`
	Durations   []float64 `json:"durations_sec"`
}

// ObserveRequest feeds the realised mean power reduction of a played
// slot back into the device's Bayesian estimator.
type ObserveRequest struct {
	DeviceID  string  `json:"device_id"`
	Reduction float64 `json:"reduction"`
}

// ObserveResponse returns the updated gamma estimate.
type ObserveResponse struct {
	Gamma        float64 `json:"gamma"`
	Observations int     `json:"observations"`
}

// ExplainResponse is one device's verdict from its last scheduled
// tick: the binding reason code, a human-readable account of the
// constraint or phase that determined it, and the quantities the
// decision weighed.
type ExplainResponse struct {
	DeviceID string `json:"device_id"`
	Slot     int    `json:"slot"`
	Selected bool   `json:"selected"`
	Eligible bool   `json:"eligible"`
	// Reason is the stable machine-readable code (scheduler.Reason);
	// Detail is the prose explanation.
	Reason        string  `json:"reason"`
	Detail        string  `json:"detail"`
	AnxietyBefore float64 `json:"anxiety_before"`
	AnxietyAfter  float64 `json:"anxiety_after"`
	Gamma         float64 `json:"gamma_est"`
	SavingFrac    float64 `json:"saving_frac"`
}

// StatusResponse is the cluster dashboard.
type StatusResponse struct {
	Slot            int     `json:"slot"`
	Devices         int     `json:"devices"`
	PendingReports  int     `json:"pending_reports"`
	LastSelected    int     `json:"last_selected"`
	ComputeCapacity float64 `json:"compute_capacity"`
	StorageMB       float64 `json:"storage_mb"`
	Lambda          float64 `json:"lambda"`
	StreamChunks    int     `json:"stream_chunks"`
	// Workers is the scheduling pool fan-out the daemon runs with.
	Workers int `json:"workers"`
	// StartUnixSec reports when the daemon started; UptimeMS how long it
	// has been up, in integer milliseconds from the monotonic clock (a
	// wall-clock step — NTP, DST — cannot move it).
	StartUnixSec float64 `json:"start_unix_sec"`
	UptimeMS     int64   `json:"uptime_ms"`
	// AuditPath is the decision audit log file ("" = auditing off);
	// TraceSample is the span-tracing sampling probability (0 = off).
	AuditPath   string  `json:"audit_path,omitempty"`
	TraceSample float64 `json:"trace_sample"`
	// LastTick is the scheduler breakdown of the most recent tick; nil
	// until the first tick has run.
	LastTick *TickStats `json:"last_tick,omitempty"`
	// Resilience settings and lifetime counters (DESIGN.md §12):
	// SchedDeadlineSec is the per-tick scheduling budget (0 =
	// unbounded); MaxInflight the admission bound (0 = gate disabled);
	// DegradedTicks / ShedRequests count deadline-degraded ticks and
	// load-shed requests since daemon start.
	SchedDeadlineSec float64 `json:"sched_deadline_sec"`
	MaxInflight      int     `json:"max_inflight"`
	DegradedTicks    uint64  `json:"degraded_ticks"`
	ShedRequests     uint64  `json:"shed_requests"`
	// Durable state (DESIGN.md §14). SnapshotPath is the snapshot file
	// ("" = durable state off); RestorePath records which recovery path
	// boot took ("snapshot", "audit", or "cold", "" when durable state
	// is off) with RestoreDetail the human-readable account. The
	// remaining fields mirror the lpvs_snapshot_* metrics.
	SnapshotPath        string  `json:"snapshot_path,omitempty"`
	SnapshotIntervalSec float64 `json:"snapshot_interval_sec,omitempty"`
	RestorePath         string  `json:"restore_path,omitempty"`
	RestoreDetail       string  `json:"restore_detail,omitempty"`
	SnapshotWrites      uint64  `json:"snapshot_writes"`
	SnapshotErrors      uint64  `json:"snapshot_errors"`
	SnapshotLastUnixSec int64   `json:"snapshot_last_unix_sec"`
	SnapshotLastBytes   int64   `json:"snapshot_last_bytes"`
	// Forensics (DESIGN.md §15). HistoryWindowSec is the metric-history
	// retention window (0 = history off); FlightDir the incident-bundle
	// directory ("" = recorder off); FlightBundles / FlightLastUnixSec
	// mirror the lpvs_flight_* metrics.
	HistoryWindowSec   float64 `json:"history_window_sec,omitempty"`
	HistoryIntervalSec float64 `json:"history_interval_sec,omitempty"`
	HistorySamples     uint64  `json:"history_samples,omitempty"`
	FlightDir          string  `json:"flight_dir,omitempty"`
	FlightBundles      uint64  `json:"flight_bundles,omitempty"`
	FlightLastUnixSec  float64 `json:"flight_last_unix_sec,omitempty"`
	// Report-ingest counters (DESIGN.md §16), split by codec. Byte and
	// record totals are lifetime uint64s — at fleet scale they overflow
	// a signed 32-bit int in days, so they are kept unsigned end to end
	// and mirror the lpvs_ingest_* metric families. MaxBatchRecords
	// echoes the configured per-batch record cap (negative = unbounded).
	IngestBytesJSON       uint64  `json:"ingest_bytes_json"`
	IngestBytesBinary     uint64  `json:"ingest_bytes_binary"`
	IngestRecordsJSON     uint64  `json:"ingest_records_json"`
	IngestRecordsBinary   uint64  `json:"ingest_records_binary"`
	IngestPoolGets        uint64  `json:"ingest_pool_gets"`
	IngestPoolMisses      uint64  `json:"ingest_pool_misses"`
	IngestPoolHitRate     float64 `json:"ingest_pool_hit_rate"`
	IngestMaxBatchRecords int     `json:"ingest_max_batch_records"`
	// Shard-federation fields (DESIGN.md §17), all describing THIS
	// process only: ShardMode/ShardNodeID identify the personality,
	// ShardEpoch the installed map version, and the counters its
	// federated tick traffic. A router's /v1/status reports its
	// per-shard view in a separate `shards` sub-object instead of
	// folding downstream state into these flat fields.
	ShardMode       bool   `json:"shard_mode,omitempty"`
	ShardNodeID     string `json:"shard_node_id,omitempty"`
	ShardEpoch      string `json:"shard_epoch,omitempty"`
	ShardTicks      uint64 `json:"shard_ticks,omitempty"`
	ShardVCsDecided uint64 `json:"shard_vcs_decided,omitempty"`
}

// HistoryResponse is the GET /v1/history range-query result: the
// matching retained series, each a list of timestamped points whose
// Kind says whether values are instantaneous readings or per-sample
// deltas (see internal/obs/history).
type HistoryResponse struct {
	NowUnixSec  float64          `json:"now_unix_sec"`
	WindowSec   float64          `json:"window_sec"`
	IntervalSec float64          `json:"interval_sec"`
	Samples     uint64           `json:"samples"`
	Series      []history.Series `json:"series"`
}

// IncidentRequest is the optional POST /v1/incident body.
type IncidentRequest struct {
	Reason string `json:"reason"`
}

// IncidentResponse reports a manual flight-recorder capture.
type IncidentResponse struct {
	Path           string  `json:"path"`
	Trigger        string  `json:"trigger"`
	WrittenUnixSec float64 `json:"written_unix_sec"`
	Bundles        uint64  `json:"bundles"`
}

// FleetResponse is the /v1/fleet health rollup: one row per channel
// (the server-layer VC) and one per scheduling stream (the pool-layer
// VC), plus the labeled-series cardinality accounting.
type FleetResponse struct {
	Slot int `json:"slot"`
	// VCLabelBudget echoes the configured per-family labeled-series cap
	// (0 = per-VC series disabled, negative = uncapped); SeriesDropped
	// counts labeled series the registry refused over that budget.
	VCLabelBudget int              `json:"vc_label_budget"`
	SeriesDropped uint64           `json:"series_dropped"`
	Channels      []ChannelSummary `json:"channels"`
	// Streams is each scheduling stream's accumulated health, in key
	// order (one entry per VC ID: "edge" for a standalone daemon's
	// single cluster, the channel ID for each channel a shard
	// schedules).
	Streams []StreamStat `json:"streams"`
}

// StreamStat is the accumulated health of one scheduling stream (VC
// ID) across the ticks that decided it — the per-stream rows of
// /v1/fleet and the `lpvsctl top` dashboard.
type StreamStat struct {
	// Key is the VC ID.
	Key string `json:"key"`
	// Ticks counts decided ticks; DegradedTicks those that hit the
	// scheduling deadline.
	Ticks         uint64 `json:"ticks"`
	DegradedTicks uint64 `json:"degraded_ticks"`
	// WallSecondsTotal accumulates solve wall time; LastWallSeconds is
	// the most recent tick's.
	WallSecondsTotal float64 `json:"wall_seconds_total"`
	LastWallSeconds  float64 `json:"last_wall_seconds"`
	// LastRequests/LastEligible/LastSelected snapshot the most recent
	// tick's funnel.
	LastRequests int `json:"last_requests"`
	LastEligible int `json:"last_eligible"`
	LastSelected int `json:"last_selected"`
}

// ChannelSummary is one channel's fleet-health row. Devices and
// PendingReports are live; the remaining funnel fields snapshot the
// last tick.
type ChannelSummary struct {
	Channel           string  `json:"channel"`
	Devices           int     `json:"devices"`
	PendingReports    int     `json:"pending_reports"`
	Admitted          int     `json:"admitted"`
	Eligible          int     `json:"eligible"`
	Selected          int     `json:"selected"`
	TransformedChunks uint64  `json:"transformed_chunks"`
	GammaMean         float64 `json:"gamma_mean"`
	GammaDrift        float64 `json:"gamma_drift"`
}

// SLOResponse is the /v1/slo body: every objective's fresh burn-rate
// evaluation (the handler evaluates on demand, so polling sharpens the
// windows beyond the background sampling interval).
type SLOResponse struct {
	EvalUnixSec float64     `json:"eval_unix_sec"`
	Objectives  []slo.State `json:"objectives"`
}

// ReadyResponse is the /readyz body; Reason says why when not ready.
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// BatchReportResponse summarises one batch report: how many items were
// staged for the next tick and which were rejected. Results lists only
// the rejected items, in input order — at 10k+ devices an all-accepted
// per-item echo would dominate the response; Index says which input
// record each entry refers to.
type BatchReportResponse struct {
	Slot     int                 `json:"slot"`
	Accepted int                 `json:"accepted"`
	Rejected int                 `json:"rejected"`
	Results  []BatchReportResult `json:"results"`
}

// ShardTickRequest is the optional POST /v1/shard/tick body. Node and
// Epoch, when set, let the shard verify the caller's view of the
// federation before scheduling: a tick addressed to the wrong node is
// a 409 wrong_shard, a stale map epoch a 409 shard_epoch_mismatch.
type ShardTickRequest struct {
	Node  string `json:"node,omitempty"`
	Epoch string `json:"epoch,omitempty"`
}

// ShardVCDecision is one channel VC's outcome within a shard tick. A
// shard schedules each channel as its own VC (ID = channel ID), so
// the router can merge the federation's decisions in VC-ID order.
// Canonical carries the decision's canonical bytes — the same encoding
// the pool's serial-vs-parallel differential compares — so merge-level
// determinism is checkable end to end.
type ShardVCDecision struct {
	VC        string  `json:"vc"`
	Reports   int     `json:"reports"`
	Eligible  int     `json:"eligible"`
	Selected  int     `json:"selected"`
	Swaps     int     `json:"swaps"`
	Degraded  bool    `json:"degraded"`
	WallSec   float64 `json:"wall_sec"`
	Canonical []byte  `json:"canonical"`
}

// ShardTickResponse summarises one shard's federated tick: the flat
// counters aggregate across the shard's channel VCs; VCs carries the
// per-channel decisions in VC-ID order, and Devices, parallel to VCs,
// what the shard would answer each of their devices' decision read
// with besides the verdict. The router fills its decision table from
// the two (DESIGN.md §17) and never passes Devices on: its /v1/tick
// embeds ShardVCDecision only. The shard appends this body straight
// from its tick outcome, and the router reads it back through ReadJSON
// into storage it reuses tick to tick (encode.go, DESIGN.md §18); the
// bytes are encoding/json's for this type, so a shard and a router of
// different builds still read each other.
type ShardTickResponse struct {
	Node     string            `json:"node,omitempty"`
	Slot     int               `json:"slot"`
	Epoch    string            `json:"epoch,omitempty"`
	Reports  int               `json:"reports"`
	Eligible int               `json:"eligible"`
	Selected int               `json:"selected"`
	Swaps    int               `json:"swaps"`
	Degraded bool              `json:"degraded"`
	VCs      []ShardVCDecision `json:"vcs"`
	Devices  []ShardVCDevices  `json:"devices"`
	Sched    TickStats         `json:"sched"`
}

// ShardVCDevices is one channel VC's devices as the shard published
// them, in the line order of the VC's Canonical: each device's γ
// estimate and the number of observations behind it.
type ShardVCDevices struct {
	Gamma        []float64 `json:"gamma"`
	Observations []int     `json:"observations"`
}

// ShardMapResponse is the shard-map epoch exchange body (GET and POST
// /v1/shard/map).
type ShardMapResponse struct {
	Epoch    string       `json:"epoch"`
	Replicas int          `json:"replicas"`
	Nodes    []shard.Node `json:"nodes"`
}

// BatchReportResult is one rejected batch item: Error carries the same
// envelope body a JSON report's rejection would have returned, and Index
// is the item's position in the submitted batch. Accepted is always
// false; it stays in the row so a rejection reads the same to every
// client that parses it.
type BatchReportResult struct {
	Index    int        `json:"index,omitempty"`
	DeviceID string     `json:"device_id"`
	Accepted bool       `json:"accepted"`
	Error    *ErrorBody `json:"error,omitempty"`
}
