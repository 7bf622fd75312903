package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lpvs/internal/bayes"
	"lpvs/internal/bufpool"
	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/obs"
	"lpvs/internal/obs/audit"
	"lpvs/internal/obs/flight"
	"lpvs/internal/obs/history"
	"lpvs/internal/obs/slo"
	"lpvs/internal/obs/span"
	"lpvs/internal/scheduler"
	"lpvs/internal/shard"
	"lpvs/internal/transform"
	"lpvs/internal/video"
)

// Config parameterises the edge daemon.
type Config struct {
	// Stream is the default live stream this edge site serves. Required.
	Stream *video.Video
	// ExtraStreams are additional channels the site serves; devices pick
	// one with ReportRequest.ChannelID (empty = the default stream).
	ExtraStreams []*video.Video
	// ServerStreams sizes the transform capacity; negative = unbounded.
	ServerStreams int
	// Lambda is the scheduler's energy/anxiety balance.
	Lambda float64
	// SlotSec is the slot length; zero means
	// scheduler.DefaultSlotSeconds. A slot holds
	// SlotSec/video.DefaultChunkSeconds chunks, at least one.
	SlotSec float64
	// Workers is the scheduling pool fan-out (VC sharding plus parallel
	// information compacting inside the tick). Zero means
	// runtime.GOMAXPROCS(0); one forces the serial path. Decisions are
	// bit-identical at any width — see the scheduler differential tests.
	Workers int
	// Logger receives the daemon's structured logs; nil discards them.
	Logger *slog.Logger
	// AuditDir, when non-empty, appends one decision audit record per
	// tick to AuditDir/audit.jsonl (see internal/obs/audit); the log
	// replays deterministically with `lpvsctl audit replay`.
	AuditDir string
	// TraceSample is the span-tracing sampling probability: 0 disables
	// tracing (the zero-overhead path), 1 traces every tick.
	TraceSample float64
	// SchedDeadline bounds one tick's scheduling wall time (DESIGN.md
	// §12): on expiry the scheduler degrades to its always-feasible
	// anytime shortcuts and the decision is flagged Degraded. Zero means
	// unbounded (decisions byte-identical to the pre-deadline path).
	SchedDeadline time.Duration
	// MaxInflight bounds concurrently admitted heavy requests
	// (report/tick/observe); beyond it requests are shed with 429 +
	// Retry-After. Zero means DefaultMaxInflight; negative disables the
	// gate.
	MaxInflight int
	// MaxBodyBytes caps one POST body (413 beyond). Zero means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxBatchRecords caps records per batch report in both codecs
	// (typed 413 beyond — the byte cap alone would let a compact binary
	// batch smuggle unbounded records under it). Zero means
	// DefaultMaxBatchRecords; negative disables the cap.
	MaxBatchRecords int
	// VCLabelBudget enables the per-VC labeled metric series (lpvs_vc_*,
	// by channel and scheduling stream) and caps the registry's labeled
	// cardinality at that many series per family; overflow is refused
	// and counted in lpvs_series_dropped_total. 0 (the default) disables
	// per-VC series entirely — the zero-overhead path; negative enables
	// them without a cap.
	VCLabelBudget int
	// SLOTickLatency is the tick wall-time budget behind the
	// tick-latency SLO: slower ticks count as bad events. Zero means
	// DefaultSLOTickLatency.
	SLOTickLatency time.Duration
	// SnapshotDir, when non-empty, enables durable state (DESIGN.md
	// §14): New restores SnapshotDir/snapshot.lpvs before the daemon
	// reports ready — falling back to audit-log recovery and then a
	// cold start — and SaveSnapshot writes there atomically.
	SnapshotDir string
	// SnapshotInterval is the period of the background SaveSnapshot
	// loop (cmd/lpvsd owns the ticker); the server only surfaces it in
	// /v1/status so operators can read the configured cadence.
	SnapshotInterval time.Duration
	// HistoryWindow, when positive, enables the in-process metric
	// history ring (DESIGN.md §15): the registry is sampled every
	// HistoryInterval and GET /v1/history serves range queries over the
	// window. cmd/lpvsd owns the sampling ticker; tests drive
	// History().Sample() directly.
	HistoryWindow time.Duration
	// HistoryInterval is the history sampling cadence (zero means
	// history.DefaultInterval).
	HistoryInterval time.Duration
	// FlightDir, when non-empty, arms the black-box flight recorder
	// (DESIGN.md §15): SLO alarm transitions, recovered panics, shed
	// bursts, and POST /v1/incident each freeze a forensic bundle into
	// FlightDir, inspectable with `lpvsctl flight`.
	FlightDir string
	// ShardMode enables the node-to-node /v1/shard/* surface (DESIGN.md
	// §17): federated per-channel ticks and shard-map epoch exchange.
	// Off by default; the endpoints then answer an envelope 404, so a
	// mis-pointed router fails loudly.
	ShardMode bool
	// NodeID is this process's identity in a shard federation. Shard
	// ticks addressed to a different node are refused with 409
	// wrong_shard; empty skips the check.
	NodeID string
	// ShardMap, when non-nil, is the boot-time shard map; /v1/shard/*
	// requests carrying a different epoch are refused with 409
	// shard_epoch_mismatch until maps are re-exchanged. POST
	// /v1/shard/map installs newer maps at runtime.
	ShardMap *shard.Map
}

// deviceState is the daemon's per-device bookkeeping.
type deviceState struct {
	estimator *bayes.GammaEstimator
	spec      display.Spec
	transform bool
	// pendingAt is where the device's report sits in Server.pending —
	// a hint, stale once a tick has taken the batch, so stage checks it
	// against the table. An int32 because that fits the padding after
	// transform: the struct stays in its 144-byte size class.
	pendingAt int32
	slot      int
	channel   string // stream the device watches
	// verdict is the device's explanation from its last scheduled tick;
	// hasVerdict guards against serving the zero value before then.
	verdict    scheduler.Verdict
	hasVerdict bool
}

// Server is the LPVS edge daemon. It is safe for concurrent use.
type Server struct {
	cfg       Config
	pool      *scheduler.Pool
	edgeSrv   *edge.Server // nil = unbounded
	chunksPer int

	streams map[string]*video.Video
	log     *slog.Logger
	metrics *serverMetrics
	tracer  *span.Tracer
	audit   *audit.Log // nil when auditing is off
	started time.Time

	// Resilience state (DESIGN.md §12). gate is nil when admission
	// control is disabled; shed/degraded are lifetime counters mirrored
	// in /v1/status (atomics: shedding happens outside s.mu).
	gate     *gate
	maxBody  int64
	maxBatch int
	shed     atomic.Uint64
	degraded atomic.Uint64

	// Report-ingest state (DESIGN.md §16). The free list recycles decode
	// scratch (decoder + record slices) across requests; the counters
	// are atomics because ingest happens outside s.mu while /v1/status
	// and /metrics read them. Byte/record totals are uint64 end to end.
	ingestFree        *bufpool.FreeList[ingestScratch]
	ingestPoolGets    atomic.Uint64
	ingestPoolMisses  atomic.Uint64
	ingestBytesJSON   atomic.Uint64
	ingestBytesWire   atomic.Uint64
	ingestRecordsJSON atomic.Uint64
	ingestRecordsWire atomic.Uint64

	// Fleet-health state (DESIGN.md §13). The SLO sources read only the
	// atomics, so burn-rate evaluation never waits on s.mu; ready backs
	// the /readyz probe.
	slo        *slo.Engine
	sloLatency time.Duration
	ready      atomic.Bool
	tickTotal  atomic.Uint64
	tickSlow   atomic.Uint64
	admitted   atomic.Uint64

	// Durable state (DESIGN.md §14). restorePath/restoreDetail record
	// which recovery path boot took and are written once in New; the
	// counters are atomics because SaveSnapshot runs from a background
	// loop while /v1/status and /metrics read them.
	restorePath   string
	restoreDetail string
	snapWrites    atomic.Uint64
	snapErrors    atomic.Uint64
	snapLastUnix  atomic.Int64
	snapLastBytes atomic.Int64

	// Shard-federation state (DESIGN.md §17). shardMap is guarded by
	// mu (POST /v1/shard/map replaces it); the counters are atomics
	// mirrored in /metrics.
	shardTicks      atomic.Uint64
	shardVCsDecided atomic.Uint64

	// Forensics (DESIGN.md §15): the metric-history ring behind
	// /v1/history and the black-box flight recorder. Both are nil when
	// disabled and are strict observers — never consulted on the
	// scheduling path.
	history *history.Store
	flight  *flight.Recorder

	mu   sync.Mutex
	slot int
	// pending is the next tick's batch: the slot's reports in arrival
	// order, one per device (a re-report overwrites its own entry, see
	// stage). The tick sorts it in place and schedules it as it is;
	// scheduled is the batch the last tick decided — what s.tickRes and
	// the tick's outcome alias. The two trade places at the end of a
	// successful tick, so a batch is not written again until the next
	// tick has been decided and nothing reads the old one any more
	// (DESIGN.md §16), and at a stable fleet a slot allocates no
	// request storage.
	pending   []scheduler.Request
	scheduled []scheduler.Request
	// vcScratch is the tick's VC list, reused across ticks (the pool
	// copies it before ordering); chScratch holds a shard tick's
	// per-channel groups, each truncated and refilled every tick,
	// auditRec the storage of the audit record and its encoded line
	// (audit.Builder: valid until the next cluster is audited), and
	// tickRes the scheduler's result, decided into again by the next
	// tick (scheduler.Pool.DecideInto): valid from one tick's decide
	// until the next one's.
	vcScratch []scheduler.VC
	chScratch map[string][]scheduler.Request
	auditRec  audit.Builder
	tickRes   scheduler.PoolResult
	devices   map[string]*deviceState
	lastTick  TickStats
	tickSeen  bool
	// canonScratch holds the canonical text of the VC a shard tick
	// reply is encoding (appendShardTickLocked), reused VC to VC, and
	// shardReply the reply itself, reused tick to tick: the reply grows
	// with the fleet, and a pooled buffer the small bodies share would
	// regrow to it every tick.
	canonScratch, shardReply []byte
	// shardMap is the installed federation map (nil outside shard
	// deployments); see Config.ShardMap.
	shardMap *shard.Map
	// fleet accumulates per-channel health; prevVC holds the last pool
	// stream snapshot per state key so stream counters emit as deltas.
	fleet  map[string]*channelStat
	prevVC map[string]scheduler.VCStat
	// prevGammaMean/prevSigmaMean hold the cluster telemetry of the
	// previous tick, from which the drift gauges are derived.
	prevGammaMean, prevSigmaMean float64
}

// New validates the configuration and builds the daemon.
func New(cfg Config) (*Server, error) {
	if cfg.Stream == nil {
		return nil, fmt.Errorf("server: nil stream")
	}
	if err := cfg.Stream.Validate(); err != nil {
		return nil, err
	}
	streams := map[string]*video.Video{cfg.Stream.ID: cfg.Stream}
	for _, v := range cfg.ExtraStreams {
		if v == nil {
			return nil, fmt.Errorf("server: nil extra stream")
		}
		if err := v.Validate(); err != nil {
			return nil, err
		}
		if _, dup := streams[v.ID]; dup {
			return nil, fmt.Errorf("server: duplicate stream ID %q", v.ID)
		}
		streams[v.ID] = v
	}
	if cfg.SlotSec == 0 {
		cfg.SlotSec = scheduler.DefaultSlotSeconds
	}
	var edgeSrv *edge.Server
	var err error
	if cfg.ServerStreams >= 0 {
		edgeSrv, err = edge.NewServer(cfg.ServerStreams)
		if err != nil {
			return nil, err
		}
	}
	pool, err := scheduler.NewPool(scheduler.Config{
		SlotSec: cfg.SlotSec,
		Lambda:  cfg.Lambda,
		Server:  edgeSrv,
	}, scheduler.PoolConfig{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	chunksPer := int(cfg.SlotSec / video.DefaultChunkSeconds)
	if chunksPer < 1 {
		return nil, fmt.Errorf("server: slot shorter than a chunk")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	s := &Server{
		cfg:       cfg,
		pool:      pool,
		edgeSrv:   edgeSrv,
		chunksPer: chunksPer,
		streams:   streams,
		log:       logger,
		tracer:    span.NewTracer(span.Config{Sample: cfg.TraceSample}),
		started:   time.Now(),
		devices:   make(map[string]*deviceState),
		fleet:     make(map[string]*channelStat),
		prevVC:    make(map[string]scheduler.VCStat),
		maxBody:   cfg.MaxBodyBytes,
		shardMap:  cfg.ShardMap,

		ingestFree: bufpool.NewFreeList[ingestScratch](bufpool.RequestWorkspaces),
	}
	if s.maxBody == 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	s.maxBatch = cfg.MaxBatchRecords
	if s.maxBatch == 0 {
		s.maxBatch = DefaultMaxBatchRecords
	}
	switch {
	case cfg.MaxInflight == 0:
		s.gate = newGate(DefaultMaxInflight)
	case cfg.MaxInflight > 0:
		s.gate = newGate(cfg.MaxInflight)
	}
	if cfg.AuditDir != "" {
		alog, err := audit.Open(cfg.AuditDir)
		if err != nil {
			return nil, fmt.Errorf("server: open audit log: %w", err)
		}
		s.audit = alog
	}
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: snapshot dir: %w", err)
		}
		// Restore before the metrics closures and /readyz can observe
		// the state: a warm-restarted daemon is ready with its learned
		// posteriors already in place.
		s.loadDurableState()
	}
	s.metrics = newServerMetrics(s)
	if s.restorePath != "" {
		s.metrics.snapRestore.With(s.restorePath).Inc()
	}
	if cfg.VCLabelBudget > 0 {
		s.metrics.reg.SetSeriesBudget(cfg.VCLabelBudget)
	}
	eng, err := s.newSLOEngine()
	if err != nil {
		return nil, fmt.Errorf("server: slo engine: %w", err)
	}
	s.slo = eng
	s.slo.Register(s.metrics.reg)
	if cfg.HistoryWindow > 0 {
		s.history = history.New(s.metrics.reg, history.Config{
			Window:   cfg.HistoryWindow,
			Interval: cfg.HistoryInterval,
		})
		s.history.Register(s.metrics.reg)
	}
	if cfg.FlightDir != "" {
		if err := s.newFlightRecorder(); err != nil {
			return nil, fmt.Errorf("server: flight recorder: %w", err)
		}
	}
	s.ready.Store(true)
	return s, nil
}

// Tracer exposes the daemon's span tracer (for export and tests).
func (s *Server) Tracer() *span.Tracer { return s.tracer }

// Close releases the daemon's file resources (the audit log).
func (s *Server) Close() error {
	if s.audit != nil {
		return s.audit.Close()
	}
	return nil
}

// Handler returns the daemon's HTTP routes behind the v1 route shell
// (shell.go).
func (s *Server) Handler() http.Handler {
	return s.shell().Handler(s.routes())
}

// routes is the daemon's route table.
func (s *Server) routes() []Route {
	// The node-to-node surface (DESIGN.md §17) is registered in every
	// personality so routing behavior (405 + Allow included) is uniform,
	// but outside Config.ShardMode it answers an envelope 404 — a router
	// pointed at a plain edge daemon fails loudly instead of silently
	// double-scheduling.
	shardOnly := func(h http.HandlerFunc) http.HandlerFunc {
		if !s.cfg.ShardMode {
			return shardDisabled
		}
		return h
	}
	return []Route{
		{Method: "POST", Path: "/v1/report", Handler: s.handleReport, Gated: true},
		{Method: "POST", Path: "/v1/tick", Handler: s.handleTick, Gated: true},
		{Method: "GET", Path: "/v1/decision", Handler: s.handleDecision},
		{Method: "GET", Path: "/v1/chunk", Handler: s.handleChunk},
		{Method: "GET", Path: "/v1/playlist", Handler: s.handlePlaylist},
		{Method: "POST", Path: "/v1/observe", Handler: s.handleObserve, Gated: true},
		{Method: "GET", Path: "/v1/explain", Handler: s.handleExplain},
		{Method: "GET", Path: "/v1/status", Handler: s.handleStatus},
		{Method: "GET", Path: "/v1/fleet", Handler: s.handleFleet},
		// History and incident capture stay ungated: forensics must
		// keep working while admission control is shedding load.
		{Method: "GET", Path: "/v1/history", Handler: s.handleHistory},
		{Method: "POST", Path: "/v1/incident", Handler: s.handleIncident},
		{Method: "POST", Path: "/v1/shard/tick", Handler: shardOnly(s.handleShardTick), Gated: true},
		{Method: "GET", Path: "/v1/shard/map", Handler: shardOnly(s.handleShardMapGet)},
		{Method: "POST", Path: "/v1/shard/map", Handler: shardOnly(s.handleShardMapPost)},
	}
}

// shell is the daemon's route shell: its HTTP metrics, logger and body
// cap, the probes' sources, the admission gate when enabled, and the
// panic counter and flight-recorder trigger behind OnPanic.
func (s *Server) shell() Shell {
	sh := Shell{
		Metrics:      s.metrics.http,
		Log:          s.log,
		MaxBodyBytes: s.maxBody,
		Ready:        &s.ready,
		Registry:     s.metrics.reg,
		SLO:          s.slo,
		OnPanic: func(path string, rec any) {
			s.metrics.panics.Inc()
			if s.flight != nil {
				s.flight.OnPanic(fmt.Sprintf("%s: %v", path, rec))
			}
		},
	}
	if s.gate != nil {
		sh.Admit = s.admit
	}
	return sh
}

// slotWindow returns a stream's chunk window of the given slot, wrapping
// around the stream for long-running clusters. An unknown or empty
// channel falls back to the default stream.
func (s *Server) slotWindow(channel string, slot int) []video.Chunk {
	stream, ok := s.streams[channel]
	if !ok {
		stream = s.cfg.Stream
	}
	total := len(stream.Chunks) / s.chunksPer
	if total == 0 {
		return stream.Chunks
	}
	start := (slot % total) * s.chunksPer
	return stream.Chunks[start : start+s.chunksPer]
}

// acceptReportLocked validates and stages one report for the next
// tick. Caller holds s.mu.
func (s *Server) acceptReportLocked(req ReportRequest) *apiError {
	spec, err := req.Spec()
	if err != nil {
		return errBadRequest(err.Error())
	}
	st, ok := s.devices[req.DeviceID]
	if !ok {
		st = &deviceState{estimator: bayes.NewGammaEstimator()}
	}
	channel := s.cfg.Stream.ID
	if req.ChannelID != "" {
		if _, ok := s.streams[req.ChannelID]; !ok {
			return &apiError{Status: http.StatusBadRequest, Code: CodeUnknownChannel,
				Message: fmt.Sprintf("unknown channel %q", req.ChannelID)}
		}
		channel = req.ChannelID
	}
	sreq := scheduler.Request{
		DeviceID:         req.DeviceID,
		Display:          spec,
		EnergyFrac:       req.EnergyFrac,
		BatteryCapacityJ: req.BatteryCapacityJ,
		BasePowerW:       req.BasePowerW,
		Chunks:           s.slotWindow(channel, s.slot),
		Gamma:            st.estimator.Gamma(),
	}
	if err := sreq.Validate(); err != nil {
		return errBadRequest(err.Error())
	}
	// Commit device state only after full validation so a rejected
	// report leaves no trace.
	s.devices[req.DeviceID] = st
	st.spec = spec
	st.channel = channel
	s.pending, _ = stage(s.pending, st, sreq)
	s.metrics.reports.Inc()
	s.log.LogAttrs(context.Background(), slog.LevelDebug, "report accepted",
		slog.String("device", req.DeviceID), slog.String("channel", st.channel),
		slog.Float64("energy_frac", req.EnergyFrac), slog.Int("slot", s.slot))
	return nil
}

// stage puts a device's report into a pending batch and returns the
// batch: over the device's own entry when it already has one there —
// replaced is then true, and "last report wins" holds — at the end
// otherwise. st.pendingAt is only trusted when the entry it names
// carries the device's ID, which is what lets a tick hand the batch to
// the scheduler without visiting every device to reset it.
func stage(pending []scheduler.Request, st *deviceState, req scheduler.Request) (_ []scheduler.Request, replaced bool) {
	if at := int(st.pendingAt); at < len(pending) && pending[at].DeviceID == req.DeviceID {
		pending[at] = req
		return pending, true
	}
	st.pendingAt = int32(len(pending))
	return append(pending, req), false
}

// handleTick runs the standalone scheduling tick: every pending report
// in one virtual cluster.
func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, err := s.runTickLocked(r.Context(), oneVC)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	st := out.stats
	WriteJSON(w, http.StatusOK, TickResponse{
		Slot:     st.Slot,
		Reports:  st.Reports,
		Eligible: st.Eligible,
		Selected: st.Selected,
		Swaps:    st.Swaps,
		Degraded: st.Degraded,
		Sched:    st,
	})
}

func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	id, ok := DeviceParam(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.devices[id]
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownDevice, fmt.Errorf("unknown device %q", id))
		return
	}
	WriteAppended(w, DecisionResponse{
		DeviceID:  id,
		Slot:      st.slot,
		Transform: st.transform,
		Gamma:     st.estimator.Gamma(),
	})
}

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	id, ok := DeviceParam(w, r)
	if !ok {
		return
	}
	idxStr := queryValue(r.URL.RawQuery, "index")
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad chunk index %q", idxStr))
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.devices[id]
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownDevice, fmt.Errorf("unknown device %q", id))
		return
	}
	window := s.slotWindow(st.channel, st.slot)
	if idx >= len(window) {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("chunk %d beyond slot window (%d)", idx, len(window)))
		return
	}
	chunk := window[idx]
	s.metrics.chunksServed.Inc()
	plainW, err := video.PowerRate(st.spec, chunk)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	resp := ChunkResponse{
		Index:           chunk.Index,
		DurationSec:     chunk.DurationSec,
		BitrateKbps:     chunk.BitrateKbps,
		BrightnessScale: 1,
		MeanLuma:        chunk.Stats.MeanLuma,
		PeakLuma:        chunk.Stats.PeakLuma,
		MeanR:           chunk.Stats.MeanR,
		MeanG:           chunk.Stats.MeanG,
		MeanB:           chunk.Stats.MeanB,
		PlainPowerW:     plainW,
	}
	if st.transform {
		strat := transform.Default(st.spec.Type)
		res, err := strat.Apply(st.spec, chunk.Stats, transform.Tolerance)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		resp.Transformed = true
		s.metrics.transformed.Inc()
		if fs := s.fleet[st.channel]; fs != nil {
			fs.transformed++
		}
		if vm := s.metrics.vc; vm != nil {
			vm.chunksTransformed.With(st.channel).Inc()
		}
		resp.BrightnessScale = res.BrightnessScale
		resp.MeanLuma = res.Stats.MeanLuma
		resp.PeakLuma = res.Stats.PeakLuma
		resp.MeanR = res.Stats.MeanR
		resp.MeanG = res.Stats.MeanG
		resp.MeanB = res.Stats.MeanB
	}
	WriteAppended(w, resp)
}

func (s *Server) handlePlaylist(w http.ResponseWriter, r *http.Request) {
	id, ok := DeviceParam(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.devices[id]
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownDevice, fmt.Errorf("unknown device %q", id))
		return
	}
	window := s.slotWindow(st.channel, st.slot)
	resp := PlaylistResponse{
		DeviceID:    id,
		Slot:        st.slot,
		Transformed: st.transform,
		Chunks:      len(window),
		Durations:   make([]float64, len(window)),
	}
	for i, c := range window {
		resp.Durations[i] = c.DurationSec
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, sp := s.tracer.Start(r.Context(), "observe")
	defer sp.End()
	sp.SetStr("device", req.DeviceID)
	st, ok := s.devices[req.DeviceID]
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownDevice, fmt.Errorf("unknown device %q", req.DeviceID))
		return
	}
	_, bsp := span.Child(ctx, "bayes-update")
	err := st.estimator.Observe(req.Reduction)
	bsp.Set("gamma", st.estimator.Gamma())
	bsp.SetInt("observations", st.estimator.Observations())
	bsp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	s.metrics.observations.Inc()
	s.log.LogAttrs(ctx, slog.LevelDebug, "observation",
		slog.String("device", req.DeviceID), slog.Float64("reduction", req.Reduction),
		slog.Float64("gamma", st.estimator.Gamma()), slog.Int("observations", st.estimator.Observations()))
	WriteJSON(w, http.StatusOK, ObserveResponse{
		Gamma:        st.estimator.Gamma(),
		Observations: st.estimator.Observations(),
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	id, ok := DeviceParam(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.devices[id]
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownDevice, fmt.Errorf("unknown device %q", id))
		return
	}
	if !st.hasVerdict {
		writeError(w, http.StatusNotFound, CodeNotScheduled, fmt.Errorf("device %q has not been scheduled yet", id))
		return
	}
	WriteJSON(w, http.StatusOK, ExplainResponse{
		DeviceID:      id,
		Slot:          st.slot,
		Selected:      st.verdict.Selected,
		Eligible:      st.verdict.Eligible,
		Reason:        string(st.verdict.Reason),
		Detail:        st.verdict.Reason.Detail(),
		AnxietyBefore: st.verdict.AnxietyBefore,
		AnxietyAfter:  st.verdict.AnxietyAfter,
		Gamma:         st.verdict.Gamma,
		SavingFrac:    st.verdict.SavingFrac,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := StatusResponse{
		Slot:           s.slot,
		Devices:        len(s.devices),
		PendingReports: len(s.pending),
		LastSelected:   s.lastTick.Selected,
		Lambda:         s.cfg.Lambda,
		StreamChunks:   len(s.cfg.Stream.Chunks),
		Workers:        s.pool.Workers(),
		StartUnixSec:   float64(s.started.UnixNano()) / 1e9,
		UptimeMS:       time.Since(s.started).Milliseconds(),
		TraceSample:    s.cfg.TraceSample,
	}
	if s.audit != nil {
		resp.AuditPath = s.audit.Path()
	}
	if s.edgeSrv != nil {
		resp.ComputeCapacity = s.edgeSrv.ComputeCapacity
		resp.StorageMB = s.edgeSrv.StorageCapacityMB
	}
	if s.tickSeen {
		last := s.lastTick
		resp.LastTick = &last
	}
	resp.SchedDeadlineSec = s.cfg.SchedDeadline.Seconds()
	if s.gate != nil {
		resp.MaxInflight = cap(s.gate.sem)
	}
	resp.DegradedTicks = s.degraded.Load()
	resp.ShedRequests = s.shed.Load()
	if path := s.SnapshotPath(); path != "" {
		resp.SnapshotPath = path
		resp.SnapshotIntervalSec = s.cfg.SnapshotInterval.Seconds()
	}
	resp.RestorePath = s.restorePath
	resp.RestoreDetail = s.restoreDetail
	resp.SnapshotWrites = s.snapWrites.Load()
	resp.SnapshotErrors = s.snapErrors.Load()
	resp.SnapshotLastUnixSec = s.snapLastUnix.Load()
	resp.SnapshotLastBytes = s.snapLastBytes.Load()
	if s.history != nil {
		resp.HistoryWindowSec = s.history.Window().Seconds()
		resp.HistoryIntervalSec = s.history.Interval().Seconds()
		resp.HistorySamples = s.history.Samples()
	}
	if s.flight != nil {
		resp.FlightDir = s.flight.Dir()
		resp.FlightBundles = s.flight.BundlesWritten()
		_, resp.FlightLastUnixSec = s.flight.LastBundle()
	}
	resp.IngestBytesJSON = s.ingestBytesJSON.Load()
	resp.IngestBytesBinary = s.ingestBytesWire.Load()
	resp.IngestRecordsJSON = s.ingestRecordsJSON.Load()
	resp.IngestRecordsBinary = s.ingestRecordsWire.Load()
	resp.IngestPoolGets = s.ingestPoolGets.Load()
	resp.IngestPoolMisses = s.ingestPoolMisses.Load()
	if gets := resp.IngestPoolGets; gets > 0 {
		resp.IngestPoolHitRate = 1 - float64(resp.IngestPoolMisses)/float64(gets)
	}
	resp.IngestMaxBatchRecords = s.maxBatch
	resp.ShardMode = s.cfg.ShardMode
	resp.ShardNodeID = s.cfg.NodeID
	if s.shardMap != nil {
		resp.ShardEpoch = s.shardMap.Epoch()
	}
	resp.ShardTicks = s.shardTicks.Load()
	resp.ShardVCsDecided = s.shardVCsDecided.Load()
	WriteJSON(w, http.StatusOK, resp)
}
