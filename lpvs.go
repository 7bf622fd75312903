package lpvs

import (
	"io"
	"time"

	"net/http"

	"lpvs/internal/anxiety"
	"lpvs/internal/behavior"
	"lpvs/internal/client"
	"lpvs/internal/device"
	"lpvs/internal/edge"
	"lpvs/internal/emu"
	"lpvs/internal/fleet"
	"lpvs/internal/router"
	"lpvs/internal/scheduler"
	"lpvs/internal/server"
	"lpvs/internal/shard"
	"lpvs/internal/stats"
	"lpvs/internal/survey"
	"lpvs/internal/trace"
	"lpvs/internal/video"
)

// UnboundedCapacity, used as EmulationConfig.ServerStreams, removes the
// edge capacity constraint ("sufficient edge resource" in the paper).
const UnboundedCapacity = -1

// DefaultSlotSeconds is the paper's 5-minute scheduling period.
const DefaultSlotSeconds = scheduler.DefaultSlotSeconds

// Core scheduling API.
type (
	// SchedulerConfig parameterises the LPVS scheduler.
	SchedulerConfig = scheduler.Config
	// Scheduler is the two-phase LPVS scheduler.
	Scheduler = scheduler.Scheduler
	// Request is one device's slot request.
	Request = scheduler.Request
	// Decision is the per-slot outcome.
	Decision = scheduler.Decision
	// Policy is any per-slot selection policy (LPVS or a baseline).
	Policy = scheduler.Policy
	// SchedulerPool is the sharded multi-VC scheduling engine.
	SchedulerPool = scheduler.Pool
	// PoolConfig parameterises the sharded engine's fan-out.
	PoolConfig = scheduler.PoolConfig
	// VirtualCluster is one cluster's slot input for a pool tick.
	VirtualCluster = scheduler.VC
	// PoolResult is the merged outcome of one pool tick.
	PoolResult = scheduler.PoolResult
)

// NewScheduler builds the LPVS scheduler: a configuration and the
// algorithm. Every Schedule call is a cold solve, so it is the one to
// use for a single decision, a replay or a reference — not for a slot
// loop, which pays the full cost every slot.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) { return scheduler.New(cfg) }

// NewSchedulerPool builds the sharded engine fanning virtual clusters
// across a bounded worker set; decisions are bit-identical to a serial
// per-VC loop at any width. It is the one to use per slot: every VC is
// solved cold, but into working memory the pool keeps per worker, so a
// slot loop reuses what the previous slot grew instead of allocating
// per device.
func NewSchedulerPool(cfg SchedulerConfig, pc PoolConfig) (*SchedulerPool, error) {
	return scheduler.NewPool(cfg, pc)
}

// Emulation API.
type (
	// EmulationConfig parameterises a virtual-cluster emulation. Chunks
	// last 10 s, every transform is granted the daemon's 0.7 distortion
	// tolerance, and the fleet comes from DefaultDeviceConfig;
	// GiveUpSampler (see SurveyGiveUpSampler) is the one device setting
	// an emulation chooses.
	EmulationConfig = emu.Config
	// RunResult aggregates one emulation run.
	RunResult = emu.RunResult
	// SlotStat is one emulated slot's aggregate snapshot.
	SlotStat = emu.SlotStat
	// Comparison pairs a treated run with its no-transform baseline.
	Comparison = emu.Comparison
)

// RunComparison runs LPVS and the no-transform baseline on the identical
// workload and returns the paired metrics.
func RunComparison(cfg EmulationConfig) (*Comparison, error) {
	return emu.Compare(cfg, nil)
}

// RunPolicyComparison is RunComparison for an explicit policy.
func RunPolicyComparison(cfg EmulationConfig, policy Policy) (*Comparison, error) {
	return emu.Compare(cfg, policy)
}

// Anxiety modelling API.
type (
	// AnxietyModel maps a battery fraction to an anxiety degree.
	AnxietyModel = anxiety.Model
	// AnxietyCurve is the empirical curve extracted from survey answers.
	AnxietyCurve = anxiety.Curve
	// SurveyConfig parameterises the synthetic LBA survey.
	SurveyConfig = survey.Config
	// SurveyDataset is a cleansed respondent population.
	SurveyDataset = survey.Dataset
)

// DefaultSurveyConfig reproduces the published survey population
// (N = 2,032).
func DefaultSurveyConfig() SurveyConfig { return survey.DefaultConfig() }

// GenerateSurvey synthesises a calibrated respondent population.
func GenerateSurvey(cfg SurveyConfig) *SurveyDataset { return survey.Generate(cfg) }

// ReadSurvey loads a respondent CSV (as written by Dataset.WriteCSV),
// applying the paper's data cleansing; real survey data can replace the
// synthetic population this way.
func ReadSurvey(r io.Reader) (*SurveyDataset, error) { return survey.ReadCSV(r) }

// ExtractAnxietyCurve runs the paper's four-step extraction over
// charge-threshold answers (battery levels in [1, 100]).
func ExtractAnxietyCurve(answers []int) (*AnxietyCurve, error) { return anxiety.Extract(answers) }

// CanonicalAnxiety returns the closed-form Fig. 2 calibration.
func CanonicalAnxiety() AnxietyModel { return anxiety.NewCanonical() }

// PersonalizeAnxiety rescales a population anxiety model to one user's
// worry threshold (the battery fraction where their anxiety spikes).
func PersonalizeAnxiety(base AnxietyModel, warning float64) (AnxietyModel, error) {
	return anxiety.NewRescaled(base, warning)
}

// FitAnxietyModel converts any anxiety model (e.g. an extracted survey
// curve) into the closed-form canonical parameterisation.
func FitAnxietyModel(m AnxietyModel) (AnxietyModel, error) { return anxiety.FitCanonical(m) }

// Baseline policies.

// NewRandomPolicy admits a random capacity-feasible subset.
func NewRandomPolicy(cfg SchedulerConfig, seed int64) (Policy, error) {
	return scheduler.NewRandomPolicy(cfg, seed)
}

// NewGreedyBatteryPolicy admits lowest-battery devices first.
func NewGreedyBatteryPolicy(cfg SchedulerConfig) (Policy, error) {
	return scheduler.NewGreedyBatteryPolicy(cfg)
}

// NewJointKnapsackPolicy solves the compacted joint problem in one
// knapsack (this reproduction's extension of the two-phase heuristic).
func NewJointKnapsackPolicy(cfg SchedulerConfig) (Policy, error) {
	return scheduler.NewJointKnapsackPolicy(cfg)
}

// NoTransformPolicy returns the conventional-streaming baseline.
func NoTransformPolicy() Policy { return scheduler.NoTransform{} }

// Workload API.
type (
	// TraceConfig parameterises the Twitch-like trace generator.
	TraceConfig = trace.GenConfig
	// Trace is a live-streaming workload dataset.
	Trace = trace.Trace
	// DeviceConfig parameterises random device fleets.
	DeviceConfig = device.GenConfig
	// Device is one emulated mobile device.
	Device = device.Device
	// EdgeServer models the transform capacity of one edge site.
	EdgeServer = edge.Server
)

// DefaultTraceConfig reproduces the paper's filtered dataset population
// (1,566 channels, 4,761 sessions).
func DefaultTraceConfig() TraceConfig { return trace.DefaultGenConfig() }

// GenerateTrace synthesises a workload trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// ReadTrace loads and validates a JSON trace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.ReadJSON(r) }

// NewEdgeServer sizes an edge server in concurrently transformable 720p
// streams (the paper's default is 100).
func NewEdgeServer(streams int) (*EdgeServer, error) { return edge.NewServer(streams) }

// SurveyGiveUpSampler adapts survey give-up answers into the device
// generator's sampler, wiring the measured abandonment behaviour into
// emulated viewers.
func SurveyGiveUpSampler(ds *SurveyDataset) func(*stats.RNG) float64 {
	return emu.SurveyGiveUpSampler(ds)
}

// Genres for emulated streams.
const (
	GenreGaming  = video.Gaming
	GenreEsports = video.Esports
	GenreIRL     = video.IRL
	GenreMusic   = video.Music
	GenreSports  = video.Sports
)

// Video substrate API.
type (
	// Video is a chunked stream.
	Video = video.Video
	// VideoGenre labels the kind of live content.
	VideoGenre = video.Genre
	// VideoGenConfig parameterises synthetic stream generation.
	VideoGenConfig = video.GenConfig
	// RNG is the deterministic random stream used across the library.
	RNG = stats.RNG
)

// NewRNG returns a deterministic random stream.
func NewRNG(seed int64) *RNG { return stats.NewRNG(seed) }

// DefaultVideoConfig returns a plausible live-stream generation config.
func DefaultVideoConfig(id string, g video.Genre, chunks int) VideoGenConfig {
	return video.DefaultGenConfig(id, g, chunks)
}

// GenerateVideo synthesises a stream with per-genre content statistics.
func GenerateVideo(rng *RNG, cfg VideoGenConfig) (*Video, error) { return video.Generate(rng, cfg) }

// Edge service API.
type (
	// EdgeDaemonConfig parameterises the HTTP edge daemon.
	EdgeDaemonConfig = server.Config
	// EdgeDaemon is the LPVS HTTP service.
	EdgeDaemon = server.Server
	// DeviceClient is the device side of the edge protocol.
	DeviceClient = client.Client
	// ClientOption customises a DeviceClient's transport (HTTP client,
	// retries, breaker, retry budget).
	ClientOption = client.Option
	// ClientFleet batches the per-slot report step of many co-located
	// device clients into one round-trip.
	ClientFleet = client.Fleet
	// Caller is the shared resilient HTTP transport (retries, breaker,
	// retry budget, v1 error envelopes) that both DeviceClient and the
	// router's shard-forwarding client are built on.
	Caller = client.Caller
	// APIError is a non-2xx v1 response decoded from the uniform
	// {code,message,retryable} envelope.
	APIError = client.APIError
)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(h *http.Client) ClientOption { return client.WithHTTPClient(h) }

// WithRetries bounds retry attempts and sets the initial backoff for
// retryable failures (per the envelope's retryable flag).
func WithRetries(n int, initial time.Duration) ClientOption { return client.WithRetries(n, initial) }

// WithCircuitBreaker opens the client's breaker after threshold
// consecutive failures, fast-failing calls for the cooldown.
func WithCircuitBreaker(threshold int, cooldown time.Duration) ClientOption {
	return client.WithCircuitBreaker(threshold, cooldown)
}

// WithRetryBudget caps the client-wide ratio of retries to requests,
// preventing retry storms against a struggling daemon.
func WithRetryBudget(max, ratio float64) ClientOption { return client.WithRetryBudget(max, ratio) }

// NewCaller builds the bare resilient transport for custom v1 API
// consumers (dashboards, ops tooling) without a device attached.
func NewCaller(baseURL string, opts ...ClientOption) (*Caller, error) {
	return client.NewCaller(baseURL, opts...)
}

// NewEdgeDaemon builds the HTTP edge daemon.
func NewEdgeDaemon(cfg EdgeDaemonConfig) (*EdgeDaemon, error) { return server.New(cfg) }

// NewDeviceClient connects a device to an edge daemon. Pass nil for the
// default HTTP client. Reports go out as batches in the compact binary
// wire format (DESIGN.md §16).
func NewDeviceClient(baseURL string, dev *Device, httpClient *http.Client, opts ...ClientOption) (*DeviceClient, error) {
	return client.New(baseURL, dev, httpClient, opts...)
}

// NewClientFleet groups device clients of one edge daemon for batched
// reporting (one POST /v1/report per slot for the whole group).
func NewClientFleet(clients ...*DeviceClient) (*ClientFleet, error) {
	return client.NewFleet(clients...)
}

type (
	// ShardNode is one member of a federation: a stable node ID (which
	// feeds the hash ring) and the address peers dial.
	ShardNode = shard.Node
	// ShardSpec is the portable shard-map form (JSON file / wire).
	ShardSpec = shard.Spec
	// ShardMap is a consistent-hash map of VC state keys to nodes; its
	// Epoch fingerprints membership for the /v1/shard/* exchange.
	ShardMap = shard.Map
	// RouterConfig parameterises the federation router.
	RouterConfig = router.Config
	// Router is the federation front door: it owns a ShardMap, fans
	// POST /v1/tick out to shard owners, merges decisions in VC-ID
	// order, and forwards device traffic to each channel's owner.
	Router = router.Router
)

// NewShardMap builds a consistent-hash map over the node set;
// replicas <= 0 uses the default virtual-point count.
func NewShardMap(nodes []ShardNode, replicas int) (*ShardMap, error) {
	return shard.New(nodes, replicas)
}

// ParseShardMapFile loads a ShardSpec JSON file (see `lpvsd -shard-map`
// and `lpvsctl shard plan`) and builds the map.
func ParseShardMapFile(path string) (*ShardMap, error) { return shard.ParseFile(path) }

// NewRouter builds the federation router over an installed shard map.
// Serve its Handler; DESIGN.md §17 describes the merge and reshard
// contracts, and `lpvsd -mode=router` is the packaged form.
func NewRouter(cfg RouterConfig) (*Router, error) { return router.New(cfg) }

// NewDeviceFleet generates n random devices, mirroring the paper's
// random assignment of display specs and Gaussian energy states.
func NewDeviceFleet(rng *RNG, n int, cfg DeviceConfig) ([]*Device, error) {
	return device.NewFleet(rng, n, cfg)
}

// DefaultDeviceConfig mirrors the paper's emulation setup.
func DefaultDeviceConfig() DeviceConfig { return device.DefaultGenConfig() }

// Trace-driven fleet API.
type (
	// FleetConfig parameterises a trace-driven multi-cluster run.
	FleetConfig = fleet.Config
	// FleetResult aggregates a trace-driven run.
	FleetResult = fleet.Result
)

// RunFleet emulates every (sufficiently popular) channel of a trace as
// an independent virtual cluster, concurrently, and aggregates the
// paper's metrics.
func RunFleet(cfg FleetConfig) (*FleetResult, error) { return fleet.Run(cfg) }

// Behavioural LBA API (the paper's section III-C future work).
type (
	// ChargeEvent is one observed plug-in event.
	ChargeEvent = behavior.ChargeEvent
	// ChargingLog is a charging-behaviour dataset.
	ChargingLog = behavior.Log
	// ChargingLogConfig parameterises the synthetic log generator.
	ChargingLogConfig = behavior.LogConfig
	// BehaviorEstimateConfig tunes the behavioural threshold estimator.
	BehaviorEstimateConfig = behavior.EstimateConfig
)

// DefaultChargingLogConfig mirrors the survey population with a month of
// charging behaviour per user.
func DefaultChargingLogConfig() ChargingLogConfig { return behavior.DefaultLogConfig() }

// GenerateChargingLog synthesises a charging-behaviour dataset.
func GenerateChargingLog(cfg ChargingLogConfig) (*ChargingLog, error) {
	return behavior.Generate(cfg)
}

// EstimateAnxietyFromBehavior recovers the LBA curve from charging
// behaviour instead of survey answers.
func EstimateAnxietyFromBehavior(log *ChargingLog, cfg BehaviorEstimateConfig) (*AnxietyCurve, []int, error) {
	return behavior.Estimate(log, cfg)
}
