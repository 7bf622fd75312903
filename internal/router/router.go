package router

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lpvs/internal/bufpool"
	"lpvs/internal/client"
	"lpvs/internal/obs"
	"lpvs/internal/obs/slo"
	"lpvs/internal/server"
	"lpvs/internal/shard"
)

// Config configures a router process.
type Config struct {
	// Map is the initial shard map (required). Every node in it gets a
	// resilient forwarding client (shared retry/breaker/budget stack
	// with the public edge client).
	Map *shard.Map
	// DefaultChannel is the channel assumed for reports that carry no
	// ChannelID — it must match the shards' default stream ID, or the
	// router and the shards would disagree on which VC such devices
	// belong to.
	DefaultChannel string
	// ClientOptions tune the per-shard forwarding transport (retries,
	// breaker, retry budget, HTTP client) — the same option set the
	// public edge client accepts.
	ClientOptions []client.Option
	// MaxBodyBytes caps POST bodies (0 = server.DefaultMaxBodyBytes,
	// negative = unbounded), mirroring the edge daemon's guardrail.
	MaxBodyBytes int64
	// Logger receives operational logs; nil discards them.
	Logger *slog.Logger
}

// Router is the federation front door: it owns the shard map, fans
// ticks out, forwards reports to channel owners, answers decision reads
// and relays the other per-device calls. One Router instance is one
// process personality. It schedules nothing: besides routing state it
// holds only the decision table, a copy of what its shards' tick
// replies said about each device (DESIGN.md §17).
type Router struct {
	cfg   Config
	log   *slog.Logger
	reg   *obs.Registry
	httpM *obs.HTTPMetrics
	slo   *slo.Engine
	start time.Time
	ready atomic.Bool

	// Lifetime counters (status + SLO sources; atomics so SLO
	// evaluation never touches mu).
	ticks           atomic.Uint64
	tickShardCalls  atomic.Uint64
	tickShardErrors atomic.Uint64
	forwards        atomic.Uint64
	forwardErrors   atomic.Uint64
	proxies         atomic.Uint64
	reshards        atomic.Uint64

	// Per-node labeled series.
	mShardTicks   *obs.CounterVec
	mShardErrors  *obs.CounterVec
	mShardTickDur *obs.HistogramVec

	// forwardFree recycles report-forward workspaces (see forwardSpace)
	// and tickFree tick storage (see tickSpace), each bounded as the
	// daemon's ingest list is (bufpool.RequestWorkspaces).
	forwardFree *bufpool.FreeList[forwardSpace]
	tickFree    *bufpool.FreeList[tickSpace]

	mu      sync.Mutex
	m       *shard.Map
	callers map[string]*client.Caller // node ID -> forwarding client
	devices map[string]string         // device ID -> channel (routing hints)
	slot    int

	// decisions is the decision table (tick.go fills it, forward.go
	// reads it): device ID -> what a shard last said about the device.
	// Values are pointers so that a tick updates a known device in place
	// and only a device seen for the first time allocates its key.
	decisions map[string]*decision
	// tickSlots is the slot of each node's last tick reply.
	tickSlots map[string]int
}

// New builds a router over cfg.Map. The per-node forwarding clients
// share the edge client's resilience stack; a node keeps its breaker
// and budget state across reshards as long as it stays a member.
func New(cfg Config) (*Router, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("router: nil shard map")
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = server.DefaultMaxBodyBytes
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	rt := &Router{
		cfg:       cfg,
		log:       log,
		reg:       obs.NewRegistry(),
		start:     time.Now(),
		m:         cfg.Map,
		callers:   map[string]*client.Caller{},
		devices:   map[string]string{},
		decisions: map[string]*decision{},
		tickSlots: map[string]int{},

		forwardFree: bufpool.NewFreeList[forwardSpace](bufpool.RequestWorkspaces),
		tickFree:    bufpool.NewFreeList[tickSpace](bufpool.RequestWorkspaces),
	}
	rt.ready.Store(true)
	for _, n := range cfg.Map.Nodes() {
		c, err := client.NewCaller(n.Addr, cfg.ClientOptions...)
		if err != nil {
			return nil, fmt.Errorf("router: node %s: %w", n.ID, err)
		}
		rt.callers[n.ID] = c
	}
	rt.httpM = obs.NewHTTPMetrics(rt.reg, log)
	rt.registerMetrics()
	eng, err := slo.NewEngine(slo.Config{Logger: log},
		slo.Objective{
			Name:        "shard-tick-errors",
			Description: "Per-shard tick fan-out calls must succeed.",
			Target:      0.99,
			Source: func() (float64, float64) {
				return float64(rt.tickShardErrors.Load()), float64(rt.tickShardCalls.Load())
			},
		},
		slo.Objective{
			Name:        "forward-errors",
			Description: "Report forwards to shard owners must succeed.",
			Target:      0.99,
			Source: func() (float64, float64) {
				return float64(rt.forwardErrors.Load()), float64(rt.forwards.Load())
			},
		},
	)
	if err != nil {
		return nil, err
	}
	rt.slo = eng
	eng.Register(rt.reg)
	return rt, nil
}

func (rt *Router) registerMetrics() {
	rt.reg.GaugeFunc("lpvs_shard_nodes",
		"Shard nodes in the installed map.", func() float64 {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return float64(len(rt.m.Nodes()))
		})
	rt.reg.CounterFunc("lpvs_router_ticks_total",
		"Federated ticks fanned out by this router.", func() float64 { return float64(rt.ticks.Load()) })
	rt.reg.CounterFunc("lpvs_router_reports_forwarded_total",
		"Device reports forwarded to shard owners.", func() float64 { return float64(rt.forwards.Load()) })
	rt.reg.CounterFunc("lpvs_router_forward_errors_total",
		"Report forwards that failed.", func() float64 { return float64(rt.forwardErrors.Load()) })
	rt.reg.CounterFunc("lpvs_router_proxied_total",
		"Per-device calls relayed to shards (decision reads answered from the router's table are not).",
		func() float64 { return float64(rt.proxies.Load()) })
	rt.reg.CounterFunc("lpvs_router_reshards_total",
		"Shard-map installs accepted.", func() float64 { return float64(rt.reshards.Load()) })
	rt.mShardTicks = rt.reg.CounterVec("lpvs_shard_ticks_total",
		"Shard tick calls, by node.", "node")
	rt.mShardErrors = rt.reg.CounterVec("lpvs_shard_tick_errors_total",
		"Failed shard tick calls, by node.", "node")
	rt.mShardTickDur = rt.reg.HistogramVec("lpvs_shard_tick_seconds",
		"Shard tick call wall time, by node.", obs.DefBuckets(), "node")
}

// SLO exposes the router's burn-rate engine (cmd/lpvsd runs its
// sampling loop; tests evaluate it directly).
func (rt *Router) SLO() *slo.Engine { return rt.slo }

// Registry exposes the router's metric registry so the owner can add
// process-level collectors (build info, runtime self-telemetry).
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// SetReady flips the readiness probe, mirroring the edge daemon's
// drain semantics.
func (rt *Router) SetReady(ready bool) { rt.ready.Store(ready) }

// Map returns the currently installed shard map.
func (rt *Router) Map() *shard.Map {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.m
}

// snapshot returns the map and a node-ordered caller slice to fan out
// against, without holding mu across network calls.
func (rt *Router) snapshot() (*shard.Map, []shard.Node, []*client.Caller) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	nodes := rt.m.Nodes()
	callers := make([]*client.Caller, len(nodes))
	for i, n := range nodes {
		callers[i] = rt.callers[n.ID]
	}
	return rt.m, nodes, callers
}

// Handler builds the router's HTTP surface — the public v1 device API
// (forwarded), the federation control plane, and the obs endpoints —
// behind the edge daemon's route shell, so middleware order, 405+Allow
// and the envelope 404/413/500 are the daemon's by construction.
func (rt *Router) Handler() http.Handler {
	sh := server.Shell{
		Metrics:      rt.httpM,
		Log:          rt.log,
		MaxBodyBytes: rt.cfg.MaxBodyBytes,
		Ready:        &rt.ready,
		Registry:     rt.reg,
		SLO:          rt.slo,
	}
	return sh.Handler(rt.routes())
}

// routes is the router's route table.
func (rt *Router) routes() []server.Route {
	return []server.Route{
		{Method: "POST", Path: "/v1/report", Handler: rt.handleReport},
		{Method: "POST", Path: "/v1/tick", Handler: rt.handleTick},
		{Method: "GET", Path: "/v1/decision", Handler: rt.handleDecision},
		{Method: "GET", Path: "/v1/chunk", Handler: rt.proxyDeviceGet},
		{Method: "GET", Path: "/v1/playlist", Handler: rt.proxyDeviceGet},
		{Method: "GET", Path: "/v1/explain", Handler: rt.proxyDeviceGet},
		{Method: "POST", Path: "/v1/observe", Handler: rt.handleObserve},
		{Method: "GET", Path: "/v1/status", Handler: rt.handleStatus},
		{Method: "GET", Path: "/v1/fleet", Handler: rt.handleFleet},
		{Method: "GET", Path: "/v1/shard/map", Handler: rt.handleMapGet},
		{Method: "POST", Path: "/v1/shard/map", Handler: rt.handleMapPost},
	}
}

// writeUpstream renders an upstream call failure: a shard's envelope
// error passes through verbatim (status, code, and prose), anything
// else — dial failure, open breaker, exhausted retries — becomes a
// 502 shard_unavailable.
func writeUpstream(w http.ResponseWriter, err error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		server.WriteEnvelopeError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	server.WriteEnvelopeError(w, http.StatusBadGateway, server.CodeShardUnavailable, err.Error())
}

// handleStatus reports this process's flat fields (router state only
// — never shard state) plus one sub-object per shard with the
// shard's own live status document. A shard that cannot be reached
// keeps its row with OK=false, so the fleet view never understates
// membership.
func (rt *Router) handleStatus(w http.ResponseWriter, _ *http.Request) {
	m, nodes, callers := rt.snapshot()
	shards := make([]ShardStatus, len(nodes))
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i] = ShardStatus{Node: nodes[i].ID, Addr: nodes[i].Addr}
			var st server.StatusResponse
			if err := callers[i].GetJSON("/v1/status", &st); err != nil {
				shards[i].Error = err.Error()
				return
			}
			shards[i].OK = true
			shards[i].Status = &st
		}(i)
	}
	wg.Wait()

	rt.mu.Lock()
	slot := rt.slot
	known := len(rt.devices)
	rt.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, StatusResponse{
		Mode:             "router",
		Slot:             slot,
		Epoch:            m.Epoch(),
		Nodes:            len(nodes),
		KnownDevices:     known,
		StartUnixSec:     float64(rt.start.UnixNano()) / 1e9,
		UptimeMS:         time.Since(rt.start).Milliseconds(),
		Ticks:            rt.ticks.Load(),
		TickShardErrors:  rt.tickShardErrors.Load(),
		ReportsForwarded: rt.forwards.Load(),
		ForwardErrors:    rt.forwardErrors.Load(),
		ProxiedRequests:  rt.proxies.Load(),
		Reshards:         rt.reshards.Load(),
		Shards:           shards,
	})
}

// handleFleet merges the shards' fleet rollups. Each channel is owned
// by exactly one shard, so the channel rows concatenate; stream rows
// get their owning node prefixed onto the state key so per-shard
// streams with the same key stay distinguishable.
func (rt *Router) handleFleet(w http.ResponseWriter, _ *http.Request) {
	_, nodes, callers := rt.snapshot()
	resps := make([]*server.FleetResponse, len(nodes))
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var fr server.FleetResponse
			if err := callers[i].GetJSON("/v1/fleet", &fr); err == nil {
				resps[i] = &fr
			}
		}(i)
	}
	wg.Wait()

	rt.mu.Lock()
	merged := server.FleetResponse{Slot: rt.slot}
	rt.mu.Unlock()
	for i, fr := range resps {
		if fr == nil {
			continue
		}
		if fr.VCLabelBudget > merged.VCLabelBudget {
			merged.VCLabelBudget = fr.VCLabelBudget
		}
		merged.SeriesDropped += fr.SeriesDropped
		merged.Channels = append(merged.Channels, fr.Channels...)
		for _, vs := range fr.Streams {
			vs.Key = nodes[i].ID + "/" + vs.Key
			merged.Streams = append(merged.Streams, vs)
		}
	}
	sort.Slice(merged.Channels, func(a, b int) bool {
		return merged.Channels[a].Channel < merged.Channels[b].Channel
	})
	server.WriteJSON(w, http.StatusOK, merged)
}

func (rt *Router) handleMapGet(w http.ResponseWriter, _ *http.Request) {
	m := rt.Map()
	server.WriteJSON(w, http.StatusOK, server.ShardMapResponse{
		Epoch:    m.Epoch(),
		Replicas: m.Replicas(),
		Nodes:    m.Nodes(),
	})
}

// handleMapPost installs a new shard map: it computes which channels
// change owner, installs the map, and pushes it to every member shard.
// The whole reshard runs under mu, so no tick fans out under a
// half-installed map. No device state moves: a moved channel's devices
// start again from the gamma prior on the new owner, and its first
// tick there is a cold solve of the reports it receives.
func (rt *Router) handleMapPost(w http.ResponseWriter, r *http.Request) {
	var spec shard.Spec
	if !server.DecodeJSON(w, r, &spec) {
		return
	}
	next, err := shard.FromSpec(spec)
	if err != nil {
		server.WriteEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest, err.Error())
		return
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()

	// Forwarding clients for new members; departing members' callers
	// are dropped (their breaker state goes with them), surviving
	// members keep theirs.
	nextCallers := map[string]*client.Caller{}
	for _, n := range next.Nodes() {
		if c, ok := rt.callers[n.ID]; ok && c.Base() == n.Addr {
			nextCallers[n.ID] = c
			continue
		}
		c, err := client.NewCaller(n.Addr, rt.cfg.ClientOptions...)
		if err != nil {
			server.WriteEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest,
				fmt.Sprintf("node %s: %v", n.ID, err))
			return
		}
		nextCallers[n.ID] = c
	}

	// What the decision table holds from a departing member, or from
	// the process a member's ID named at its old address, is no one's
	// answer any more.
	for id, c := range rt.callers {
		if nextCallers[id] != c {
			rt.forgetNodeLocked(id)
		}
	}
	moved := rt.movedChannelsLocked(next)
	rt.m = next
	rt.callers = nextCallers
	rt.reshards.Add(1)

	// Push the new map to every member so their epoch guards accept
	// the next tick without a mismatch round-trip. Push failures are
	// non-fatal: the tick path re-pushes on shard_epoch_mismatch.
	spec = next.Spec()
	for id, c := range nextCallers {
		if err := c.PostJSON("/v1/shard/map", spec, nil); err != nil {
			rt.log.Warn("shard map push failed", "node", id, "err", err)
		}
	}

	rt.log.Info("reshard installed", "epoch", next.Epoch(),
		"nodes", len(next.Nodes()), "moved", len(moved))
	server.WriteJSON(w, http.StatusOK, ReshardResponse{
		Epoch:    next.Epoch(),
		Replicas: next.Replicas(),
		Nodes:    next.Nodes(),
		Moved:    moved,
	})
}

// movedChannelsLocked lists the channels known to this router whose
// owner differs between the installed and the next map.
func (rt *Router) movedChannelsLocked(next *shard.Map) []string {
	seen := map[string]bool{}
	if rt.cfg.DefaultChannel != "" {
		seen[rt.cfg.DefaultChannel] = true
	}
	for _, ch := range rt.devices {
		seen[ch] = true
	}
	chans := make([]string, 0, len(seen))
	for ch := range seen {
		chans = append(chans, ch)
	}
	sort.Strings(chans)
	return shard.Moved(rt.m, next, chans)
}
