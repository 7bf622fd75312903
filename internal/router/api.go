// Package router implements the federation front door of a sharded
// LPVS deployment (DESIGN.md §17): one process that owns the shard
// map, fans the logical scheduling tick out to the shard daemons over
// the versioned /v1/shard/* API, and merges their per-channel
// decisions deterministically in VC-ID order. Devices keep speaking
// the exact same public v1 API they speak to a standalone daemon —
// the router forwards reports to the consistent-hash owner of the
// device's channel, answers decision reads and relays the other
// per-device calls, so a fleet can grow from one process to N without a
// client change.
//
// The sameness is structural (DESIGN.md §18): the router's HTTP surface
// is a route table behind the daemon's own route shell (server.Shell),
// and its /v1/report handler decodes through the daemon's reader and
// error classifier (server.DecodeReport over wire.ReadReport) and
// shapes batch answers with the daemon's server.NewBatchReportResponse.
// A per-device read or observation is relayed: the owning shard's 200
// body goes to the device byte for byte, never decoded on the way
// (forward.go). The exception is GET /v1/decision, which the router
// answers from its decision table when the table holds the answer of
// the shard the read would be relayed to: the verdict and γ that
// shard's last tick reply carried, written by the daemon's own appender
// (server.WriteAppended), kept current by the observations relayed since
// (tick.go, forward.go). TestRouterDecisionTableMatchesRelay holds the
// table to the relay's bytes. TestEnvelopeConformance holds router and
// daemon to equal status, Allow, Content-Type and body bytes on
// malformed, oversized and misrouted requests and on the 200 answers of
// the device routes.
//
// A report forward — decode, partition by owner, re-frame, POST, merge
// — works in one reused workspace (forwardSpace) drawn from the daemon's
// own free-list type (server.FreeList), so a warm router allocates
// nothing per forwarded record. The workspace goes back when the
// handler returns: after every POST has finished with its body and
// after the response, which reads the merged rows, is written.
// TestForwardFramesIdentical holds every frame a shard receives to the
// package encoders' bytes and every answer to a standalone daemon's.
//
// A tick works the same way: the shards' replies are read in the layout
// the shard appends them in into one reused tickSpace (tick.go), merged
// there, and the merged reply is appended by the daemon's writer
// (encode.go), so neither tick body goes through encoding/json's
// reflection on the way.
package router

import (
	"lpvs/internal/server"
	"lpvs/internal/shard"
)

// VCDecision is one channel VC's decision inside a merged router
// tick, tagged with the shard node that solved it. The merged VCs
// slice is sorted by (VC ID, node), so the response bytes are
// identical for any fan-out completion order — the federation's
// analogue of the scheduler pool's serial-vs-parallel differential.
type VCDecision struct {
	Node string `json:"node"`
	server.ShardVCDecision
}

// ShardTickSummary is one shard's outcome within a router tick. A
// failed shard keeps its row (OK=false with the error) so a merged
// tick never silently pretends a shard's channels were scheduled.
type ShardTickSummary struct {
	Node    string `json:"node"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
	Code    string `json:"code,omitempty"`
	Slot    int    `json:"slot"`
	Reports int    `json:"reports"`
	VCs     int    `json:"vcs"`
}

// TickResponse is the router's POST /v1/tick body: the per-shard
// outcomes, the merged per-channel decisions in VC-ID order, and the
// aggregate scheduling stats. Degraded is true when any shard
// degraded or failed; ShardErrors counts shards whose tick failed
// this round (their channels simply keep last slot's decisions).
type TickResponse struct {
	Slot        int                `json:"slot"`
	Epoch       string             `json:"epoch"`
	Reports     int                `json:"reports"`
	Eligible    int                `json:"eligible"`
	Selected    int                `json:"selected"`
	Swaps       int                `json:"swaps"`
	Degraded    bool               `json:"degraded"`
	ShardErrors int                `json:"shard_errors"`
	Shards      []ShardTickSummary `json:"shards"`
	VCs         []VCDecision       `json:"vcs"`
	Sched       server.TickStats   `json:"sched"`
}

// ShardStatus is one shard's row in the router's /v1/status. Status
// is the shard's own full status document when the probe succeeded.
type ShardStatus struct {
	Node   string                 `json:"node"`
	Addr   string                 `json:"addr"`
	OK     bool                   `json:"ok"`
	Error  string                 `json:"error,omitempty"`
	Status *server.StatusResponse `json:"status,omitempty"`
}

// StatusResponse is the router's GET /v1/status body. The flat
// fields describe THIS process only — the router's own slot counter,
// routing table, and lifetime forwarding counters — never shard
// state; per-shard truth lives exclusively in the Shards sub-objects
// so a dashboard cannot mistake a router for the fleet it fronts.
type StatusResponse struct {
	Mode         string  `json:"mode"` // always "router"
	Slot         int     `json:"slot"`
	Epoch        string  `json:"epoch"`
	Nodes        int     `json:"nodes"`
	KnownDevices int     `json:"known_devices"` // routing-table size
	StartUnixSec float64 `json:"start_unix_sec"`
	UptimeMS     int64   `json:"uptime_ms"`
	// Lifetime counters, this process only.
	Ticks            uint64        `json:"ticks"`
	TickShardErrors  uint64        `json:"tick_shard_errors"`
	ReportsForwarded uint64        `json:"reports_forwarded"`
	ForwardErrors    uint64        `json:"forward_errors"`
	ProxiedRequests  uint64        `json:"proxied_requests"` // relayed calls; table answers are not counted
	Reshards         uint64        `json:"reshards"`
	Shards           []ShardStatus `json:"shards"`
}

// ReshardResponse is the POST /v1/shard/map body: the installed
// map's identity plus what the reshard moved: the channels whose owner
// changed.
type ReshardResponse struct {
	Epoch    string       `json:"epoch"`
	Replicas int          `json:"replicas"`
	Nodes    []shard.Node `json:"nodes"`
	Moved    []string     `json:"moved,omitempty"`
}
