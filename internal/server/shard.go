package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"lpvs/internal/scheduler"
	"lpvs/internal/shard"
)

// This file is the shard personality of the edge daemon: the
// node-to-node /v1/shard/* surface behind a federated deployment
// (DESIGN.md §17). A shard schedules each channel as its own VC — the
// unit the consistent-hash map distributes — so a router can fan one
// logical tick out to shard owners and merge the per-channel decisions
// in VC-ID order. All endpoints speak the uniform v1 error envelope;
// the route table (Server.Handler) refuses them outside shard mode.

// shardDisabled is the uniform refusal every /v1/shard/* route answers
// outside shard mode (see Server.Handler).
func shardDisabled(w http.ResponseWriter, _ *http.Request) {
	writeErrorMsg(w, http.StatusNotFound, CodeNotFound, "shard API disabled (run lpvsd with -mode=shard)")
}

// shortEpoch abbreviates an epoch hash for error prose.
func shortEpoch(e string) string {
	if len(e) > 12 {
		return e[:12]
	}
	return e
}

// verifyShardAddressLocked checks a request's node/epoch claims
// against this process. Caller holds s.mu.
func (s *Server) verifyShardAddressLocked(node, epoch string) *apiError {
	if node != "" && s.cfg.NodeID != "" && node != s.cfg.NodeID {
		return &apiError{Status: http.StatusConflict, Code: CodeWrongShard,
			Message: fmt.Sprintf("request addressed to node %q; this process is %q", node, s.cfg.NodeID)}
	}
	if epoch != "" && s.shardMap != nil && epoch != s.shardMap.Epoch() {
		return &apiError{Status: http.StatusConflict, Code: CodeEpochMismatch,
			Message: fmt.Sprintf("caller shard-map epoch %s differs from installed %s; exchange maps via /v1/shard/map",
				shortEpoch(epoch), shortEpoch(s.shardMap.Epoch()))}
	}
	return nil
}

// handleShardTick runs one federated scheduling tick: the shared
// pipeline over one VC per channel (tick.go). The response carries each
// VC's decision with its canonical bytes, in VC-ID order — the router's
// merge input.
func (s *Server) handleShardTick(w http.ResponseWriter, r *http.Request) {
	body, aerr := readBody(r)
	if aerr != nil {
		aerr.write(w)
		return
	}
	var req ShardTickRequest
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeErrorMsg(w, http.StatusBadRequest, CodeBadRequest, "decode: "+err.Error())
			return
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if aerr := s.verifyShardAddressLocked(req.Node, req.Epoch); aerr != nil {
		aerr.write(w)
		return
	}
	out, err := s.runTickLocked(r.Context(), perChannel)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	s.shardTicks.Add(1)
	s.shardVCsDecided.Add(uint64(len(out.decided)))

	st := out.stats
	resp := ShardTickResponse{
		Node:     s.cfg.NodeID,
		Slot:     st.Slot,
		Reports:  st.Reports,
		Eligible: st.Eligible,
		Selected: st.Selected,
		Swaps:    st.Swaps,
		Degraded: st.Degraded,
		VCs:      make([]ShardVCDecision, len(out.decided)),
		Devices:  make([]ShardVCDevices, len(out.decided)),
		Sched:    st,
	}
	if s.shardMap != nil {
		resp.Epoch = s.shardMap.Epoch()
	}
	for i := range out.decided {
		vc := &out.decided[i]
		dec := &vc.Decision
		resp.VCs[i] = ShardVCDecision{
			VC:        vc.VC,
			Reports:   len(out.vcs[i].Requests),
			Eligible:  dec.Eligible,
			Selected:  dec.Selected,
			Swaps:     dec.Swaps,
			Degraded:  dec.Degraded.Any(),
			WallSec:   vc.WallSeconds,
			Canonical: dec.Canonical(),
		}
		resp.Devices[i] = s.vcDevicesLocked(out.vcs[i].Requests, dec)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// vcDevicesLocked reads each device of a decided VC's batch in the line
// order of dec.Canonical: its γ and observation count as a decision read
// would answer them now. Caller holds s.mu; every scheduled device is
// known.
func (s *Server) vcDevicesLocked(batch []scheduler.Request, dec *scheduler.Decision) ShardVCDevices {
	d := ShardVCDevices{Gamma: make([]float64, len(batch)), Observations: make([]int, len(batch))}
	order := dec.IDOrder()
	for k := range batch {
		i := k
		if order != nil {
			i = order[k]
		}
		est := s.devices[batch[i].DeviceID].estimator
		d.Gamma[k], d.Observations[k] = est.Gamma(), est.Observations()
	}
	return d
}

// handleShardMapGet reports the installed shard map and its epoch.
func (s *Server) handleShardMapGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	m := s.shardMap
	s.mu.Unlock()
	if m == nil {
		writeErrorMsg(w, http.StatusNotFound, CodeNotFound, "no shard map installed")
		return
	}
	WriteJSON(w, http.StatusOK, ShardMapResponse{
		Epoch: m.Epoch(), Replicas: m.Replicas(), Nodes: m.Nodes(),
	})
}

// handleShardMapPost installs a shard map (epoch exchange): the router
// pushes its map here so subsequent ticks carrying that epoch pass the
// mismatch check. A map that does not include this node is accepted —
// that is exactly what a drain-out looks like.
func (s *Server) handleShardMapPost(w http.ResponseWriter, r *http.Request) {
	var sp shard.Spec
	if !DecodeJSON(w, r, &sp) {
		return
	}
	m, err := shard.FromSpec(sp)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	s.mu.Lock()
	s.shardMap = m
	s.mu.Unlock()
	s.log.Info("shard map installed", "epoch", shortEpoch(m.Epoch()), "nodes", len(m.Nodes()))
	WriteJSON(w, http.StatusOK, ShardMapResponse{
		Epoch: m.Epoch(), Replicas: m.Replicas(), Nodes: m.Nodes(),
	})
}

// InstallShardMap installs a federation map programmatically (tests,
// embedders); POST /v1/shard/map is the wire path.
func (s *Server) InstallShardMap(m *shard.Map) {
	s.mu.Lock()
	s.shardMap = m
	s.mu.Unlock()
}

// ShardMap returns the installed federation map (nil outside shard
// deployments).
func (s *Server) ShardMap() *shard.Map {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardMap
}
