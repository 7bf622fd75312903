package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"lpvs/internal/appendjson"
	"lpvs/internal/bayes"
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
// merge input — and is appended from the tick outcome into
// s.shardReply (DESIGN.md §18) and written under s.mu, which the
// outcome and that storage need.
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
	s.metrics.shardTicks.Inc()
	s.metrics.shardVCsDecided.Add(float64(len(out.decided)))

	reply, ok := s.appendShardTickLocked(s.shardReply[:0], &out)
	s.shardReply = reply
	if !ok {
		// A NaN or an infinity: the header alone, as WriteAppended.
		WriteBody(w, http.StatusOK, nil)
		return
	}
	WriteBody(w, http.StatusOK, reply)
}

// appendShardTickLocked is the one writer of a shard's tick reply: it
// appends the ShardTickResponse of a tick outcome straight from the
// outcome, in encoding/json's bytes for that type. Each VC's canonical text is appended
// into s.canonScratch and base64-encoded from there; each device's γ
// and observation count are read from its estimator in the line order
// of that text. ok is false when a float has no JSON form. Caller holds
// s.mu; every scheduled device is known.
func (s *Server) appendShardTickLocked(dst []byte, out *tickOutcome) ([]byte, bool) {
	ok := true
	st := &out.stats
	head := ShardTickResponse{Node: s.cfg.NodeID, Slot: st.Slot, Reports: st.Reports,
		Eligible: st.Eligible, Selected: st.Selected, Swaps: st.Swaps, Degraded: st.Degraded}
	if s.shardMap != nil {
		head.Epoch = s.shardMap.Epoch()
	}
	dst = append(head.appendHead(dst), `,"vcs":[`...)
	for i := range out.decided {
		if i > 0 {
			dst = append(dst, ',')
		}
		vc := &out.decided[i]
		dec := &vc.Decision
		s.canonScratch = dec.AppendCanonical(s.canonScratch[:0])
		v := ShardVCDecision{VC: vc.VC, Reports: len(out.vcs[i].Requests), Eligible: dec.Eligible,
			Selected: dec.Selected, Swaps: dec.Swaps, Degraded: dec.Degraded.Any(),
			WallSec: vc.WallSeconds, Canonical: s.canonScratch}
		dst = append(v.AppendMembers(append(dst, '{'), &ok), '}')
	}
	dst = append(dst, `],"devices":[`...)
	for i := range out.decided {
		if i > 0 {
			dst = append(dst, ',')
		}
		batch := out.vcs[i].Requests
		order := out.decided[i].Decision.IDOrder()
		dst = append(dst, `{"gamma":[`...)
		for k := range batch {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = appendjson.Float(dst, s.lineEstimatorLocked(batch, order, k).Gamma(), &ok)
		}
		dst = append(dst, `],"observations":[`...)
		for k := range batch {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(s.lineEstimatorLocked(batch, order, k).Observations()), 10)
		}
		dst = append(dst, "]}"...)
	}
	dst = st.AppendObject(append(dst, `],"sched":`...), &ok)
	return append(dst, "}\n"...), ok
}

// lineEstimatorLocked is the estimator of the device on the k-th line
// of a decision's canonical text over batch, whose IDOrder is order.
// Caller holds s.mu.
func (s *Server) lineEstimatorLocked(batch []scheduler.Request, order []int, k int) *bayes.GammaEstimator {
	if order != nil {
		k = order[k]
	}
	return s.devices[batch[k].DeviceID].estimator
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
