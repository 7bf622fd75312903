package router

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"sync"

	"lpvs/internal/client"
	"lpvs/internal/server"
	"lpvs/internal/wire"
)

// This file is the router's device-facing data plane. A report message
// of either codec and arity is partitioned by the consistent-hash owner
// of each record's channel and forwarded concurrently, re-framed per
// owner the way it arrived; per-device reads are proxied to the owner
// learned from the device's last report, falling back to probing the
// shards in node-ID order. Responses — including error envelopes —
// pass through verbatim, so a device cannot tell a router from a
// standalone daemon.

// shardBatch is one owner's share of a report message: the records
// routed to it, each record's index in the original message — so
// per-record errors merge back under their caller-visible index — and
// the owner's answer.
type shardBatch struct {
	node string
	c    *client.Caller
	reqs []server.ReportRequest
	idx  []int

	single server.ReportResponse      // the answer to a single report
	batch  server.BatchReportResponse // the answer to a batch
	err    error
}

// partition splits reports by the consistent-hash owner of each
// record's channel, in node-ID order, noting every device's channel as
// the read proxy's routing hint. It also returns the router's slot.
func (rt *Router) partition(reports []server.ReportRequest) ([]*shardBatch, int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	byNode := map[string]*shardBatch{}
	var batches []*shardBatch
	for i := range reports {
		ch := reports[i].ChannelID
		if ch == "" {
			ch = rt.cfg.DefaultChannel
		}
		n := rt.m.Owner(ch)
		sb := byNode[n.ID]
		if sb == nil {
			sb = &shardBatch{node: n.ID, c: rt.callers[n.ID]}
			byNode[n.ID] = sb
			batches = append(batches, sb)
		}
		sb.reqs = append(sb.reqs, reports[i])
		sb.idx = append(sb.idx, i)
		rt.devices[reports[i].DeviceID] = ch
	}
	sort.Slice(batches, func(a, b int) bool { return batches[a].node < batches[b].node })
	return batches, rt.slot
}

// handleReport forwards a report message of either codec and arity:
// decode (the daemon's reader, cap and error envelopes), partition by
// owner, forward each share concurrently re-framed in the caller's
// codec and arity, then answer what a standalone daemon would have. A
// single report has one owner, whose answer — error envelope included —
// is relayed. A batch merges the owners' per-record outcomes under the
// original indices; records whose shard failed are reported rejected
// with shard_unavailable, so the batch contract stays "every record
// accounted for" even when part of the fleet is down.
func (rt *Router) handleReport(w http.ResponseWriter, r *http.Request) {
	msg, ok := server.DecodeReport(w, r, server.DefaultMaxBatchRecords, wire.NewScratch)
	if !ok {
		return
	}
	batches, slot := rt.partition(msg.Reports)
	var wg sync.WaitGroup
	for _, sb := range batches {
		wg.Add(1)
		go func(sb *shardBatch) {
			defer wg.Done()
			rt.forwards.Add(uint64(len(sb.reqs)))
			if sb.c == nil {
				sb.err = errors.New("no forwarding client for node " + sb.node)
				return
			}
			var out any = &sb.single
			if msg.Batch {
				out = &sb.batch
			}
			body, contentType, err := msg.Encode(sb.reqs)
			if err == nil {
				err = sb.c.PostRaw("/v1/report", contentType, body, out)
			}
			sb.err = err
		}(sb)
	}
	wg.Wait()

	if !msg.Batch {
		if sb := batches[0]; sb.err != nil {
			rt.forwardErrors.Add(1)
			writeUpstream(w, sb.err)
		} else {
			server.WriteJSON(w, http.StatusOK, sb.single)
		}
		return
	}
	var rejected []server.BatchReportResult
	for _, sb := range batches {
		if sb.err != nil {
			rt.forwardErrors.Add(uint64(len(sb.reqs)))
			for j := range sb.reqs {
				rejected = append(rejected, server.BatchReportResult{
					Index:    sb.idx[j],
					DeviceID: sb.reqs[j].DeviceID,
					Error:    &server.ErrorBody{Code: server.CodeShardUnavailable, Message: sb.err.Error(), Retryable: true},
				})
			}
			continue
		}
		// A shard answers a JSON batch with one positional row per record
		// and a binary one with its rejections only, addressed by Index.
		for j, row := range sb.batch.Results {
			if row.Error == nil {
				continue
			}
			if msg.Binary {
				j = row.Index
			}
			row.Index = sb.idx[j]
			rejected = append(rejected, row)
		}
	}
	sort.Slice(rejected, func(a, b int) bool { return rejected[a].Index < rejected[b].Index })
	server.WriteJSON(w, http.StatusOK, server.NewBatchReportResponse(slot, &msg, rejected))
}

// candidates builds the probe order for a per-device read: the owner
// of the device's last-reported channel first, then every node in ID
// order. Deterministic, so repeated lookups behave identically on
// every router replica.
func (rt *Router) candidates(deviceID string) []*client.Caller {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []*client.Caller
	seen := map[string]bool{}
	if ch, ok := rt.devices[deviceID]; ok {
		n := rt.m.Owner(ch)
		if c := rt.callers[n.ID]; c != nil {
			out = append(out, c)
			seen[n.ID] = true
		}
	}
	for _, n := range rt.m.Nodes() {
		if !seen[n.ID] {
			if c := rt.callers[n.ID]; c != nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// proxyDeviceGet forwards a per-device GET (decision, chunk,
// playlist, explain) to the device's shard, probing in candidate
// order when the routing table has no hint. Probing continues only on
// unknown_device — any other failure is the device's real answer.
func (rt *Router) proxyDeviceGet(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("device")
	if id == "" {
		server.WriteEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest, "missing device parameter")
		return
	}
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	rt.proxies.Add(1)
	rt.forEachCandidate(w, id, func(c *client.Caller, out *json.RawMessage) error {
		return c.GetJSON(path, out)
	})
}

// handleObserve forwards a reduction observation to the device's
// shard with the same probe strategy as the read proxy.
func (rt *Router) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req server.ObserveRequest
	if !server.DecodeJSON(w, r, &req) {
		return
	}
	rt.proxies.Add(1)
	rt.forEachCandidate(w, req.DeviceID, func(c *client.Caller, out *json.RawMessage) error {
		return c.PostJSON("/v1/observe", req, out)
	})
}

// forEachCandidate runs one proxied call against the device's
// candidate shards until one answers with anything other than
// unknown_device, then relays that answer verbatim.
func (rt *Router) forEachCandidate(w http.ResponseWriter, deviceID string, call func(*client.Caller, *json.RawMessage) error) {
	var lastErr error
	for _, c := range rt.candidates(deviceID) {
		var raw json.RawMessage
		err := call(c, &raw)
		if err == nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(raw)
			return
		}
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Code == server.CodeUnknownDevice {
			lastErr = err
			continue
		}
		writeUpstream(w, err)
		return
	}
	if lastErr != nil {
		writeUpstream(w, lastErr)
		return
	}
	server.WriteEnvelopeError(w, http.StatusNotFound, server.CodeUnknownDevice,
		"unknown device "+deviceID)
}
