package router

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"

	"lpvs/internal/client"
	"lpvs/internal/server"
	"lpvs/internal/wire"
)

// This file is the router's device-facing data plane. A report message
// of either framing is partitioned by the consistent-hash owner of each
// record's channel and forwarded concurrently, re-framed per owner the
// way it arrived; per-device calls are relayed to the owner
// learned from the device's last report, falling back to probing the
// shards in node-ID order. Responses pass through verbatim — a 200
// body byte for byte, an error as the same envelope — so a device
// cannot tell a router from a standalone daemon. A decision read is
// answered from the decision table instead whenever the table holds
// what the relay would fetch.

// shardBatch is one owner's share of a report message: the records
// routed to it, each record's index in the original message — so
// per-record errors merge back under their caller-visible index — the
// re-framed body, and the owner's answer.
type shardBatch struct {
	node string
	c    *client.Caller
	reqs []server.ReportRequest
	idx  []int
	body []byte

	single server.ReportResponse      // the answer to a JSON report
	batch  server.BatchReportResponse // the answer to a binary batch
	err    error
}

// forwardSpace is the workspace of one report forward, held from decode
// to the written response and then returned to rt.forwardFree
// (DESIGN.md §18): the binary decode scratch, whose intern table
// converges on the fleet's IDs as a daemon's does; the record a JSON
// report is read into; the per-owner
// batches, whose reqs, idx and body keep their capacity; and the merged
// rejection rows. Everything in it is overwritten by the next request
// that draws it, so nothing that outlives the handler may point into it
// — the response is written, and so copied, before it goes back.
type forwardSpace struct {
	wire     *wire.Scratch
	one      [1]server.ReportRequest // a JSON report, as read
	batches  []*shardBatch           // every batch this workspace has used; a forward takes a prefix
	rejected []server.BatchReportResult
}

// batch re-arms the k-th batch for node, keeping only its capacity: an
// answer decoded over a previous request's would inherit its rows.
func (ws *forwardSpace) batch(k int, node string, c *client.Caller) *shardBatch {
	if k == len(ws.batches) {
		ws.batches = append(ws.batches, new(shardBatch))
	}
	sb := ws.batches[k]
	*sb = shardBatch{node: node, c: c, reqs: sb.reqs[:0], idx: sb.idx[:0], body: sb.body[:0]}
	return sb
}

// partition splits reports by the consistent-hash owner of each
// record's channel into ws's batches, in node-ID order, noting every
// device's channel as the read proxy's routing hint. The owner is
// resolved once per run of records naming one channel — a batch
// arrives grouped by channel far more often than not — which is also
// what keeps the rt.mu hold, and so the proxied reads waiting behind
// it, short. It also returns the router's slot.
func (rt *Router) partition(ws *forwardSpace, reports []server.ReportRequest) ([]*shardBatch, int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	used := 0
	var sb *shardBatch // the owner of the current run's channel
	var run string
	for i := range reports {
		ch := reports[i].ChannelID
		if ch == "" {
			ch = rt.cfg.DefaultChannel
		}
		if sb == nil || ch != run {
			run = ch
			node := rt.m.Owner(ch).ID
			sb = nil
			for _, b := range ws.batches[:used] {
				if b.node == node {
					sb = b
					break
				}
			}
			if sb == nil {
				sb = ws.batch(used, node, rt.callers[node])
				used++
			}
		}
		sb.reqs = append(sb.reqs, reports[i])
		sb.idx = append(sb.idx, i)
		rt.devices[reports[i].DeviceID] = ch
	}
	batches := ws.batches[:used]
	slices.SortFunc(batches, func(a, b *shardBatch) int { return strings.Compare(a.node, b.node) })
	return batches, rt.slot
}

// handleReport forwards a report message of either framing: decode
// (the daemon's reader, cap and error envelopes), partition by owner,
// forward each share concurrently re-framed as it arrived, then answer
// what a standalone daemon would have. A JSON report has one owner,
// whose answer — error envelope included — is relayed. A binary batch
// merges the owners' rejections under the original indices; records
// whose shard failed are reported rejected with shard_unavailable, so
// the batch contract stays "every record accounted for" even when part
// of the fleet is down.
//
// The whole path works in one forwardSpace. It goes back only when the
// handler returns: after wg.Wait(), so no forward still reads a body,
// and after the response is written, which reads the merged rows.
func (rt *Router) handleReport(w http.ResponseWriter, r *http.Request) {
	ws := rt.forwardFree.Get()
	if ws == nil {
		ws = &forwardSpace{wire: wire.NewScratch()}
	}
	defer rt.forwardFree.Put(ws)
	msg, ok := server.DecodeReport(w, r, server.DefaultMaxBatchRecords, func() *wire.Scratch { return ws.wire }, &ws.one)
	if !ok {
		return
	}
	batches, slot := rt.partition(ws, msg.Reports)
	var wg sync.WaitGroup
	for _, sb := range batches {
		wg.Add(1)
		go func(sb *shardBatch) {
			defer wg.Done()
			rt.mForwards.Add(float64(len(sb.reqs)))
			if sb.c == nil {
				sb.err = errors.New("no forwarding client for node " + sb.node)
				return
			}
			var out any = &sb.single
			if msg.Binary {
				out = &sb.batch
			}
			var contentType string
			sb.body, contentType, sb.err = msg.AppendFrame(sb.body, sb.reqs)
			if sb.err == nil {
				sb.err = sb.c.PostRaw("/v1/report", contentType, sb.body, out)
			}
			if sb.err != nil {
				// net/http may still be reading the body of a request that
				// failed (RoundTripper: it closes the body "even after
				// RoundTrip returns"), so this one is not written into again.
				sb.body = nil
			}
		}(sb)
	}
	wg.Wait()

	if !msg.Binary {
		if sb := batches[0]; sb.err != nil {
			rt.mForwardErrors.Inc()
			writeUpstream(w, sb.err)
		} else {
			server.WriteAppended(w, sb.single)
		}
		return
	}
	rejected := ws.rejected[:0]
	for _, sb := range batches {
		if sb.err != nil {
			rt.mForwardErrors.Add(float64(len(sb.reqs)))
			for j := range sb.reqs {
				rejected = append(rejected, server.BatchReportResult{
					Index:    sb.idx[j],
					DeviceID: sb.reqs[j].DeviceID,
					Error:    &server.ErrorBody{Code: server.CodeShardUnavailable, Message: sb.err.Error(), Retryable: true},
				})
			}
			continue
		}
		// A shard answers with its rejections only, addressed by Index.
		for _, row := range sb.batch.Results {
			row.Index = sb.idx[row.Index]
			rejected = append(rejected, row)
		}
	}
	slices.SortFunc(rejected, func(a, b server.BatchReportResult) int { return a.Index - b.Index })
	ws.rejected = rejected
	server.WriteJSON(w, http.StatusOK, server.NewBatchReportResponse(slot, len(msg.Reports), rejected))
}

// handleDecision answers GET /v1/decision from the decision table when
// the entry there is the answer of the node the read would be relayed
// to first — the owner of the device's last-reported channel — and
// relays the read otherwise.
func (rt *Router) handleDecision(w http.ResponseWriter, r *http.Request) {
	id, ok := server.DeviceParam(w, r)
	if !ok {
		return
	}
	rt.mu.Lock()
	resp, ok := rt.tableDecisionLocked(id)
	rt.mu.Unlock()
	if ok {
		server.WriteAppended(w, resp)
		return
	}
	rt.relayGet(w, r, id)
}

// tableDecisionLocked is the table's answer to a decision read of id,
// if it has one. Caller holds rt.mu.
func (rt *Router) tableDecisionLocked(id string) (server.DecisionResponse, bool) {
	e := rt.decisions[id]
	if e == nil || !e.decided {
		return server.DecisionResponse{}, false
	}
	if ch, ok := rt.devices[id]; !ok || rt.m.Owner(ch).ID != e.node {
		return server.DecisionResponse{}, false
	}
	return server.DecisionResponse{DeviceID: id, Slot: e.slot, Transform: e.transform, Gamma: e.gamma}, true
}

// proxyDeviceGet relays a per-device GET (chunk, playlist, explain) to
// the device's shard.
func (rt *Router) proxyDeviceGet(w http.ResponseWriter, r *http.Request) {
	id, ok := server.DeviceParam(w, r)
	if !ok {
		return
	}
	rt.relayGet(w, r, id)
}

// relayGet relays r, a GET about device id, as it arrived.
func (rt *Router) relayGet(w http.ResponseWriter, r *http.Request, id string) {
	path := r.RequestURI // as it arrived, when it arrived over a socket
	if !strings.HasPrefix(path, "/") {
		path = r.URL.Path
		if r.URL.RawQuery != "" {
			path += "?" + r.URL.RawQuery
		}
	}
	rt.relay(w, id, path, nil, relayWriter{w})
}

// handleObserve relays a reduction observation to the device's shard
// and takes the γ it answers into the decision table.
func (rt *Router) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req server.ObserveRequest
	if !server.DecodeJSON(w, r, &req) {
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		server.WriteEnvelopeError(w, http.StatusInternalServerError, server.CodeInternal, err.Error())
		return
	}
	out := observeWriter{relayWriter: relayWriter{w}}
	node := rt.relay(w, req.DeviceID, "/v1/observe", body, &out)
	rt.mu.Lock()
	rt.noteObserveLocked(req.DeviceID, node, &out)
	rt.mu.Unlock()
}

// noteObserveLocked takes an observation's answer into the decision
// table: the γ of the node that answered it (noteGamma), on an entry
// started over, undecided, for that node's next tick reply to complete
// when it was another node's. An observation no node answered 200
// leaves the device's γ in doubt, and its entry is dropped. Caller holds
// rt.mu.
func (rt *Router) noteObserveLocked(id, node string, out *observeWriter) {
	if node == "" || !out.ok {
		if e := rt.decisions[id]; e != nil {
			*e = decision{}
		}
		return
	}
	rt.entryLocked([]byte(id), node).noteGamma(out.resp.Gamma, out.resp.Observations)
}

// relayWriter is the out of a relayed call: the Caller writes it the
// shard's 200 body, which goes to the device as it arrived.
type relayWriter struct{ w http.ResponseWriter }

func (rw relayWriter) Write(body []byte) (int, error) {
	server.WriteBody(rw.w, http.StatusOK, body)
	return len(body), nil
}

// observeWriter is a relayWriter that also reads the observation's
// answer.
type observeWriter struct {
	relayWriter
	resp server.ObserveResponse
	ok   bool
}

func (ow *observeWriter) Write(body []byte) (int, error) {
	ow.ok = json.Unmarshal(body, &ow.resp) == nil
	return ow.relayWriter.Write(body)
}

// relay runs one per-device call — a GET of path, or a POST of body to
// it when body is non-nil — against the owner of the device's
// last-reported channel, and answers the shard's envelope verbatim or
// hands its 200 body to out. Only when that shard does not know the
// device (or the routing table has no hint) does it walk the remaining
// nodes in ID order — deterministic, so every router replica probes
// alike — and only unknown_device moves it on: any other failure is the
// device's real answer. It returns the ID of the node that answered
// 200, or "" when none did.
func (rt *Router) relay(w http.ResponseWriter, deviceID, path string, body []byte, out io.Writer) string {
	rt.mProxies.Inc()
	var ownerID string
	var owner *client.Caller
	rt.mu.Lock()
	if ch, ok := rt.devices[deviceID]; ok {
		ownerID = rt.m.Owner(ch).ID
		owner = rt.callers[ownerID]
	}
	rt.mu.Unlock()
	var err error
	var final bool
	if owner != nil {
		if final, err = relayTo(owner, path, body, out); final {
			return answered(w, ownerID, err)
		}
	}
	_, nodes, callers := rt.snapshot()
	for i, c := range callers {
		if c == nil || c == owner {
			continue
		}
		if final, err = relayTo(c, path, body, out); final {
			return answered(w, nodes[i].ID, err)
		}
	}
	if err != nil {
		writeUpstream(w, err) // the last shard's unknown_device
		return ""
	}
	server.WriteEnvelopeError(w, http.StatusNotFound, server.CodeUnknownDevice, "unknown device "+deviceID)
	return ""
}

// relayTo issues the call against one shard, its 200 body to out. It
// reports final false, with the shard's error, only when the shard does
// not know the device; otherwise the shard's answer is the device's.
func relayTo(c *client.Caller, path string, body []byte, out io.Writer) (final bool, err error) {
	if body == nil {
		err = c.GetJSON(path, out)
	} else {
		err = c.PostRaw(path, "application/json", body, out)
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Code == server.CodeUnknownDevice {
		return false, err
	}
	return true, err
}

// answered ends a relay that node answered: node when the answer was a
// 200, already written to out, and otherwise "" with the failure
// written as the device's answer.
func answered(w http.ResponseWriter, node string, err error) string {
	if err != nil {
		writeUpstream(w, err)
		return ""
	}
	return node
}
