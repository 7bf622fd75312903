package router

import (
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"lpvs/internal/client"
	"lpvs/internal/scheduler"
	"lpvs/internal/server"
	"lpvs/internal/shard"
)

// This file is the router's scheduling data plane: one logical tick
// fanned out to every shard concurrently and merged back into a
// single deterministic response. The merge is a pure function over
// the (node, result) pairs — results land in a position-addressed
// slice and MergeTicks sorts the decisions by VC ID — so the
// response bytes are independent of which shard answered first. That
// is the federation's analogue of the scheduler pool's
// serial-vs-parallel differential, and the property the router's
// race-mode merge test pins.

// handleTick fans POST /v1/shard/tick out to every shard in the
// installed map and merges the per-channel decisions. A shard that
// fails keeps its row in the response (OK=false) and marks the tick
// Degraded; its channels simply keep their previous decisions until
// the next tick reaches it. Only when every shard fails does the
// router answer 502 shard_unavailable, and only then does its slot
// stay where it was. The replies go into the decision table before
// the response is written, so a device that reads its decision after
// the tick has answered reads this tick's.
func (rt *Router) handleTick(w http.ResponseWriter, _ *http.Request) {
	m, nodes, callers := rt.snapshot()
	start := time.Now()
	ts := rt.tickFree.Get()
	if ts == nil {
		ts = new(tickSpace)
	}
	// Back only once the response is written: its VCs alias the replies.
	defer rt.tickFree.Put(ts)
	ts.arm(len(nodes))

	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts.results[i], ts.errs[i] = rt.tickShard(callers[i], nodes[i], m, &ts.replies[i])
		}(i)
	}
	wg.Wait()

	rt.mu.Lock()
	ticked := false
	for i, n := range nodes {
		ticked = ticked || ts.results[i] != nil
		if rt.callers[n.ID] != callers[i] {
			continue // resharded away during the fan-out; forgotten there
		}
		if ts.results[i] == nil {
			rt.forgetNodeLocked(n.ID)
			continue
		}
		rt.noteTickLocked(n.ID, ts.results[i])
	}
	slot := rt.slot
	if ticked {
		rt.slot++
	}
	rt.mu.Unlock()
	rt.mTicks.Inc()

	merged := &ts.merged
	mergeTicks(merged, slot, m.Epoch(), nodes, ts.results, ts.errs)
	merged.Sched.DurationSec = time.Since(start).Seconds()
	if merged.ShardErrors == len(nodes) {
		server.WriteEnvelopeError(w, http.StatusBadGateway, server.CodeShardUnavailable,
			"all shards failed this tick")
		return
	}
	rt.log.Info("router tick", "slot", slot, "shards", len(nodes),
		"shard_errors", merged.ShardErrors, "vcs", len(merged.VCs),
		"reports", merged.Reports, "selected", merged.Selected,
		"duration_ms", merged.Sched.DurationSec*1000)
	body, ok := merged.AppendJSON(ts.body[:0])
	ts.body = body
	if !ok {
		// A NaN or an infinity: the header alone, as server.WriteAppended.
		server.WriteBody(w, http.StatusOK, nil)
		return
	}
	server.WriteBody(w, http.StatusOK, body)
}

// tickSpace is the storage of one router tick, reused tick to tick
// through rt.tickFree, so two ticks running at once never share one:
// each node's reply as read (its canonical bytes and γ and observation
// arrays included), the per-node results and errors, the merged reply,
// whose VCs alias the replies' canonical bytes, and its encoded body.
type tickSpace struct {
	replies []shardReply
	results []*server.ShardTickResponse
	errs    []error
	merged  TickResponse
	body    []byte
}

// arm sizes the space for a fan-out to n nodes. A reply keeps what it
// holds; shardReply.reset re-arms it for its node's call.
func (ts *tickSpace) arm(n int) {
	if len(ts.replies) < n {
		ts.replies = append(ts.replies, make([]shardReply, n-len(ts.replies))...)
	}
	ts.results = append(ts.results[:0], make([]*server.ShardTickResponse, n)...)
	ts.errs = append(ts.errs[:0], make([]error, n)...)
}

// shardReply is what one shard's tick reply is read into. A reply in
// the shard's own layout is read by ShardTickResponse.ReadJSON into the
// storage the last reply left behind; any other layout goes through
// UnmarshalJSON, into a fresh value, since json.Unmarshal would decode
// into a reused element's stale fields and keep those the body lacks.
type shardReply struct{ server.ShardTickResponse }

// reset empties r for its next call and keeps its storage, the node
// and epoch strings included, which ReadJSON takes over when the reply
// spells them.
func (r *shardReply) reset() {
	r.ShardTickResponse = server.ShardTickResponse{Node: r.Node, Epoch: r.Epoch,
		VCs: r.VCs[:0], Devices: r.Devices[:0]}
}

func (r *shardReply) UnmarshalJSON(data []byte) error {
	var v server.ShardTickResponse
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	r.ShardTickResponse = v
	return nil
}

// tickShard runs one shard's leg of the fan-out, reading the reply into
// reply. On a 409 shard_epoch_mismatch the router pushes its own map
// and retries the tick once — the normal convergence path right after a
// reshard when a shard missed the push.
func (rt *Router) tickShard(c *client.Caller, n shard.Node, m *shard.Map, reply *shardReply) (*server.ShardTickResponse, error) {
	req := server.ShardTickRequest{Node: n.ID, Epoch: m.Epoch()}
	callStart := time.Now()
	rt.tickShardCalls.Add(1)
	rt.mShardTicks.With(n.ID).Inc()

	reply.reset()
	err := c.PostJSON("/v1/shard/tick", req, reply)
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Code == server.CodeEpochMismatch {
		if perr := c.PostJSON("/v1/shard/map", m.Spec(), nil); perr == nil {
			reply.reset()
			err = c.PostJSON("/v1/shard/tick", req, reply)
		}
	}
	rt.mShardTickDur.With(n.ID).Observe(time.Since(callStart).Seconds())
	if err != nil {
		rt.tickShardErrors.Add(1)
		rt.mShardErrors.With(n.ID).Inc()
		rt.log.Warn("shard tick failed", "node", n.ID, "err", err)
		return nil, err
	}
	return &reply.ShardTickResponse, nil
}

// decision is one device's entry in the decision table: what node said
// about it last, which is what node answers the device's decision read
// with until its state changes again. Only two things change it between
// ticks: an observation, which the router relays and so sees, and the
// node's restart, which the next tick reply's slot gives away. decided
// is false while only an observation has filled the entry, and after
// the entry was dropped (node is then "").
type decision struct {
	node      string
	decided   bool
	slot      int
	transform bool
	gamma     float64
	obs       int // the observations behind gamma
}

// noteTickLocked takes one node's tick reply into the decision table:
// every device line of each VC's Canonical, with the γ and observation
// count the reply lists beside it. A reply whose slot is not the one
// after the node's last reply's tells of ticks the table never saw — a
// restarted or restored node's slot went back, a tick whose reply was
// lost before a retry ran, a tick some other process ran — so what the
// table holds from that node is dropped first; a reply it cannot read
// line for line drops it all the same. Caller holds rt.mu.
func (rt *Router) noteTickLocked(node string, res *server.ShardTickResponse) {
	if last, ok := rt.tickSlots[node]; ok && res.Slot != last+1 {
		rt.forgetNodeLocked(node)
	}
	rt.tickSlots[node] = res.Slot
	if len(res.Devices) != len(res.VCs) {
		rt.forgetNodeLocked(node)
		return
	}
	for i := range res.VCs {
		vc, devs := &res.VCs[i], &res.Devices[i]
		n := len(devs.Gamma)
		read := len(devs.Observations) == n && scheduler.ReadCanonical(vc.Canonical, vc.Degraded, n,
			func(k int, id []byte, x bool) {
				e := rt.entryLocked(id, node)
				e.decided, e.slot, e.transform = true, res.Slot, x
				e.noteGamma(devs.Gamma[k], devs.Observations[k])
			})
		if !read {
			rt.forgetNodeLocked(node)
			return
		}
	}
}

// entryLocked returns device id's table entry as node's: a new one, or
// the device's started over when it was another node's. Caller holds
// rt.mu.
func (rt *Router) entryLocked(id []byte, node string) *decision {
	e := rt.decisions[string(id)]
	if e == nil {
		e = new(decision)
		rt.decisions[string(id)] = e
	}
	if e.node != node {
		*e = decision{node: node}
	}
	return e
}

// noteGamma takes a γ from e's node when it rests on at least as many
// observations as e's, so a tick reply and an observation that cross on
// the way converge on the later posterior.
func (e *decision) noteGamma(gamma float64, obs int) {
	if obs >= e.obs {
		e.gamma, e.obs = gamma, obs
	}
}

// forgetNodeLocked drops every table entry node decided and the slot of
// its last tick reply: its decision reads go to the relay until its
// next tick reply. The entries keep their keys, so a device the node
// decides again allocates nothing. Caller holds rt.mu.
func (rt *Router) forgetNodeLocked(node string) {
	for _, e := range rt.decisions {
		if e.node == node {
			*e = decision{}
		}
	}
	delete(rt.tickSlots, node)
}

// MergeTicks merges per-shard tick results into one deterministic
// response: decisions sorted by (VC ID, node) — channel IDs are
// globally unique across shards (each channel has exactly one
// consistent-hash owner), so this is the "decisions in VC-ID order"
// merge contract — and scheduling stats folded by the same
// server.TickStats.Fold a shard folds its channel VCs with. Pure: same
// inputs, byte-identical output, regardless of fan-out completion
// order. nodes, results and errs are parallel slices; a nil result
// with its error represents a failed shard.
func MergeTicks(slot int, epoch string, nodes []shard.Node, results []*server.ShardTickResponse, errs []error) TickResponse {
	var merged TickResponse
	mergeTicks(&merged, slot, epoch, nodes, results, errs)
	return merged
}

// mergeTicks is MergeTicks into merged, whose Shards and VCs storage it
// reuses. A merge without a VC leaves VCs nil, as MergeTicks always
// has, so the reply says null there.
func mergeTicks(merged *TickResponse, slot int, epoch string, nodes []shard.Node, results []*server.ShardTickResponse, errs []error) {
	shards, vcs := merged.Shards, merged.VCs[:0]
	if shards == nil || cap(shards) < len(nodes) {
		shards = make([]ShardTickSummary, len(nodes))
	}
	*merged = TickResponse{
		Slot:   slot,
		Epoch:  epoch,
		Shards: shards[:len(nodes)],
		Sched:  server.NewTickStats(slot),
	}
	for i, n := range nodes {
		sum := ShardTickSummary{Node: n.ID}
		res := results[i]
		if res == nil {
			sum.Error = "no response"
			if errs[i] != nil {
				sum.Error = errs[i].Error()
			}
			var apiErr *client.APIError
			if errors.As(errs[i], &apiErr) {
				sum.Code = apiErr.Code
			} else {
				sum.Code = server.CodeShardUnavailable
			}
			merged.ShardErrors++
			merged.Degraded = true
			merged.Shards[i] = sum
			continue
		}
		sum.OK = true
		sum.Slot = res.Slot
		sum.Reports = res.Reports
		sum.VCs = len(res.VCs)
		merged.Shards[i] = sum

		merged.Reports += res.Reports
		merged.Eligible += res.Eligible
		merged.Selected += res.Selected
		merged.Swaps += res.Swaps
		merged.Degraded = merged.Degraded || res.Degraded
		for _, vc := range res.VCs {
			vcs = append(vcs, VCDecision{Node: n.ID, ShardVCDecision: vc})
		}
		merged.Sched.Fold(res.Sched)
	}
	slices.SortFunc(vcs, func(a, b VCDecision) int {
		if a.VC != b.VC {
			return strings.Compare(a.VC, b.VC)
		}
		return strings.Compare(a.Node, b.Node)
	})
	if len(vcs) > 0 {
		merged.VCs = vcs
	}
}
