package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lpvs/internal/obs/audit"
	"lpvs/internal/router"
	"lpvs/internal/server"
	"lpvs/internal/shard"
	"lpvs/internal/wire"
)

// This file is the traced pass's layer probes: each layer's public
// entry point re-run on the slot's captured inputs, off the hot path,
// with the background reader stopped. Probe samples are keyed by name;
// result.go turns their medians into the per-layer metrics.

// jsonProbeReports is how many single JSON reports the ingest_json
// probe posts on a batch workload.
const jsonProbeReports = 200

// ownerShard returns the shard daemon owning device d's channel.
func (s *session) ownerShard(d int) *daemon {
	node := s.cl.smap.Owner(s.in.fleet[d].ChannelID)
	for i, n := range s.cl.smap.Nodes() {
		if n.ID == node.ID {
			return s.cl.shards[i]
		}
	}
	return s.cl.shards[0]
}

// inprocSlot drives one slot through the front daemon's handler with no
// socket. On the federation it first posts each shard's share of the
// reports straight to the shard (re-posting the same reports through
// the router afterwards is idempotent) and afterwards reads the same
// decisions straight from the owning shards, so the router's own cost
// is the difference.
func (s *session) inprocSlot() {
	fed := s.cl.rt != nil
	if fed {
		shares := map[*daemon][]wire.ReportRequest{}
		for d, r := range s.in.reports(s.slot % cyclePositions) {
			sh := s.ownerShard(d)
			shares[sh] = append(shares[sh], r)
		}
		slowest := time.Duration(0)
		for sh, reps := range shares {
			body, err := wire.AppendBatch(nil, reps)
			s.fail(err)
			start := time.Now()
			s.fail((&inproc{h: sh.handler}).post("/v1/report", wire.ContentType, body, nil))
			slowest = max(slowest, time.Since(start))
		}
		s.probe.add("shard.ingest_ms", ms(slowest))
	}
	s.inprocMS = append(s.inprocMS, ms(s.runSlot(inprocess)))
	if fed {
		for _, d := range s.in.readDevice[:min(100, len(s.in.readDevice))] {
			start := time.Now()
			var dec server.DecisionResponse
			s.fail((&inproc{h: s.ownerShard(d).handler}).get("/v1/decision?device="+s.in.fleet[d].DeviceID, &dec))
			s.probe.add("shard.decision_us", us(time.Since(start)))
		}
	}
}

// shardCallSeconds reads the router's own /metrics and returns, per
// node, the cumulative wall time of its shard tick calls
// (lpvs_shard_tick_seconds_sum). Nil on a standalone daemon.
func (s *session) shardCallSeconds() map[string]float64 {
	if s.cl.rt == nil {
		return nil
	}
	ip := &inproc{h: s.cl.front.handler}
	if err := ip.get("/metrics", nil); err != nil {
		s.fail(err)
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(ip.last.Body)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), `lpvs_shard_tick_seconds_sum{node="`)
		if !ok {
			continue
		}
		node, val, _ := strings.Cut(rest, `"} `)
		out[node], _ = strconv.ParseFloat(val, 64)
	}
	return out
}

// layerProbes runs after a traced slot, on that slot's inputs.
func (s *session) layerProbes() {
	sp := s.in.spec
	slot := s.slot - 1
	reports := s.in.reports(slot % cyclePositions)
	n := float64(len(reports))

	// wire: encode into a reused buffer, decode with a warm decoder.
	start := time.Now()
	body, err := wire.AppendBatch(s.encBuf[:0], reports)
	s.fail(err)
	s.probe.add("wire.encode_ns_per_report", float64(time.Since(start))/n)
	s.encBuf = body
	s.probe.add("wire.bytes_per_report", float64(len(body))/n)
	if s.dec == nil {
		s.dec = wire.NewDecoder(nil)
		s.decOut = make([]wire.ReportRequest, len(reports))
		s.fail(s.decodeBatch(body)) // fills the intern table
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	s.fail(s.decodeBatch(body))
	s.probe.add("wire.decode_ns_per_report", float64(time.Since(start))/n)
	runtime.ReadMemStats(&m1)
	s.probe.add("wire.decode_allocs_per_batch", float64(m1.Mallocs-m0.Mallocs))

	// server: single JSON reports straight into a daemon's handler. A
	// perDevice workload's in-process slots already measure this.
	if !sp.perDevice {
		for i := 0; i < jsonProbeReports; i++ {
			d := (i * 7919) % len(reports)
			body, err := json.Marshal(reports[d])
			s.fail(err)
			h := s.cl.front.handler
			if s.cl.rt != nil {
				h = s.ownerShard(d).handler
			}
			start := time.Now()
			s.fail((&inproc{h: h}).post("/v1/report", "application/json", body, nil))
			s.probe.add("inproc.report1_us", us(time.Since(start)))
		}
	}

	if sp.audit {
		s.auditProbe(slot)
	}
	if s.cl.rt != nil {
		s.routerProbe()
	}
	// obs: one scrape every second traced slot, i.e. every ten slots.
	if len(s.tracedMS)%2 == 1 {
		ip := &inproc{h: s.cl.front.handler}
		start := time.Now()
		s.fail(ip.get("/metrics", nil))
		s.probe.add("obs.scrape_ms", ms(time.Since(start)))
		series := 0
		for _, line := range bytes.Split(ip.last.Body.Bytes(), []byte("\n")) {
			if len(line) > 0 && line[0] != '#' {
				series++
			}
		}
		s.probe.add("obs.series", float64(series))
	}
}

func (s *session) decodeBatch(body []byte) error {
	s.dec.Reset(bytes.NewReader(body))
	_, count, err := s.dec.Begin()
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		if err := s.dec.Next(&s.decOut[i]); err != nil {
			return err
		}
	}
	return s.dec.Finish()
}

// auditProbe times what the tick's audit step does, from outside: build
// and encode the slot's record from the reference decision, then append
// the line to a scratch file beside the real log.
func (s *session) auditProbe(slot int) {
	vcs, ref, err := s.ref.decide(slot)
	if err != nil {
		s.fail(err)
		return
	}
	start := time.Now()
	rec := audit.NewRecord(slot, vcs[0].ID, s.ref.sched.Config(), vcs[0].Requests, ref.VCs[0].Decision)
	line, err := rec.Encode()
	s.fail(err)
	s.probe.add("audit.encode_ms", ms(time.Since(start)))

	f, err := os.OpenFile(filepath.Join(filepath.Dir(s.cl.auditPath), "probe.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		s.fail(err)
		return
	}
	start = time.Now()
	_, err = f.Write(line)
	s.probe.add("audit.append_ms", ms(time.Since(start)))
	s.fail(err)
	s.fail(f.Close())
}

// routerProbe times the router's pure pieces on the last merged tick:
// MergeTicks over the shard replies (rebuilt from the merged reply) and
// Map.Owner over the workload's channels.
func (s *session) routerProbe() {
	tick := s.answers.tick
	nodes := s.cl.smap.Nodes()
	results := make([]*server.ShardTickResponse, len(nodes))
	for i, n := range nodes {
		results[i] = &server.ShardTickResponse{Node: n.ID, Slot: tick.Slot, Epoch: tick.Epoch, Sched: tick.Sched}
		for _, vc := range tick.VCs {
			if vc.Node == n.ID {
				results[i].VCs = append(results[i].VCs, vc.ShardVCDecision)
				results[i].Reports += vc.Reports
			}
		}
	}
	start := time.Now()
	merged := router.MergeTicks(tick.Slot, tick.Epoch, nodes, results, make([]error, len(nodes)))
	s.probe.add("router.merge_us", us(time.Since(start)))
	if len(merged.VCs) != len(tick.VCs) {
		s.fail(fmt.Errorf("MergeTicks probe merged %d VCs, tick had %d", len(merged.VCs), len(tick.VCs)))
	}

	const rounds = 1000
	var sink shard.Node
	start = time.Now()
	for i := 0; i < rounds; i++ {
		for _, v := range s.in.streams {
			sink = s.cl.smap.Owner(v.ID)
		}
	}
	_ = sink
	s.probe.add("shard.owner_ns", float64(time.Since(start))/float64(rounds*len(s.in.streams)))
}

// finishTrace runs the once-per-pass probe: one snapshot of the first
// server.
func (s *session) finishTrace() {
	srv := s.cl.front.srv
	if srv == nil {
		srv = s.cl.shards[0].srv
	}
	if srv.SnapshotPath() != "" {
		start := time.Now()
		s.fail(srv.SaveSnapshot())
		s.probe.add("persist.snapshot_ms", ms(time.Since(start)))
		s.probe.add("persist.snapshot_bytes", float64(fileSize(srv.SnapshotPath())))
	}
}

// shedTotal reads the daemons' lifetime shed counters from /v1/status:
// the flat field of a standalone daemon, or each shard's sub-document
// on a router.
func (s *session) shedTotal() float64 {
	var st struct {
		Shed   uint64 `json:"shed_requests"`
		Shards []struct {
			Status *struct {
				Shed uint64 `json:"shed_requests"`
			} `json:"status"`
		} `json:"shards"`
	}
	if err := s.drv.get("/v1/status", &st); err != nil {
		s.fail(err)
		return 0
	}
	total := st.Shed
	for _, sh := range st.Shards {
		if sh.Status != nil {
			total += sh.Status.Shed
		}
	}
	return float64(total)
}

// shardSkew is max over mean devices per shard node (1 on a standalone
// daemon).
func (s *session) shardSkew() float64 {
	if s.cl.smap == nil {
		return 1
	}
	perNode := map[string]int{}
	for _, r := range s.in.fleet {
		perNode[s.cl.smap.Owner(r.ChannelID).ID]++
	}
	most := 0
	for _, n := range perNode {
		most = max(most, n)
	}
	return float64(most) * float64(len(s.cl.smap.Nodes())) / float64(len(s.in.fleet))
}

// attribute charges the probes' medians inside the client-side spans
// that contained the work, so the ledger's self times split a request
// into socket time and the layers behind it.
func (s *session) attribute() {
	tr, p := s.tr, s.probe
	usd := func(name string) func(int) time.Duration {
		return fixed(time.Duration(p.median(name) * float64(time.Microsecond)))
	}
	msd := func(name string) func(int) time.Duration {
		return fixed(time.Duration(p.median(name) * float64(time.Millisecond)))
	}
	if s.cl.rt != nil {
		tr.nest("client.report", "router.forward", usd("inproc.report_us"))
		tr.nest("router.forward", "server.ingest", msd("shard.ingest_ms"))
		tr.nest("client.decision", "router.proxy", usd("inproc.decision_us"))
		tr.nest("router.proxy", "server.decision", usd("shard.decision_us"))
		tr.nest("router.tick", "shard.tick_call", msd("router.shard_call_ms"))
		// A federated reply's stage times are sums of per-VC wall times
		// on workers that share the cores, so they can exceed the call's
		// wall time; they are then scaled to fit it in proportion.
		call := p.median("router.shard_call_ms") / 1000
		for _, name := range []string{"scheduler.compact", "scheduler.phase1", "ilp.phase1", "scheduler.phase2"} {
			tr.nest("shard.tick_call", name, func(slot int) time.Duration {
				st := s.tracedSched[slot]
				scale := 1.0
				if sum := st.CompactSec + st.Phase1Sec + st.Phase2Sec; sum > call {
					scale = call / sum
				}
				for _, stg := range stages(st) {
					if stg.name == name {
						return time.Duration(float64(stg.dur) * scale)
					}
				}
				return 0
			})
		}
	} else {
		tr.nest("client.report", "server.ingest", usd("inproc.report_us"))
		tr.nest("client.decision", "server.decision", usd("inproc.decision_us"))
	}
	perFleet := time.Duration(p.median("wire.decode_ns_per_report") * float64(len(s.in.fleet)))
	tr.nest("server.ingest", "wire.decode", fixed(perFleet))
	tr.nest("client.report1", "server.ingest_json", usd("inproc.report1_us"))
	tr.nest("client.chunk", "server.chunk", usd("inproc.chunk_us"))
	tr.nest("server.tick", "audit.append", fixed(
		time.Duration((p.median("audit.encode_ms")+p.median("audit.append_ms"))*float64(time.Millisecond))))
}
