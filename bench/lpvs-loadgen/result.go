package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"

	"lpvs/internal/stats"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists exactly these names and
// units (a test keeps them in step).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_slot", "count"},
	{"alloc_kb_per_slot", "KiB"},
	{"rss_peak_mb", "MiB"},
}

// The e2e.* metrics are the end-to-end times. Their run-to-run spread on
// a shared two-core machine is wider than their bound (bench/README.md,
// "Demoted metrics"), so they are listed with the per-layer metrics and
// printed by both passes, but not gated.
var perLayer = []metricDef{
	{"e2e.slot_p50_ms", "ms"},
	{"e2e.slot_p90_ms", "ms"},
	{"e2e.tick_p50_ms", "ms"},
	{"e2e.read_p99_ms", "ms"},
	{"e2e.device_slots_per_s", "1/s"},
	{"e2e.cpu_ms_per_slot", "ms"},
	{"wire.encode_ns_per_report", "ns"},
	{"wire.decode_ns_per_report", "ns"},
	{"wire.decode_allocs_per_batch", "count"},
	{"wire.bytes_per_report", "B"},
	{"server.ingest_ms", "ms"},
	{"server.ingest_reports_per_s", "1/s"},
	{"server.ingest_json_ns_per_report", "ns"},
	{"server.tick_handler_ms", "ms"},
	{"server.tick_overhead_ms", "ms"},
	{"server.tick_allocs", "count"},
	{"server.tick_kb", "KiB"},
	{"server.tick_response_bytes", "B"},
	{"server.request_us", "us"},
	{"server.decision_rtt_us", "us"},
	{"server.chunk_rtt_us", "us"},
	{"server.read_stall_ms", "ms"},
	{"server.shed_total", "count"},
	{"scheduler.compact_ms", "ms"},
	{"scheduler.phase1_ms", "ms"},
	{"scheduler.phase2_ms", "ms"},
	{"scheduler.cpu_ms", "ms"},
	{"scheduler.parallelism", "ratio"},
	{"scheduler.plan_cache_hit_ratio", "ratio"},
	{"scheduler.replayed_tick_ratio", "ratio"},
	{"ilp.nodes_per_tick", "count"},
	{"ilp.ns_per_node", "ns"},
	{"audit.encode_ms", "ms"},
	{"audit.bytes_per_tick", "B"},
	{"audit.replay_ms", "ms"},
	{"router.forward_ms", "ms"},
	{"router.tick_overhead_ms", "ms"},
	{"router.merge_us", "us"},
	{"router.proxy_read_us", "us"},
	{"shard.owner_ns", "ns"},
	{"shard.skew", "ratio"},
	{"client.transport_ms_per_slot", "ms"},
	{"client.retries", "count"},
	{"obs.scrape_ms", "ms"},
	{"obs.series", "count"},
	{"persist.snapshot_ms", "ms"},
	{"persist.snapshot_bytes", "B"},
	{"bench.reader_late_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
	{"bench.failed_ops_ratio", "ratio"},
	{"bench.timed_slots", "count"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance says where a result came from.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func newProvenance() provenance {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitCommit:  commit,
	}
}

// result is one workload's run, as -json writes it.
type result struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Interleaved marks a --workload all run: its blocks alternated with
	// the other workloads' in one process, so its CPU, allocation and
	// memory metrics include their idle daemons.
	Interleaved bool    `json:"interleaved"`
	RunSeconds  float64 `json:"run_seconds"`
	TimedSlots  int     `json:"timed_slots"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples"`
	// ReadTailPercentile is the highest percentile of the background
	// reads with at least ten samples beyond it, and its value.
	ReadTailPercentile float64 `json:"read_tail_percentile"`
	ReadTailMS         float64 `json:"read_tail_ms"`
	Ops                struct {
		Report     opCount `json:"report"`
		Tick       opCount `json:"tick"`
		Read       opCount `json:"read"`
		Background opCount `json:"background_read"`
		Check      opCount `json:"check"`
	} `json:"ops"`
	Correct        bool              `json:"correct"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	FailedOpsRatio float64           `json:"failed_ops_ratio"`
	EndToEnd       map[string]metric `json:"end_to_end,omitempty"`
	// Demoted are the e2e.* metrics, reported by both passes; the traced
	// pass also lists them in PerLayer.
	Demoted  map[string]metric `json:"demoted"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	Ledger   []ledgerRow       `json:"ledger,omitempty"`
	// SlotMS is every timed slot's wall time, in run order.
	SlotMS    []float64 `json:"slot_ms"`
	SpansFile string    `json:"spans_file,omitempty"`
}

// document is the -json file: provenance plus one result per workload.
type document struct {
	provenance
	Results []result `json:"results"`
}

// finish turns the session's samples into its result.
func (s *session) finish() result {
	sp := s.in.spec
	r := result{
		Workload: sp.name, Why: sp.why, Seed: s.opt.seed, Traced: s.opt.trace,
		RunSeconds: s.opt.seconds, TimedSlots: s.timed, Samples: map[string]int{},
	}
	r.Ops.Report, r.Ops.Tick, r.Ops.Read = s.ops.Report, s.ops.Tick, s.ops.Read
	r.Ops.Background, r.Ops.Check = s.ops.Background, s.ops.Check
	for _, c := range []opCount{r.Ops.Report, r.Ops.Tick, r.Ops.Read, r.Ops.Background, r.Ops.Check} {
		r.Attempted += c.Attempted
		r.Failed += c.Failed
	}
	if s.firstErr != nil && r.Failed == 0 {
		r.Failed = 1
	}
	r.Attempted = max(r.Attempted, 1)
	r.FailedOpsRatio = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0 && s.timed > 0

	latency := make([]float64, len(s.reads))
	late := make([]float64, len(s.reads))
	for i, rd := range s.reads {
		latency[i], late[i] = ms(rd.latency), ms(rd.late)
	}
	r.SlotMS = s.slotMS
	r.Samples["slot"], r.Samples["tick"], r.Samples["read"] = len(s.slotMS), len(s.tickMS), len(latency)
	r.ReadTailPercentile = tailPercentile(len(latency))
	r.ReadTailMS = stats.Percentile(latency, r.ReadTailPercentile)

	slots := float64(max(s.timed, 1))
	r.Demoted = map[string]metric{
		"e2e.slot_p50_ms":        {stats.Percentile(s.slotMS, 50), "ms"},
		"e2e.slot_p90_ms":        {stats.Percentile(s.slotMS, 90), "ms"},
		"e2e.tick_p50_ms":        {stats.Percentile(s.tickMS, 50), "ms"},
		"e2e.read_p99_ms":        {stats.Percentile(latency, 99), "ms"},
		"e2e.device_slots_per_s": {float64(sp.devices) * float64(s.timed) / max(s.meter.wall.Seconds(), 1e-9), "1/s"},
		"e2e.cpu_ms_per_slot":    {ms(s.meter.cpu) / slots, "ms"},
	}
	if !s.opt.trace {
		r.EndToEnd = named(endToEnd, map[string]float64{
			"setup_s":           s.setupSec,
			"allocs_per_slot":   s.meter.mallocs / slots,
			"alloc_kb_per_slot": stats.Percentile(s.meter.slotBytes, 50) / 1024,
			"rss_peak_mb":       procStatusKB("VmHWM") / 1024,
		})
		return r
	}

	s.attribute()
	tracedP50 := stats.Percentile(s.tracedMS, 50)
	var unattributed float64
	r.Ledger, unattributed = ledger(s.tr.spans, tracedP50)
	vals := s.layerValues(latency, late, tracedP50, unattributed, r.FailedOpsRatio)
	for name, m := range r.Demoted {
		vals[name] = m.Value
	}
	r.PerLayer = named(perLayer, vals)
	return r
}

func named(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// layerValues computes the per-layer metrics of a traced pass.
func (s *session) layerValues(latency, late []float64, tracedP50, unattributed, failedRatio float64) map[string]float64 {
	p, sp := s.probe, s.in.spec
	fed := s.cl.rt != nil
	v := map[string]float64{}
	for _, name := range []string{
		"wire.encode_ns_per_report", "wire.decode_ns_per_report", "wire.decode_allocs_per_batch",
		"wire.bytes_per_report", "server.tick_handler_ms", "server.tick_overhead_ms", "server.tick_allocs",
		"server.tick_kb", "server.tick_response_bytes", "audit.encode_ms", "audit.bytes_per_tick",
		"audit.replay_ms", "router.tick_overhead_ms", "router.merge_us", "shard.owner_ns",
		"obs.scrape_ms", "obs.series", "persist.snapshot_ms", "persist.snapshot_bytes",
	} {
		v[name] = p.median(name)
	}

	// Ingest of one slot's reports by the daemon that owns them.
	switch {
	case sp.perDevice:
		v["server.ingest_ms"] = p.median("inproc.report1_us") * float64(sp.devices) / 1000
	case fed:
		v["server.ingest_ms"] = p.median("shard.ingest_ms")
		v["router.forward_ms"] = p.median("inproc.report_us")/1000 - p.median("shard.ingest_ms")
		v["router.proxy_read_us"] = p.median("inproc.decision_us") - p.median("shard.decision_us")
	default:
		v["server.ingest_ms"] = p.median("inproc.report_us") / 1000
	}
	if v["server.ingest_ms"] > 0 {
		v["server.ingest_reports_per_s"] = float64(sp.devices) / (v["server.ingest_ms"] / 1000)
	}
	v["server.ingest_json_ns_per_report"] = p.median("inproc.report1_us") * 1000

	var small []float64
	for _, op := range []string{"report1", "decision", "chunk"} {
		small = append(small, p["socket."+op+"_us"]...)
	}
	v["server.request_us"] = stats.Percentile(small, 50)
	v["server.decision_rtt_us"] = p.median("socket.decision_us")
	v["server.chunk_rtt_us"] = p.median("socket.chunk_us")

	// Reads due while a tick held the daemon against reads due between
	// ticks.
	var during, between []float64
	for i, rd := range s.reads {
		in := false
		for _, tk := range s.tickAt {
			if !rd.due.Before(tk[0]) && rd.due.Before(tk[1]) {
				in = true
				break
			}
		}
		if in {
			during = append(during, latency[i])
		} else {
			between = append(between, latency[i])
		}
	}
	v["server.read_stall_ms"] = stats.Percentile(during, 99) - stats.Percentile(between, 50)
	v["server.shed_total"] = s.shedTotal()

	var compact, phase1, phase2, cpu, par []float64
	var hits, misses, replayed, nodes int
	var phase1Sec float64
	for _, st := range s.sched {
		compact = append(compact, 1000*st.CompactSec)
		phase1 = append(phase1, 1000*st.Phase1Sec)
		phase2 = append(phase2, 1000*st.Phase2Sec)
		cpu = append(cpu, 1000*st.CPUSec)
		if st.DurationSec > 0 {
			par = append(par, st.CPUSec/st.DurationSec)
		}
		hits += st.CacheHits
		misses += st.CacheMisses
		nodes += st.Phase1Nodes
		phase1Sec += st.Phase1Sec
		if st.Replayed {
			replayed++
		}
	}
	v["scheduler.compact_ms"] = stats.Percentile(compact, 50)
	v["scheduler.phase1_ms"] = stats.Percentile(phase1, 50)
	v["scheduler.phase2_ms"] = stats.Percentile(phase2, 50)
	v["scheduler.cpu_ms"] = stats.Percentile(cpu, 50)
	v["scheduler.parallelism"] = stats.Percentile(par, 50)
	if hits+misses > 0 {
		v["scheduler.plan_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if n := len(s.sched); n > 0 {
		v["scheduler.replayed_tick_ratio"] = float64(replayed) / float64(n)
		v["ilp.nodes_per_tick"] = float64(nodes) / float64(n)
	}
	if nodes > 0 {
		v["ilp.ns_per_node"] = phase1Sec * 1e9 / float64(nodes)
	}

	v["shard.skew"] = s.shardSkew()
	v["client.transport_ms_per_slot"] = stats.Percentile(s.slotMS, 50) - stats.Percentile(s.inprocMS, 50)
	v["client.retries"] = float64(s.drv.retries() + s.bg.retries())
	v["bench.reader_late_p99_ms"] = stats.Percentile(late, 99)
	if plainP50 := stats.Percentile(s.plainMS, 50); plainP50 > 0 {
		v["bench.trace_overhead_pct"] = 100 * (tracedP50 - plainP50) / plainP50
	}
	v["bench.unattributed_pct"] = unattributed
	v["bench.failed_ops_ratio"] = failedRatio
	v["bench.timed_slots"] = float64(s.timed)
	return v
}

// print writes every metric as "workload name value unit", the sample
// counts beside the percentiles, the operation counts, and on a traced
// pass the ledger.
func (r *result) print(w io.Writer) {
	line := func(name string, m metric, note string) {
		fmt.Fprintf(w, "%s %s %.6g %s%s\n", r.Workload, name, m.Value, m.Unit, note)
	}
	counts := map[string]string{
		"e2e.slot_p50_ms": "slot", "e2e.slot_p90_ms": "slot", "e2e.tick_p50_ms": "tick", "e2e.read_p99_ms": "read",
	}
	note := func(name string) string {
		if c, ok := counts[name]; ok {
			return fmt.Sprintf("  (n=%d)", r.Samples[c])
		}
		return ""
	}
	for _, d := range endToEnd {
		if m, ok := r.EndToEnd[d.name]; ok {
			line(d.name, m, note(d.name))
		}
	}
	for _, d := range perLayer {
		if m, ok := r.PerLayer[d.name]; ok {
			line(d.name, m, note(d.name))
		} else if m, ok := r.Demoted[d.name]; ok {
			line(d.name, m, note(d.name))
		}
	}
	fmt.Fprintf(w, "%s failed_ops_ratio %.6g ratio  (failed=%d attempted=%d)\n",
		r.Workload, r.FailedOpsRatio, r.Failed, r.Attempted)
	fmt.Fprintf(w, "%s read_tail_ms %.6g ms  (p%g, the highest percentile of n=%d reads with >=10 beyond it)\n",
		r.Workload, r.ReadTailMS, r.ReadTailPercentile, r.Samples["read"])
	for _, ph := range []struct {
		name string
		c    opCount
	}{{"report", r.Ops.Report}, {"tick", r.Ops.Tick}, {"read", r.Ops.Read},
		{"background_read", r.Ops.Background}, {"check", r.Ops.Check}} {
		fmt.Fprintf(w, "%s ops.%s attempted=%d succeeded=%d failed=%d\n",
			r.Workload, ph.name, ph.c.Attempted, ph.c.Succeeded, ph.c.Failed)
	}
	if len(r.Ledger) > 0 {
		fmt.Fprintf(w, "%s ledger: self time per traced slot, share of traced slot_p50\n", r.Workload)
		for _, row := range r.Ledger {
			fmt.Fprintf(w, "%s ledger %-22s %10.3f ms %6.1f %%\n", r.Workload, row.Name, row.SelfMS, row.SharePC)
		}
	}
}
