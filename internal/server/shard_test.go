package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"lpvs/internal/obs/audit"
	"lpvs/internal/scheduler"
	"lpvs/internal/shard"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

func testShardMap(tb testing.TB, ids ...string) *shard.Map {
	tb.Helper()
	nodes := make([]shard.Node, len(ids))
	for i, id := range ids {
		nodes[i] = shard.Node{ID: id, Addr: "http://" + id + ".local"}
	}
	m, err := shard.New(nodes, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func shardTestServer(tb testing.TB, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	if cfg.Stream == nil {
		cfg.Stream = testStream(tb)
	}
	if cfg.ServerStreams == 0 {
		cfg.ServerStreams = -1
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

func extraStream(tb testing.TB, id string) *video.Video {
	tb.Helper()
	v, err := video.Generate(stats.NewRNG(7), video.DefaultGenConfig(id, video.Sports, 90))
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// Outside shard mode every /v1/shard/* endpoint refuses with an
// envelope 404 — a router pointed at a plain edge daemon fails loudly.
func TestShardAPIDisabledOutsideShardMode(t *testing.T) {
	_, ts := testServer(t, -1)
	checks := []struct{ method, path string }{
		{"POST", "/v1/shard/tick"},
		{"GET", "/v1/shard/map"},
		{"POST", "/v1/shard/map"},
	}
	for _, c := range checks {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s status %d, want 404", c.method, c.path, resp.StatusCode)
		}
		env := decodeEnvelope(t, resp)
		resp.Body.Close()
		if env.Code != CodeNotFound {
			t.Fatalf("%s %s code %q", c.method, c.path, env.Code)
		}
	}
}

// Shard endpoints keep the uniform 405+Allow contract.
func TestShardMethodNotAllowed(t *testing.T) {
	_, ts := shardTestServer(t, Config{ShardMode: true, NodeID: "n1"})
	resp, err := http.Get(ts.URL + "/v1/shard/tick")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/shard/tick status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("Allow header %q missing POST", allow)
	}
	env := decodeEnvelope(t, resp)
	if env.Code != CodeMethodNotAllowed {
		t.Fatalf("code %q", env.Code)
	}
}

// A shard tick groups pending reports into one VC per channel and
// returns the per-channel decisions in VC-ID order.
func TestShardTickPerChannelVCs(t *testing.T) {
	s, ts := shardTestServer(t, Config{
		ShardMode:    true,
		NodeID:       "n1",
		ExtraStreams: []*video.Video{extraStream(t, "music")},
	})

	for i, ch := range []string{"", "music", "", "music", "music"} {
		rep := validReport(strings.Repeat("0", 4) + string(rune('a'+i)))
		rep.ChannelID = ch
		if resp := postJSON(t, ts.URL+"/v1/report", rep, nil); resp.StatusCode != 200 {
			t.Fatalf("report %d status %d", i, resp.StatusCode)
		}
	}

	var tick ShardTickResponse
	if resp := postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{Node: "n1"}, &tick); resp.StatusCode != 200 {
		t.Fatalf("shard tick status %d", resp.StatusCode)
	}
	if tick.Node != "n1" || tick.Slot != 0 {
		t.Fatalf("tick header %+v", tick)
	}
	if len(tick.VCs) != 2 {
		t.Fatalf("got %d VCs, want 2 (one per channel): %+v", len(tick.VCs), tick.VCs)
	}
	if tick.VCs[0].VC != "ch" || tick.VCs[1].VC != "music" {
		t.Fatalf("VCs not in VC-ID order: %q, %q", tick.VCs[0].VC, tick.VCs[1].VC)
	}
	if tick.VCs[0].Reports != 2 || tick.VCs[1].Reports != 3 {
		t.Fatalf("per-VC report counts %d/%d, want 2/3", tick.VCs[0].Reports, tick.VCs[1].Reports)
	}
	if tick.Reports != 5 {
		t.Fatalf("aggregate reports %d", tick.Reports)
	}
	for _, vc := range tick.VCs {
		if len(vc.Canonical) == 0 {
			t.Fatalf("VC %q has no canonical decision bytes", vc.VC)
		}
	}
	if got := tick.VCs[0].Eligible + tick.VCs[1].Eligible; got != tick.Eligible {
		t.Fatalf("eligible aggregate %d != sum %d", tick.Eligible, got)
	}

	// The tick advanced the shared slot counter and the shard counters.
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.Slot != 1 {
		t.Fatalf("slot %d after one shard tick", st.Slot)
	}
	if !st.ShardMode || st.ShardNodeID != "n1" {
		t.Fatalf("status shard fields %+v", st)
	}
	if st.ShardTicks != 1 || st.ShardVCsDecided != 2 {
		t.Fatalf("shard counters ticks=%d vcs=%d", st.ShardTicks, st.ShardVCsDecided)
	}
	if s.shardTicks.Load() != 1 {
		t.Fatalf("internal counter %d", s.shardTicks.Load())
	}
}

// Mis-addressed or epoch-skewed ticks are refused with conflict codes
// so a router never merges a decision computed under a stale map.
func TestShardTickAddressAndEpochChecks(t *testing.T) {
	m := testShardMap(t, "n1", "n2")
	_, ts := shardTestServer(t, Config{ShardMode: true, NodeID: "n1", ShardMap: m})

	resp := postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{Node: "n2"}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong-node status %d, want 409", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Code != CodeWrongShard {
		t.Fatalf("wrong-node code %q", env.Code)
	}

	resp = postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{Node: "n1", Epoch: "stale"}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch status %d, want 409", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Code != CodeEpochMismatch {
		t.Fatalf("stale-epoch code %q", env.Code)
	}

	// Matching claims pass.
	resp = postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{Node: "n1", Epoch: m.Epoch()}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matched tick status %d", resp.StatusCode)
	}
	// Empty claims pass too (curl-friendly).
	resp = postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unclaimed tick status %d", resp.StatusCode)
	}
}

// A shard has no state-export or handoff endpoint: both paths answer
// exactly what any unknown path does, an envelope 404 naming the path.
func TestShardStateHandoffGone(t *testing.T) {
	_, ts := shardTestServer(t, Config{ShardMode: true, NodeID: "n1"})
	answer := func(method, path string) (int, string, string) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), strings.ReplaceAll(string(body), path, "PATH")
	}
	wantCode, wantType, wantBody := answer("GET", "/v1/shard/unknown")
	if wantCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d", wantCode)
	}
	for _, c := range []struct{ method, path string }{
		{"GET", "/v1/shard/state"},
		{"POST", "/v1/shard/handoff"},
	} {
		code, typ, body := answer(c.method, c.path)
		if code != wantCode || typ != wantType || body != wantBody {
			t.Fatalf("%s %s: %d %q %s, want the unknown-path answer %d %q %s",
				c.method, c.path, code, typ, body, wantCode, wantType, wantBody)
		}
	}
}

// Shard-map exchange: GET 404s before a map is installed; POST
// installs one and future GETs serve its epoch and membership.
func TestShardMapExchange(t *testing.T) {
	s, ts := shardTestServer(t, Config{ShardMode: true, NodeID: "n1"})

	resp := getJSON(t, ts.URL+"/v1/shard/map", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-map GET status %d, want 404", resp.StatusCode)
	}

	spec := testShardMap(t, "n1", "n2").Spec()
	var installed ShardMapResponse
	if resp := postJSON(t, ts.URL+"/v1/shard/map", spec, &installed); resp.StatusCode != 200 {
		t.Fatalf("install status %d", resp.StatusCode)
	}
	if installed.Epoch == "" || len(installed.Nodes) != 2 {
		t.Fatalf("install response %+v", installed)
	}

	var got ShardMapResponse
	if resp := getJSON(t, ts.URL+"/v1/shard/map", &got); resp.StatusCode != 200 {
		t.Fatalf("GET after install status %d", resp.StatusCode)
	}
	if got.Epoch != installed.Epoch {
		t.Fatalf("epoch changed between install and read")
	}
	if s.ShardMap() == nil || s.ShardMap().Epoch() != got.Epoch {
		t.Fatal("installed map not visible via accessor")
	}

	// A malformed spec is refused without clobbering the installed map.
	resp = postJSON(t, ts.URL+"/v1/shard/map", shard.Spec{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty spec status %d, want 400", resp.StatusCode)
	}
	if s.ShardMap() == nil || s.ShardMap().Epoch() != got.Epoch {
		t.Fatal("bad spec clobbered the installed map")
	}
}

// The N=1 differential at the server layer: a single-channel shard
// tick must produce byte-identical canonical decision bytes to a
// standalone /v1/tick over the same reports, and its audit log must
// replay the same decision. Both endpoints run one pipeline, so beyond
// the decision bytes the tick counters, the audited request set and
// the audit-to-trace link must agree too — "edge is the one-partition
// shard tick" as a checked statement.
func TestShardTickMatchesStandaloneCanonical(t *testing.T) {
	standaloneDir, shardDir := t.TempDir(), t.TempDir()
	_, plainTS := shardTestServer(t, Config{AuditDir: standaloneDir, TraceSample: 1})
	shardSrv, shardTS := shardTestServer(t, Config{ShardMode: true, NodeID: "n1", AuditDir: shardDir, TraceSample: 1})

	for i := 0; i < 8; i++ {
		rep := validReport("dev-" + string(rune('a'+i)))
		rep.EnergyFrac = 0.1 + 0.1*float64(i%8)
		postJSON(t, plainTS.URL+"/v1/report", rep, nil)
		postJSON(t, shardTS.URL+"/v1/report", rep, nil)
	}

	var plainTick TickResponse
	if resp := postJSON(t, plainTS.URL+"/v1/tick", nil, &plainTick); resp.StatusCode != 200 {
		t.Fatalf("standalone tick status %d", resp.StatusCode)
	}
	var tick ShardTickResponse
	if resp := postJSON(t, shardTS.URL+"/v1/shard/tick", nil, &tick); resp.StatusCode != 200 {
		t.Fatalf("shard tick status %d", resp.StatusCode)
	}
	if len(tick.VCs) != 1 {
		t.Fatalf("single-channel shard tick produced %d VCs", len(tick.VCs))
	}

	readRecord := func(dir string) *audit.Record {
		raw, err := os.ReadFile(filepath.Join(dir, "audit.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		line := bytes.TrimSpace(raw)
		rec, err := audit.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	plain := readRecord(standaloneDir)
	sharded := readRecord(shardDir)

	if string(plain.DecisionCanonical) != string(sharded.DecisionCanonical) {
		t.Fatalf("canonical decisions differ:\nstandalone: %q\nshard:      %q",
			plain.DecisionCanonical, sharded.DecisionCanonical)
	}
	if string(tick.VCs[0].Canonical) != string(sharded.DecisionCanonical) {
		t.Fatal("shard tick response canonical differs from its own audit record")
	}
	if sharded.VC != "slot-0/ch" {
		t.Fatalf("shard audit VC %q, want slot-0/ch", sharded.VC)
	}

	// Everything in TickStats but the wall-clock timings is a function
	// of the decision, so the two ticks must report the same counters.
	untimed := func(st TickStats) TickStats {
		st.CompactSec, st.Phase1Sec, st.Phase2Sec, st.CPUSec, st.DurationSec = 0, 0, 0, 0, 0
		return st
	}
	if got, want := untimed(tick.Sched), untimed(plainTick.Sched); got != want {
		t.Fatalf("tick counters differ:\nstandalone: %+v\nshard:      %+v", want, got)
	}
	if !reflect.DeepEqual(plain.Requests, sharded.Requests) {
		t.Fatalf("audited request sets differ:\nstandalone: %+v\nshard:      %+v", plain.Requests, sharded.Requests)
	}

	// A sampled shard tick links its audit records to the tick's span
	// tree exactly as a standalone tick does.
	if plain.TraceID == "" {
		t.Fatal("standalone audit record has no trace ID")
	}
	var tickTrace, tickNode string
	for _, d := range shardSrv.Tracer().Snapshot() {
		if d.Name == "tick" {
			tickTrace, tickNode = d.TraceID, d.StrAttrs["node"]
		}
	}
	if sharded.TraceID == "" || sharded.TraceID != tickTrace {
		t.Fatalf("shard audit trace ID %q, tick span trace %q", sharded.TraceID, tickTrace)
	}
	// The shared span name does not lose which federation member ticked.
	if tickNode != "n1" {
		t.Fatalf("shard tick span node %q, want n1", tickNode)
	}
}

// The TickStats fold is what makes one partition a special case of
// many: folding a single element into the identity gives that element
// back, and every field but DegradedReason is independent of the order
// the elements arrive in.
func TestTickStatsFold(t *testing.T) {
	elems := []TickStats{
		{Reports: 5, Eligible: 4, Selected: 2, Swaps: 1, Phase1Optimal: true,
			CompactSec: 0.25, Phase1Sec: 0.5, Phase2Sec: 0.125, CPUSec: 1, Phase1Nodes: 40},
		{Reports: 7, Eligible: 7, Selected: 3, Phase1Optimal: false,
			CompactSec: 0.5, Phase1Sec: 0.25, Phase2Sec: 0.5, CPUSec: 2,
			Phase1Nodes: 9, Degraded: true, DegradedReason: "deadline:phase1-greedy"},
		{Reports: 1, Eligible: 1, Selected: 1, Phase1Optimal: true, CPUSec: 0.5,
			Degraded: true, DegradedReason: "deadline:phase2-skipped"},
	}
	fold := func(order ...int) TickStats {
		acc := NewTickStats(9)
		for _, i := range order {
			acc.Fold(elems[i])
		}
		return acc
	}

	for i, e := range elems {
		want := e
		want.Slot = 9 // Slot and DurationSec are the folding tick's own
		if got := fold(i); got != want {
			t.Fatalf("fold of element %d alone:\n got %+v\nwant %+v", i, got, want)
		}
	}

	ref := fold(0, 1, 2)
	if ref.Reports != 13 || ref.Selected != 6 || ref.Phase1Optimal || !ref.Degraded || ref.CPUSec != 3.5 {
		t.Fatalf("fold of all elements %+v", ref)
	}
	for _, order := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		got := fold(order...)
		// The reason is the last degraded element's, by design.
		wantReason := ""
		for _, i := range order {
			if elems[i].Degraded {
				wantReason = elems[i].DegradedReason
			}
		}
		if got.DegradedReason != wantReason {
			t.Fatalf("order %v reason %q, want %q", order, got.DegradedReason, wantReason)
		}
		got.DegradedReason = ref.DegradedReason
		if got != ref {
			t.Fatalf("order %v:\n got %+v\nwant %+v", order, got, ref)
		}
	}
}

// checkShardReplyDevices holds a tick reply's device arrays to the
// shard's own state: the k-th γ and observation count of a VC are those
// of the device on the k-th line of the VC's canonical text.
func checkShardReplyDevices(t *testing.T, s *Server, tick *ShardTickResponse) {
	t.Helper()
	if len(tick.Devices) != len(tick.VCs) {
		t.Fatalf("%d device arrays for %d VCs", len(tick.Devices), len(tick.VCs))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, vc := range tick.VCs {
		d := tick.Devices[i]
		ok := len(d.Observations) == len(d.Gamma) && scheduler.ReadCanonical(vc.Canonical, vc.Degraded, len(d.Gamma),
			func(k int, id []byte, _ bool) {
				est := s.devices[string(id)].estimator
				if d.Gamma[k] != est.Gamma() || d.Observations[k] != est.Observations() {
					t.Errorf("VC %s line %d (%s): reply γ=%v n=%d, device γ=%v n=%d", vc.VC, k, id,
						d.Gamma[k], d.Observations[k], est.Gamma(), est.Observations())
				}
			})
		if !ok {
			t.Fatalf("VC %s: %d devices do not read against its canonical text\n%s", vc.VC, len(d.Gamma), vc.Canonical)
		}
	}
}

// observeSpread gives the i-th of ids i%4 observations, so the devices
// of a VC hold distinct (γ, observations) pairs.
func observeSpread(t *testing.T, url string, ids []string) {
	t.Helper()
	for i, id := range ids {
		for j := 0; j < i%4; j++ {
			if resp := postJSON(t, url+"/v1/observe", ObserveRequest{DeviceID: id, Reduction: 0.1 + 0.05*float64(i+j)}, nil); resp.StatusCode != 200 {
				t.Fatalf("observe %s: status %d", id, resp.StatusCode)
			}
		}
	}
}

// TestShardTickReplyLayout: the reply handleShardTick appends from the
// tick outcome is encoding/json's bytes for the value it decodes to —
// node, epoch and, under a deadline, the degraded reason included — and
// its device arrays are the shard's devices in canonical line order.
func TestShardTickReplyLayout(t *testing.T) {
	for _, deadline := range []time.Duration{0, time.Nanosecond} {
		s, ts := shardTestServer(t, Config{ShardMode: true, NodeID: "n1", SchedDeadline: deadline,
			ExtraStreams: []*video.Video{extraStream(t, "music")}})
		s.InstallShardMap(testShardMap(t, "n1"))
		var ids []string
		for i := 0; i < 9; i++ {
			rep := validReport("dev-" + strconv.Itoa(i))
			rep.EnergyFrac = 0.1 + 0.09*float64(i)
			if i%3 == 0 {
				rep.ChannelID = "music"
			}
			ids = append(ids, rep.DeviceID)
			postJSON(t, ts.URL+"/v1/report", rep, nil)
		}
		postJSON(t, ts.URL+"/v1/shard/tick", nil, nil)
		observeSpread(t, ts.URL, ids)
		for i, id := range ids {
			rep := validReport(id)
			if i%3 == 0 {
				rep.ChannelID = "music"
			}
			postJSON(t, ts.URL+"/v1/report", rep, nil)
		}
		resp, err := http.Post(ts.URL+"/v1/shard/tick", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("shard tick: %d %v", resp.StatusCode, err)
		}
		var tick ShardTickResponse
		if err := json.Unmarshal(body, &tick); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(tick); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("deadline %v: the reply\n%s\nis not encoding/json's\n%s", deadline, body, want.Bytes())
		}
		if tick.Node != "n1" || tick.Epoch == "" || len(tick.VCs) != 2 || (deadline > 0) != (tick.Sched.DegradedReason != "") {
			t.Fatalf("deadline %v: reply %+v", deadline, tick)
		}
		checkShardReplyDevices(t, s, &tick)
	}
}

// TestShardReplyDeviceOrder: a VC whose batch is not in device-ID order
// (a non-nil IDOrder; the daemon sorts its own, so this is built by
// hand) still lists γ and observation counts in canonical line order.
func TestShardReplyDeviceOrder(t *testing.T) {
	s, ts := shardTestServer(t, Config{ShardMode: true, NodeID: "n1"})
	var ids []string
	for i := 0; i < 8; i++ {
		id := "dev-" + strconv.Itoa(i)
		ids = append(ids, id)
		postJSON(t, ts.URL+"/v1/report", validReport(id), nil)
	}
	postJSON(t, ts.URL+"/v1/shard/tick", nil, nil)
	observeSpread(t, ts.URL, ids)
	for _, id := range ids {
		postJSON(t, ts.URL+"/v1/report", validReport(id), nil)
	}

	sched, err := scheduler.New(scheduler.Config{Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	batch := slices.Clone(s.pending)
	slices.Reverse(batch)
	dec, err := sched.Schedule(batch)
	if err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	if dec.IDOrder() == nil {
		s.mu.Unlock()
		t.Fatal("the reversed batch is in ID order")
	}
	out := tickOutcome{stats: NewTickStats(0), vcs: []scheduler.VC{{ID: "ch", Requests: batch}},
		decided: []scheduler.VCDecision{{VC: "ch", Decision: dec}}}
	body, ok := s.appendShardTickLocked(nil, &out)
	s.mu.Unlock()
	if !ok {
		t.Fatal("the reply fell back")
	}
	var tick ShardTickResponse
	if err := json.Unmarshal(body, &tick); err != nil {
		t.Fatal(err)
	}
	checkShardReplyDevices(t, s, &tick)
}

// TestShardReplyOwnStorage pins where a shard's tick reply is written:
// appended into the server's own s.shardReply, which the next tick of
// the same size appends into again — not into a pooled buffer that goes
// back after each request — and the body on the wire is those bytes.
func TestShardReplyOwnStorage(t *testing.T) {
	s, ts := shardTestServer(t, Config{ShardMode: true, NodeID: "n1"})
	var held []byte
	for tick := 0; tick < 2; tick++ {
		for i := 0; i < 8; i++ {
			postJSON(t, ts.URL+"/v1/report", validReport("dev-"+strconv.Itoa(i)), nil)
		}
		resp := postJSON(t, ts.URL+"/v1/shard/tick", nil, nil)
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("tick %d: %d %v", tick, resp.StatusCode, err)
		}
		s.mu.Lock()
		reply := s.shardReply
		s.mu.Unlock()
		if len(reply) == 0 || !bytes.Equal(body, reply) {
			t.Fatalf("tick %d: the reply on the wire (%d B) is not the server's shardReply (%d B)", tick, len(body), len(reply))
		}
		if tick > 0 && len(reply) <= cap(held) && unsafe.SliceData(reply) != unsafe.SliceData(held) {
			t.Fatalf("tick %d: a %d B reply was appended into new storage, not the %d B the tick before left",
				tick, len(reply), cap(held))
		}
		t.Logf("tick %d: %d B, cap %d", tick, len(reply), cap(reply))
		held = reply
	}
}
