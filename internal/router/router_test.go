package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"lpvs/internal/bayes"
	"lpvs/internal/client"
	"lpvs/internal/obs/audit"
	"lpvs/internal/scheduler"
	"lpvs/internal/server"
	"lpvs/internal/shard"
	"lpvs/internal/stats"
	"lpvs/internal/testenv"
	"lpvs/internal/video"
	"lpvs/internal/wire"
)

// testStreams generates the shared channel set every test daemon
// serves: the same seeds everywhere, so any shard (or a standalone
// daemon) solves identical content.
func testStreams(tb testing.TB) (*video.Video, []*video.Video) {
	tb.Helper()
	def, err := video.Generate(stats.NewRNG(1), video.DefaultGenConfig("ch", video.Gaming, 90))
	if err != nil {
		tb.Fatal(err)
	}
	var extras []*video.Video
	for i, id := range []string{"music", "news"} {
		v, err := video.Generate(stats.NewRNG(int64(10+i)), video.DefaultGenConfig(id, video.Sports, 90))
		if err != nil {
			tb.Fatal(err)
		}
		extras = append(extras, v)
	}
	return def, extras
}

// newShard starts one shard-mode daemon serving the shared channel
// set and returns it with its base URL.
func newShard(tb testing.TB, nodeID string, cfg server.Config) (*server.Server, *httptest.Server) {
	tb.Helper()
	def, extras := testStreams(tb)
	cfg.Stream = def
	cfg.ExtraStreams = extras
	cfg.ShardMode = true
	cfg.NodeID = nodeID
	if cfg.ServerStreams == 0 {
		cfg.ServerStreams = -1
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	s, err := server.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

// newRouter builds a router over the given (id, url) members with
// fast-failing forwarding clients.
func newRouter(tb testing.TB, members map[string]string) (*Router, *httptest.Server) {
	tb.Helper()
	nodes := make([]shard.Node, 0, len(members))
	for id, addr := range members {
		nodes = append(nodes, shard.Node{ID: id, Addr: addr})
	}
	m, err := shard.New(nodes, 0)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := New(Config{
		Map:            m,
		DefaultChannel: "ch",
		ClientOptions:  []client.Option{client.WithRetries(1, time.Millisecond)},
	})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	tb.Cleanup(ts.Close)
	return rt, ts
}

func postJSON(tb testing.TB, url string, body any, out any) *http.Response {
	tb.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	return postBody(tb, url, "application/json", buf, out)
}

// postBatch posts reports as one binary batch.
func postBatch(tb testing.TB, url string, reports []server.ReportRequest, out any) *http.Response {
	tb.Helper()
	buf, err := wire.AppendBatch(nil, reports)
	if err != nil {
		tb.Fatal(err)
	}
	return postBody(tb, url, wire.ContentType, buf, out)
}

func postBody(tb testing.TB, url, contentType string, buf []byte, out any) *http.Response {
	tb.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(buf))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			tb.Fatal(err)
		}
	}
	return resp
}

func getJSON(tb testing.TB, url string, out any) *http.Response {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			tb.Fatal(err)
		}
	}
	return resp
}

func decodeEnvelope(tb testing.TB, resp *http.Response) server.ErrorBody {
	tb.Helper()
	var env server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		tb.Fatalf("status %d body is not a v1 envelope: %v", resp.StatusCode, err)
	}
	return env.Error
}

// report builds the i-th corpus instance: deterministic fields so the
// standalone and federated runs see byte-identical inputs.
func report(i int, channel string) server.ReportRequest {
	disp := "OLED"
	if i%3 == 0 {
		disp = "LCD"
	}
	return server.ReportRequest{
		DeviceID:         fmt.Sprintf("dev-%03d", i),
		ChannelID:        channel,
		DisplayType:      disp,
		Width:            1920,
		Height:           1080,
		DiagonalInch:     5.5 + 0.1*float64(i%10),
		Brightness:       0.3 + 0.05*float64(i%10),
		EnergyFrac:       0.05 + float64(i%90)/100,
		BatteryCapacityJ: 30_000 + 1_000*float64(i%20),
		BasePowerW:       0.3 + 0.01*float64(i%7),
	}
}

// readAuditLog decodes every record of the audit log in dir.
func readAuditLog(tb testing.TB, dir string) []*audit.Record {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "audit.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	var recs []*audit.Record
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		rec, err := audit.Decode(line)
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// The headline acceptance test: a router fronting a single shard is
// byte-identical to a standalone daemon over a 210-instance corpus —
// same canonical decision bytes per slot, and both audit logs replay
// cleanly. This is the federation's N=1 differential.
func TestRouterN1DifferentialAgainstStandalone(t *testing.T) {
	standaloneDir, shardDir := t.TempDir(), t.TempDir()

	def, extras := testStreams(t)
	plain, err := server.New(server.Config{
		Stream: def, ExtraStreams: extras, ServerStreams: -1, Lambda: 1,
		AuditDir: standaloneDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	plainTS := httptest.NewServer(plain.Handler())
	defer plainTS.Close()

	_, shardTS := newShard(t, "n1", server.Config{AuditDir: shardDir})
	_, routerTS := newRouter(t, map[string]string{"n1": shardTS.URL})

	const corpus = 210
	const rounds = 3
	for round := 0; round < rounds; round++ {
		batch := make([]server.ReportRequest, 0, corpus)
		for i := 0; i < corpus; i++ {
			r := report(i, "") // all on the default channel: single VC
			r.EnergyFrac = 0.05 + float64((i+37*round)%90)/100
			batch = append(batch, r)
		}
		var plainResp, fedResp server.BatchReportResponse
		if resp := postBatch(t, plainTS.URL+"/v1/report", batch, &plainResp); resp.StatusCode != 200 {
			t.Fatalf("round %d standalone batch status %d", round, resp.StatusCode)
		}
		if resp := postBatch(t, routerTS.URL+"/v1/report", batch, &fedResp); resp.StatusCode != 200 {
			t.Fatalf("round %d federated batch status %d", round, resp.StatusCode)
		}
		if plainResp.Accepted != corpus || fedResp.Accepted != corpus {
			t.Fatalf("round %d accepted %d/%d, want %d", round, plainResp.Accepted, fedResp.Accepted, corpus)
		}

		if resp := postJSON(t, plainTS.URL+"/v1/tick", nil, nil); resp.StatusCode != 200 {
			t.Fatalf("round %d standalone tick status %d", round, resp.StatusCode)
		}
		var tick TickResponse
		if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, &tick); resp.StatusCode != 200 {
			t.Fatalf("round %d router tick status %d", round, resp.StatusCode)
		}
		if tick.ShardErrors != 0 || len(tick.VCs) != 1 || tick.Reports != corpus {
			t.Fatalf("round %d merged tick %+v", round, tick.Shards)
		}
	}

	plainRecs, shardRecs := readAuditLog(t, standaloneDir), readAuditLog(t, shardDir)
	if len(plainRecs) != rounds || len(shardRecs) != rounds {
		t.Fatalf("audit records %d/%d, want %d each", len(plainRecs), len(shardRecs), rounds)
	}
	for i := range plainRecs {
		if string(plainRecs[i].DecisionCanonical) != string(shardRecs[i].DecisionCanonical) {
			t.Fatalf("slot %d canonical decisions diverge between standalone and federated runs", i)
		}
		// Both logs replay: the federated deployment keeps the
		// standalone audit-forensics contract.
		for _, rec := range []*audit.Record{plainRecs[i], shardRecs[i]} {
			res, err := rec.Replay()
			if err != nil {
				t.Fatalf("slot %d replay: %v", i, err)
			}
			if !res.Match {
				t.Fatalf("slot %d replay diverged: %s", i, res.Diff())
			}
		}
	}
}

// The merge must be deterministic under concurrent fan-out: repeated
// federated ticks over two shards and three channels always produce
// VCs sorted by VC ID with stable node attribution. Run with -race
// this doubles as the fan-out data-race check.
func TestRouterTickMergeDeterministicConcurrent(t *testing.T) {
	_, ts1 := newShard(t, "n1", server.Config{})
	_, ts2 := newShard(t, "n2", server.Config{})
	rt, routerTS := newRouter(t, map[string]string{"n1": ts1.URL, "n2": ts2.URL})

	m := rt.Map()
	wantNode := map[string]string{}
	for _, ch := range []string{"ch", "music", "news"} {
		wantNode[ch] = m.Owner(ch).ID
	}

	channels := []string{"", "music", "news"}
	for round := 0; round < 4; round++ {
		batch := make([]server.ReportRequest, 0, 30)
		for i := 0; i < 30; i++ {
			batch = append(batch, report(i, channels[i%3]))
		}
		var br server.BatchReportResponse
		if resp := postBatch(t, routerTS.URL+"/v1/report", batch, &br); resp.StatusCode != 200 || br.Accepted != 30 {
			t.Fatalf("round %d batch accepted %d", round, br.Accepted)
		}
		var tick TickResponse
		if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, &tick); resp.StatusCode != 200 {
			t.Fatalf("round %d tick status %d", round, resp.StatusCode)
		}
		if tick.Slot != round || tick.ShardErrors != 0 {
			t.Fatalf("round %d slot %d errors %d", round, tick.Slot, tick.ShardErrors)
		}
		if len(tick.VCs) != 3 {
			t.Fatalf("round %d merged %d VCs, want 3", round, len(tick.VCs))
		}
		if !sort.SliceIsSorted(tick.VCs, func(a, b int) bool { return tick.VCs[a].VC < tick.VCs[b].VC }) {
			t.Fatalf("round %d VCs not in VC-ID order: %+v", round, tick.VCs)
		}
		for _, vc := range tick.VCs {
			if vc.Node != wantNode[vc.VC] {
				t.Fatalf("round %d channel %q solved by %q, owner is %q", round, vc.VC, vc.Node, wantNode[vc.VC])
			}
			if len(vc.Canonical) == 0 {
				t.Fatalf("round %d channel %q missing canonical bytes", round, vc.VC)
			}
		}
	}
}

// MergeTicks is a pure function: identical inputs give byte-identical
// JSON regardless of how many times it runs.
func TestMergeTicksPure(t *testing.T) {
	nodes := []shard.Node{{ID: "a", Addr: "http://a"}, {ID: "b", Addr: "http://b"}}
	results := []*server.ShardTickResponse{
		{Node: "a", Slot: 4, Reports: 2, Eligible: 2, Selected: 1, VCs: []server.ShardVCDecision{
			{VC: "zeta", Reports: 2, Canonical: []byte("za")},
		}},
		{Node: "b", Slot: 4, Reports: 3, Eligible: 3, Selected: 2, VCs: []server.ShardVCDecision{
			{VC: "alpha", Reports: 1, Canonical: []byte("ab")},
			{VC: "mid", Reports: 2, Canonical: []byte("mb")},
		}},
	}
	errs := make([]error, 2)
	m1 := MergeTicks(7, "ep", nodes, results, errs)
	m2 := MergeTicks(7, "ep", nodes, results, errs)
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("MergeTicks not deterministic")
	}
	got := []string{m1.VCs[0].VC, m1.VCs[1].VC, m1.VCs[2].VC}
	if got[0] != "alpha" || got[1] != "mid" || got[2] != "zeta" {
		t.Fatalf("merged VC order %v", got)
	}
	if m1.Reports != 5 || m1.Selected != 3 {
		t.Fatalf("aggregates %+v", m1)
	}
	b1, _ := json.Marshal(m1)
	b2, _ := json.Marshal(m2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("merged JSON not byte-identical")
	}

	// The router merges into storage an earlier tick left: the result is
	// MergeTicks', and a merge without a VC still leaves VCs nil.
	var reused TickResponse
	mergeTicks(&reused, 1, "old", nodes, []*server.ShardTickResponse{results[1], results[0]}, errs)
	mergeTicks(&reused, 7, "ep", nodes, results, errs)
	if !testenv.BitEqual(reused, m1) {
		t.Fatalf("merged over an earlier merge:\n%+v\nMergeTicks:\n%+v", reused, m1)
	}
	empty := []*server.ShardTickResponse{{Node: "a", Slot: 5}, {Node: "b", Slot: 5}}
	mergeTicks(&reused, 8, "ep", nodes, empty, errs)
	if want := MergeTicks(8, "ep", nodes, empty, errs); reused.VCs != nil || !testenv.BitEqual(reused, want) {
		t.Fatalf("an empty merge over an earlier one:\n%+v\nMergeTicks:\n%+v", reused, want)
	}
}

// Killing one shard degrades the tick instead of failing it; killing
// all shards fails it with shard_unavailable.
func TestRouterKillOneShard(t *testing.T) {
	_, ts1 := newShard(t, "n1", server.Config{})
	_, ts2 := newShard(t, "n2", server.Config{})
	rt, routerTS := newRouter(t, map[string]string{"n1": ts1.URL, "n2": ts2.URL})

	batch := make([]server.ReportRequest, 0, 12)
	for i := 0; i < 12; i++ {
		batch = append(batch, report(i, []string{"", "music", "news"}[i%3]))
	}
	postBatch(t, routerTS.URL+"/v1/report", batch, nil)

	// With both shards up the tick is clean: degradation below is the
	// kill's doing, not the deployment's.
	var healthy TickResponse
	if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, &healthy); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy two-shard tick status %d", resp.StatusCode)
	}
	if healthy.ShardErrors != 0 || healthy.Degraded {
		t.Fatalf("healthy two-shard tick reports errors: %+v", healthy.Shards)
	}
	postBatch(t, routerTS.URL+"/v1/report", batch, nil)

	ts2.Close()
	deadNode := "n2"
	var tick TickResponse
	resp := postJSON(t, routerTS.URL+"/v1/tick", nil, &tick)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick with one dead shard status %d, want 200", resp.StatusCode)
	}
	if !tick.Degraded || tick.ShardErrors != 1 {
		t.Fatalf("degradation not reported: %+v", tick)
	}
	var blamed []string
	for _, sh := range tick.Shards {
		if !sh.OK {
			blamed = append(blamed, sh.Node)
		}
		if sh.Node == deadNode && sh.OK {
			t.Fatalf("dead shard reported OK")
		}
		if sh.Node == deadNode && sh.Code == "" {
			t.Fatalf("dead shard row has no error code")
		}
	}
	if len(blamed) != 1 || blamed[0] != deadNode {
		t.Fatalf("tick blames %v, want exactly [%s]", blamed, deadNode)
	}
	// The surviving shard's channels still got decisions.
	m := rt.Map()
	for _, vc := range tick.VCs {
		if m.Owner(vc.VC).ID == deadNode {
			t.Fatalf("dead shard's channel %q has a decision", vc.VC)
		}
	}

	ts1.Close()
	resp = postJSON(t, routerTS.URL+"/v1/tick", nil, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-dead tick status %d, want 502", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Code != server.CodeShardUnavailable {
		t.Fatalf("all-dead code %q", env.Code)
	}
}

// Router /v1/status never conflates router and shard state: flat
// fields are this process only, shard truth lives in the shards
// sub-objects, and an unreachable shard is reported unreachable. Its
// lifetime counts are the registry's: after a tick, forwards that
// succeed and fail, relayed reads and a reshard, every one equals its
// family's sample in /metrics.
func TestRouterStatusHonest(t *testing.T) {
	// Under these node IDs the hash ring gives "ch" to the live member
	// and "music" and "news" to the dead one.
	_, ts1 := newShard(t, "n2", server.Config{})
	ts2 := httptest.NewServer(http.NotFoundHandler())
	ts2.Close() // dead member
	rt, routerTS := newRouter(t, map[string]string{"n2": ts1.URL, "n3": ts2.URL})

	// Drive one shard tick directly so the shard's slot advances ahead
	// of the router's (slot skew must be visible, not papered over).
	postJSON(t, ts1.URL+"/v1/shard/tick", nil, nil)

	var st StatusResponse
	if resp := getJSON(t, routerTS.URL+"/v1/status", &st); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st.Mode != "router" {
		t.Fatalf("mode %q", st.Mode)
	}
	if st.Slot != 0 || st.Ticks != 0 {
		t.Fatalf("router flat fields leak shard state: slot=%d ticks=%d", st.Slot, st.Ticks)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("shards rows %d", len(st.Shards))
	}
	byNode := map[string]ShardStatus{}
	for _, sh := range st.Shards {
		byNode[sh.Node] = sh
	}
	if !byNode["n2"].OK || byNode["n2"].Status == nil || byNode["n2"].Status.Slot != 1 {
		t.Fatalf("live shard row %+v", byNode["n2"])
	}
	if byNode["n3"].OK || byNode["n3"].Error == "" || byNode["n3"].Status != nil {
		t.Fatalf("dead shard row claims state: %+v", byNode["n3"])
	}

	// Three reports to the live member and one to the dead one, two
	// relayed reads, a tick that reaches one of two members, and a
	// reshard onto the live member alone.
	owned := map[string]string{}
	for _, ch := range []string{"ch", "music", "news"} {
		owned[rt.Map().Owner(ch).ID] = ch
	}
	if owned["n2"] == "" || owned["n3"] == "" {
		t.Fatalf("channel owners %v: the test needs a channel on each member", owned)
	}
	live := []server.ReportRequest{report(0, owned["n2"]), report(1, owned["n2"]), report(2, owned["n2"])}
	if resp := postBatch(t, routerTS.URL+"/v1/report", live, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("live batch: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, routerTS.URL+"/v1/report", report(3, owned["n3"]), nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("report to the dead member: status %d, want 502", resp.StatusCode)
	}
	for _, path := range []string{"/v1/chunk?index=0&device=", "/v1/explain?device="} {
		getJSON(t, routerTS.URL+path+live[0].DeviceID, nil)
	}
	postJSON(t, routerTS.URL+"/v1/tick", nil, nil)
	next, err := shard.New([]shard.Node{{ID: "n2", Addr: ts1.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, routerTS.URL+"/v1/shard/map", next.Spec(), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reshard: status %d", resp.StatusCode)
	}

	if resp := getJSON(t, routerTS.URL+"/v1/status", &st); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	text := scrapeText(t, routerTS.URL)
	for _, c := range []struct {
		family string
		status uint64
		want   uint64
	}{
		{"lpvs_router_ticks_total", st.Ticks, 1},
		{"lpvs_shard_tick_errors_total", st.TickShardErrors, 1},
		{"lpvs_router_reports_forwarded_total", st.ReportsForwarded, 4},
		{"lpvs_router_forward_errors_total", st.ForwardErrors, 1},
		{"lpvs_router_proxied_total", st.ProxiedRequests, 2},
		{"lpvs_router_reshards_total", st.Reshards, 1},
	} {
		if got := familySum(text, c.family); got != float64(c.status) || c.status != c.want {
			t.Errorf("%s = %v, /v1/status says %d, want %d", c.family, got, c.status, c.want)
		}
	}
}

// scrapeText returns base's /metrics exposition.
func scrapeText(tb testing.TB, base string) string {
	tb.Helper()
	resp := getJSON(tb, base+"/metrics", nil)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

// familySum adds up the samples of one counter or gauge family across
// its series (a per-node family's total).
func familySum(text, family string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err == nil {
			sum += v
		}
	}
	return sum
}

// Reports partition to their channel owners in either framing, batch
// results keep caller-visible indices, and per-device reads proxy to
// the right shard afterwards.
func TestRouterReportPartitionAndProxy(t *testing.T) {
	// Under these node IDs the hash ring splits the test channels ("ch"
	// to n2, "music" and "news" to n3), so every batch below really is
	// partitioned.
	_, ts1 := newShard(t, "n2", server.Config{})
	_, ts2 := newShard(t, "n3", server.Config{})
	rt, routerTS := newRouter(t, map[string]string{"n2": ts1.URL, "n3": ts2.URL})
	if rt.Map().Owner("ch").ID == rt.Map().Owner("music").ID {
		t.Fatal("test channels share one owner; pick node IDs that split them")
	}

	// Single JSON report.
	single := report(500, "music")
	var rep server.ReportResponse
	if resp := postJSON(t, routerTS.URL+"/v1/report", single, &rep); resp.StatusCode != 200 || !rep.Accepted {
		t.Fatalf("single forward failed: %d %+v", resp.StatusCode, rep)
	}
	owner := rt.Map().Owner("music").ID
	ownerTS := map[string]*httptest.Server{"n2": ts1, "n3": ts2}[owner]
	var ownSt server.StatusResponse
	getJSON(t, ownerTS.URL+"/v1/status", &ownSt)
	if ownSt.Devices != 1 {
		t.Fatalf("owner %s has %d devices after single forward", owner, ownSt.Devices)
	}

	// Binary batch with one bad record: index remapping must surface the
	// rejection under its original position.
	batch := make([]server.ReportRequest, 0, 9)
	for i := 0; i < 9; i++ {
		batch = append(batch, report(i, []string{"", "music", "news"}[i%3]))
	}
	batch[4].Brightness = 7 // rejected by the shard
	var br server.BatchReportResponse
	if resp := postBatch(t, routerTS.URL+"/v1/report", batch, &br); resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if br.Accepted != 8 || br.Rejected != 1 {
		t.Fatalf("batch accepted %d rejected %d", br.Accepted, br.Rejected)
	}
	if len(br.Results) != 1 || br.Results[0].Index != 4 || br.Results[0].DeviceID != batch[4].DeviceID || br.Results[0].Accepted {
		t.Fatalf("batch results %+v, want the one rejection under index 4", br.Results)
	}

	// Binary wire batch through the router.
	wbatch := []server.ReportRequest{report(100, ""), report(101, "music"), report(102, "news")}
	buf, err := wire.AppendBatch(nil, wbatch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerTS.URL+"/v1/report", wire.ContentType, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wbr server.BatchReportResponse
	if err := json.NewDecoder(resp.Body).Decode(&wbr); err != nil || wbr.Accepted != 3 {
		t.Fatalf("wire batch accepted %d (err %v)", wbr.Accepted, err)
	}

	// A binary batch of one report: it reaches the owner, and the router
	// answers the daemon's bytes.
	wbuf, err := wire.AppendBatch(nil, []server.ReportRequest{report(600, "music")})
	if err != nil {
		t.Fatal(err)
	}
	postRaw := func(name, url string) string {
		resp, err := http.Post(url+"/v1/report", wire.ContentType, bytes.NewReader(wbuf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("binary batch of one via %s: status %d: %s", name, resp.StatusCode, body)
		}
		return string(body)
	}
	getJSON(t, ownerTS.URL+"/v1/status", &ownSt)
	before := ownSt.Devices
	viaRouter := postRaw("router", routerTS.URL)
	getJSON(t, ownerTS.URL+"/v1/status", &ownSt)
	if ownSt.Devices != before+1 {
		t.Fatalf("owner %s went from %d to %d devices on the binary batch-of-one forward", owner, before, ownSt.Devices)
	}
	if direct := postRaw("owner", ownerTS.URL); viaRouter != direct {
		t.Fatalf("binary batch of one: router answered %q, the owner itself %q", viaRouter, direct)
	}

	// Tick, then proxy per-device reads and an observation.
	var tick TickResponse
	if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, &tick); resp.StatusCode != 200 {
		t.Fatalf("tick status %d", resp.StatusCode)
	}
	var dec server.DecisionResponse
	if resp := getJSON(t, routerTS.URL+"/v1/decision?device="+single.DeviceID, &dec); resp.StatusCode != 200 {
		t.Fatalf("proxied decision status %d", resp.StatusCode)
	}
	if dec.DeviceID != single.DeviceID {
		t.Fatalf("proxied decision for %q", dec.DeviceID)
	}
	var pl server.PlaylistResponse
	if resp := getJSON(t, routerTS.URL+"/v1/playlist?device="+batch[0].DeviceID, &pl); resp.StatusCode != 200 {
		t.Fatalf("proxied playlist status %d", resp.StatusCode)
	}
	var ob server.ObserveResponse
	if resp := postJSON(t, routerTS.URL+"/v1/observe",
		server.ObserveRequest{DeviceID: single.DeviceID, Reduction: 0.2}, &ob); resp.StatusCode != 200 {
		t.Fatalf("proxied observe status %d", resp.StatusCode)
	}
	if ob.Observations == 0 {
		t.Fatalf("observation not folded: %+v", ob)
	}

	// Unknown device probes every shard, then answers unknown_device.
	resp2 := getJSON(t, routerTS.URL+"/v1/decision?device=ghost", nil)
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost status %d", resp2.StatusCode)
	}
	if env := decodeEnvelope(t, resp2); env.Code != server.CodeUnknownDevice {
		t.Fatalf("ghost code %q", env.Code)
	}

	// With music's owner down, a single report for it is a retryable 502
	// shard_unavailable, and a mixed-owner binary batch still accounts
	// for every record: the dead shard's under their original indices.
	ownerTS.Close()
	resp3 := postJSON(t, routerTS.URL+"/v1/report", report(501, "music"), nil)
	if resp3.StatusCode != http.StatusBadGateway {
		t.Fatalf("single report to a dead owner: status %d, want 502", resp3.StatusCode)
	}
	if env := decodeEnvelope(t, resp3); env.Code != server.CodeShardUnavailable || !env.Retryable {
		t.Fatalf("single report to a dead owner: envelope %+v", env)
	}
	mixed := make([]server.ReportRequest, 0, 9)
	var wantDead []int
	for i := 0; i < 9; i++ {
		ch := []string{"ch", "music", "news"}[i%3]
		if rt.Map().Owner(ch).ID == owner {
			wantDead = append(wantDead, i)
		}
		mixed = append(mixed, report(200+i, ch))
	}
	mbuf, err := wire.AppendBatch(nil, mixed)
	if err != nil {
		t.Fatal(err)
	}
	resp4, err := http.Post(routerTS.URL+"/v1/report", wire.ContentType, bytes.NewReader(mbuf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var mbr server.BatchReportResponse
	if err := json.NewDecoder(resp4.Body).Decode(&mbr); err != nil || resp4.StatusCode != 200 {
		t.Fatalf("mixed batch: status %d (err %v)", resp4.StatusCode, err)
	}
	if mbr.Accepted != len(mixed)-len(wantDead) || mbr.Rejected != len(wantDead) || len(mbr.Results) != len(wantDead) {
		t.Fatalf("mixed batch: accepted %d rejected %d rows %d, want %d records of the dead shard rejected",
			mbr.Accepted, mbr.Rejected, len(mbr.Results), len(wantDead))
	}
	for k, res := range mbr.Results {
		i := wantDead[k]
		if res.Index != i || res.DeviceID != mixed[i].DeviceID || res.Error == nil ||
			res.Error.Code != server.CodeShardUnavailable || !res.Error.Retryable {
			t.Fatalf("mixed batch row %d: %+v, want record %d rejected shard_unavailable", k, res, i)
		}
	}
}

// Installing a new map on the router moves exactly the consistent-hash
// delta and pushes the map to every member so ticks keep flowing under
// the new epoch. No device state moves with a channel: its first tick
// on the new owner is a cold solve of the reports it received, from
// the gamma prior, byte-equal to scheduler.DecideSerial.
func TestRouterReshard(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	_, ts1 := newShard(t, "n1", server.Config{AuditDir: dir1})
	_, ts2 := newShard(t, "n2", server.Config{AuditDir: dir2})
	rt, routerTS := newRouter(t, map[string]string{"n1": ts1.URL})
	channels := []string{"", "music", "news"}

	// Two slots of every channel on n1, each followed by observations
	// that move the devices' gamma off the prior there.
	for round := 0; round < 2; round++ {
		batch := make([]server.ReportRequest, 0, 12)
		for i := 0; i < 12; i++ {
			batch = append(batch, report(i, channels[i%3]))
		}
		postBatch(t, routerTS.URL+"/v1/report", batch, nil)
		if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, nil); resp.StatusCode != 200 {
			t.Fatalf("warmup tick %d failed", round)
		}
		for i := 0; i < 12; i++ {
			obs := server.ObserveRequest{DeviceID: report(i, "").DeviceID, Reduction: 0.3 + 0.01*float64(i)}
			if resp := postJSON(t, routerTS.URL+"/v1/observe", obs, nil); resp.StatusCode != 200 {
				t.Fatalf("warmup observe %d: status %d", i, resp.StatusCode)
			}
		}
	}

	old := rt.Map()
	next, err := shard.New([]shard.Node{
		{ID: "n1", Addr: ts1.URL}, {ID: "n2", Addr: ts2.URL},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMoved := shard.Moved(old, next, []string{"ch", "music", "news"})
	if len(wantMoved) == 0 {
		t.Fatal("the new map moves no channel; the test needs one that does")
	}

	var rr ReshardResponse
	if resp := postJSON(t, routerTS.URL+"/v1/shard/map", next.Spec(), &rr); resp.StatusCode != 200 {
		t.Fatalf("reshard status %d", resp.StatusCode)
	}
	if rr.Epoch != next.Epoch() {
		t.Fatalf("installed epoch %s, want %s", rr.Epoch, next.Epoch())
	}
	sort.Strings(rr.Moved)
	if !reflect.DeepEqual(rr.Moved, wantMoved) {
		t.Fatalf("moved %v, want %v", rr.Moved, wantMoved)
	}

	// Both members now hold the new epoch.
	for _, ts := range []*httptest.Server{ts1, ts2} {
		var mr server.ShardMapResponse
		if resp := getJSON(t, ts.URL+"/v1/shard/map", &mr); resp.StatusCode != 200 {
			t.Fatalf("member map status %d", resp.StatusCode)
		}
		if mr.Epoch != next.Epoch() {
			t.Fatalf("member epoch %s, want %s", mr.Epoch, next.Epoch())
		}
	}

	// Ticks keep flowing under the new map, channels now solved by
	// their new owners.
	batch := make([]server.ReportRequest, 0, 12)
	for i := 0; i < 12; i++ {
		batch = append(batch, report(i, channels[i%3]))
	}
	postBatch(t, routerTS.URL+"/v1/report", batch, nil)
	var tick TickResponse
	if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, &tick); resp.StatusCode != 200 {
		t.Fatalf("post-reshard tick status %d", resp.StatusCode)
	}
	if tick.ShardErrors != 0 || len(tick.VCs) != 3 {
		t.Fatalf("post-reshard tick %+v", tick.Shards)
	}
	canonical := map[string][]byte{}
	for _, vc := range tick.VCs {
		if vc.Node != next.Owner(vc.VC).ID {
			t.Fatalf("channel %q solved by %q after reshard, owner %q", vc.VC, vc.Node, next.Owner(vc.VC).ID)
		}
		canonical[vc.VC] = vc.Canonical
	}

	// Each moved channel's tick, from the new owner's audit record of
	// it: every device at the prior, and the decision a cold serial
	// solve of those reports makes.
	dirs := map[string]string{"n1": dir1, "n2": dir2}
	prior := bayes.NewGammaEstimator().Gamma()
	for _, ch := range wantMoved {
		var rec *audit.Record
		for _, r := range readAuditLog(t, dirs[next.Owner(ch).ID]) {
			if strings.HasSuffix(r.VC, "/"+ch) {
				rec = r
			}
		}
		if rec == nil {
			t.Fatalf("new owner %s logged no tick of channel %q", next.Owner(ch).ID, ch)
		}
		reqs, err := rec.SchedulerRequests()
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range reqs {
			if req.Gamma != prior {
				t.Fatalf("channel %q device %s: gamma %v on its new owner, want the prior %v", ch, req.DeviceID, req.Gamma, prior)
			}
		}
		cfg, err := rec.Config.SchedulerConfig()
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduler.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := scheduler.DecideSerial(sched, []scheduler.VC{{ID: ch, Requests: reqs}})
		if err != nil {
			t.Fatal(err)
		}
		if want := cold.VCs[0].Decision.Canonical(); !bytes.Equal(canonical[ch], want) {
			t.Fatalf("channel %q: first tick on its new owner differs from a cold serial solve:\n got %s\nwant %s", ch, canonical[ch], want)
		}
	}
}

// A shard holding a stale map 409s the tick; the router pushes its
// map and retries within the same fan-out, so one round-trip of skew
// self-heals without a failed tick.
func TestRouterEpochMismatchSelfHeals(t *testing.T) {
	_, ts1 := newShard(t, "n1", server.Config{})
	rt, routerTS := newRouter(t, map[string]string{"n1": ts1.URL})

	// Install a different-epoch map directly on the shard (fewer
	// replicas → different epoch, same membership).
	stale, err := shard.New([]shard.Node{{ID: "n1", Addr: ts1.URL}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, ts1.URL+"/v1/shard/map", stale.Spec(), nil); resp.StatusCode != 200 {
		t.Fatalf("stale install status %d", resp.StatusCode)
	}

	postJSON(t, routerTS.URL+"/v1/report", report(1, ""), nil)
	var tick TickResponse
	if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, &tick); resp.StatusCode != 200 {
		t.Fatalf("tick status %d, want self-healed 200", resp.StatusCode)
	}
	if tick.ShardErrors != 0 {
		t.Fatalf("tick errors %d after self-heal", tick.ShardErrors)
	}
	var mr server.ShardMapResponse
	getJSON(t, ts1.URL+"/v1/shard/map", &mr)
	if mr.Epoch != rt.Map().Epoch() {
		t.Fatalf("shard epoch %s not converged to router's %s", mr.Epoch, rt.Map().Epoch())
	}
}

// The router speaks the same routing contract as the daemon: 405 +
// Allow on known paths, envelope 404 elsewhere, /healthz and /readyz
// live.
func TestRouterRoutingContract(t *testing.T) {
	_, ts1 := newShard(t, "n1", server.Config{})
	rt, routerTS := newRouter(t, map[string]string{"n1": ts1.URL})

	resp := getJSON(t, routerTS.URL+"/v1/tick", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tick status %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow == "" {
		t.Fatal("405 without Allow header")
	}
	if env := decodeEnvelope(t, resp); env.Code != server.CodeMethodNotAllowed {
		t.Fatalf("405 code %q", env.Code)
	}

	resp = getJSON(t, routerTS.URL+"/v1/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route status %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Code != server.CodeNotFound {
		t.Fatalf("404 code %q", env.Code)
	}

	if resp := getJSON(t, routerTS.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	if resp := getJSON(t, routerTS.URL+"/readyz", nil); resp.StatusCode != 200 {
		t.Fatalf("readyz %d", resp.StatusCode)
	}
	rt.SetReady(false)
	if resp := getJSON(t, routerTS.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz %d", resp.StatusCode)
	}

	var sr server.SLOResponse
	if resp := getJSON(t, routerTS.URL+"/v1/slo", &sr); resp.StatusCode != 200 || len(sr.Objectives) == 0 {
		t.Fatalf("slo status %d objectives %d", resp.StatusCode, len(sr.Objectives))
	}
	resp = getJSON(t, routerTS.URL+"/metrics", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("metrics %d", resp.StatusCode)
	}
}

// The merged fleet view concatenates the shards' channel rows and
// prefixes stream keys with their owning node.
func TestRouterFleetMerge(t *testing.T) {
	_, ts1 := newShard(t, "n1", server.Config{})
	_, ts2 := newShard(t, "n2", server.Config{})
	_, routerTS := newRouter(t, map[string]string{"n1": ts1.URL, "n2": ts2.URL})

	batch := make([]server.ReportRequest, 0, 12)
	for i := 0; i < 12; i++ {
		batch = append(batch, report(i, []string{"", "music", "news"}[i%3]))
	}
	postBatch(t, routerTS.URL+"/v1/report", batch, nil)
	postJSON(t, routerTS.URL+"/v1/tick", nil, nil)

	var fl server.FleetResponse
	if resp := getJSON(t, routerTS.URL+"/v1/fleet", &fl); resp.StatusCode != 200 {
		t.Fatalf("fleet status %d", resp.StatusCode)
	}
	seen := map[string]int{}
	for _, ch := range fl.Channels {
		seen[ch.Channel] += ch.Devices
	}
	if seen["ch"] != 4 || seen["music"] != 4 || seen["news"] != 4 {
		t.Fatalf("merged channel devices %v", seen)
	}
	for _, vs := range fl.Streams {
		if !bytes.ContainsRune([]byte(vs.Key), '/') {
			t.Fatalf("stream key %q not node-prefixed", vs.Key)
		}
	}
}

// Concurrent router ticks each work in their own tick storage: every
// merged reply, read while other ticks fill and merge theirs, is
// encoding/json's bytes for the value it decodes to, in VC-ID order,
// with a readable canonical text per VC. Run with -race this is the
// check that no two ticks share a tickSpace.
func TestRouterConcurrentTicks(t *testing.T) {
	_, ts1 := newShard(t, "n1", server.Config{})
	_, ts2 := newShard(t, "n2", server.Config{})
	_, routerTS := newRouter(t, map[string]string{"n1": ts1.URL, "n2": ts2.URL})
	channels := []string{"", "music", "news"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				batch := make([]server.ReportRequest, 0, 12)
				for i := 0; i < 12; i++ {
					batch = append(batch, report(100*g+i, channels[(i+round)%3]))
				}
				body, err := wire.AppendBatch(nil, batch)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(routerTS.URL+"/v1/report", wire.ContentType, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				resp, err = http.Post(routerTS.URL+"/v1/tick", "application/json", nil)
				if err != nil {
					t.Error(err)
					return
				}
				reply, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("tick: %d %v", resp.StatusCode, err)
					return
				}
				var tick TickResponse
				if err := json.Unmarshal(reply, &tick); err != nil {
					t.Errorf("tick reply %q: %v", reply, err)
					return
				}
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(tick); err != nil || !bytes.Equal(reply, want.Bytes()) {
					t.Errorf("tick reply\n%s\nis not encoding/json's\n%s", reply, want.Bytes())
					return
				}
				for i, vc := range tick.VCs {
					if _, _, ok := scheduler.ParseCanonicalHeader(string(vc.Canonical)); !ok || i > 0 && tick.VCs[i-1].VC >= vc.VC {
						t.Errorf("VC %d of %+v", i, tick.VCs)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTickBodyOwnStorage pins where the router writes a merged tick
// reply: appended into its tickSpace's body, which the next tick of the
// same size appends into again — not into a pooled buffer that goes
// back after each request — and the body written is those bytes. The
// handler is called directly, so its deferred Put has run when it
// returns, and ticks run one at a time: the free list's top is the
// space the last tick used.
func TestTickBodyOwnStorage(t *testing.T) {
	_, shardTS := newShard(t, "a", server.Config{})
	rt, routerTS := newRouter(t, map[string]string{"a": shardTS.URL})
	var held []byte
	for tick := 0; tick < 2; tick++ {
		for i := 0; i < 8; i++ {
			postJSON(t, routerTS.URL+"/v1/report", report(i, "ch"), nil)
		}
		rec := httptest.NewRecorder()
		rt.handleTick(rec, httptest.NewRequest(http.MethodPost, "/v1/tick", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("tick %d: %d %s", tick, rec.Code, rec.Body.Bytes())
		}
		ts := rt.tickFree.Get()
		if ts == nil {
			t.Fatalf("tick %d: the tick's space was not put back", tick)
		}
		reply := ts.body
		rt.tickFree.Put(ts)
		if len(reply) == 0 || !bytes.Equal(rec.Body.Bytes(), reply) {
			t.Fatalf("tick %d: the reply written (%d B) is not the tick space's body (%d B)", tick, rec.Body.Len(), len(reply))
		}
		if tick > 0 && len(reply) <= cap(held) && unsafe.SliceData(reply) != unsafe.SliceData(held) {
			t.Fatalf("tick %d: a %d B reply was appended into new storage, not the %d B the tick before left",
				tick, len(reply), cap(held))
		}
		t.Logf("tick %d: %d B, cap %d", tick, len(reply), cap(reply))
		held = reply
	}
}
