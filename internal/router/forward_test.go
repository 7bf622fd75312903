package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"lpvs/internal/client"
	"lpvs/internal/server"
	"lpvs/internal/shard"
	"lpvs/internal/testenv"
	"lpvs/internal/wire"
)

// This file tests the report forward's reused workspace (forward.go,
// DESIGN.md §18): what a shard receives and what a device is answered
// must not depend on what the workspace carried before.

// frame is one /v1/report body as a shard received it.
type frame struct{ node, contentType, body string }

// frameLog counts the report frames a set of shards received.
type frameLog struct {
	mu     sync.Mutex
	frames map[frame]int
}

// wrap records every POST /v1/report reaching h, then serves it.
func (l *frameLog) wrap(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "POST" && r.URL.Path == "/v1/report" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			l.mu.Lock()
			l.frames[frame{node, r.Header.Get("Content-Type"), string(body)}]++
			l.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	})
}

// forwardMsg is one device-facing report message of the differential.
type forwardMsg struct {
	name   string
	binary bool // a binary batch, or else one JSON report
	body   []byte
	// reports is what the body decodes to; nil for a body the router
	// must refuse before forwarding anything.
	reports []server.ReportRequest
}

func (m *forwardMsg) contentType() string {
	if m.binary {
		return wire.ContentType
	}
	return "application/json"
}

// newForwardMsg frames reports in the given framing.
func newForwardMsg(tb testing.TB, name string, binary bool, reports []server.ReportRequest) forwardMsg {
	tb.Helper()
	m := forwardMsg{name: name, binary: binary, reports: reports}
	m.body = frameBody(tb, binary, reports)
	return m
}

// frameBody is the reference framing: the package encoders from nil.
// Without binary it frames reports[0] alone.
func frameBody(tb testing.TB, binary bool, reports []server.ReportRequest) []byte {
	tb.Helper()
	var body []byte
	var err error
	if binary {
		body, err = wire.AppendBatch(nil, reports)
	} else {
		body, err = json.Marshal(&reports[0])
	}
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// wantFrames lists the frames msg must reach the shards as: per owner,
// its records in message order, framed from nothing.
func wantFrames(tb testing.TB, m *shard.Map, msg *forwardMsg) []frame {
	tb.Helper()
	byNode := map[string][]server.ReportRequest{}
	for _, r := range msg.reports {
		ch := r.ChannelID
		if ch == "" {
			ch = "ch"
		}
		node := m.Owner(ch).ID
		byNode[node] = append(byNode[node], r)
	}
	var out []frame
	for node, share := range byNode {
		out = append(out, frame{node, msg.contentType(), string(frameBody(tb, msg.binary, share))})
	}
	return out
}

// post sends msg to base and returns status and body.
func (m *forwardMsg) post(base string) (int, []byte, error) {
	resp, err := http.Post(base+"/v1/report", m.contentType(), bytes.NewReader(m.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// forwardSequence is ordered to expose stale workspace state: each
// message is smaller than, or of another framing than, the one whose
// records, indices, bodies and rejection rows it inherits.
func forwardSequence(tb testing.TB) []forwardMsg {
	tb.Helper()
	channels := []string{"", "music", "news"}
	big := make([]server.ReportRequest, 1600)
	for i := range big {
		big[i] = report(i, channels[(i/200)%3]) // 8 runs of 200, as a fleet reports
	}
	mixed := make([]server.ReportRequest, 9)
	for i := range mixed {
		mixed[i] = report(2000+i, channels[i%3]) // every run one record long
	}
	noChannel := []server.ReportRequest{report(3000, "music"), report(3001, ""), report(3002, ""), report(3003, "news")}
	plasma := report(4000, "news")
	plasma.DisplayType = "PLASMA" // refused by the shard, no wire encoding
	stray := []server.ReportRequest{report(5000, "news"), report(5001, "no-such-channel"), report(5002, ""), report(5003, "music")}

	seq := []forwardMsg{
		newForwardMsg(tb, "binary batch of 1,600", true, big),
		newForwardMsg(tb, "binary batch of 3", true, []server.ReportRequest{report(100, "news"), report(101, ""), report(102, "music")}),
		newForwardMsg(tb, "binary batch of one-record runs", true, mixed),
		newForwardMsg(tb, "JSON single", false, []server.ReportRequest{report(500, "music")}),
		newForwardMsg(tb, "binary batch with empty channel_id", true, noChannel),
		newForwardMsg(tb, "JSON single the shard refuses", false, []server.ReportRequest{plasma}),
		newForwardMsg(tb, "binary batch with a rejected record", true, stray),
	}
	// A binary batch cut mid-record: the decode fails with the scratch
	// half written, and nothing may be forwarded.
	cut := seq[1].body[:len(seq[1].body)-5]
	seq = append(seq, forwardMsg{name: "truncated binary batch", binary: true, body: cut})
	return seq
}

// TestForwardFramesIdentical is the frame-identity differential. One
// router over two recording shards serves forwardSequence, first in
// order and then from 8 concurrent posters (run it under -race). Every
// body a shard receives must be what the package encoders frame from
// nil for that owner's share — so a reused body buffer, record slice or
// index slice never shows — and every answer a device gets must be,
// byte for byte, what a standalone daemon answers the same message.
func TestForwardFramesIdentical(t *testing.T) {
	log := &frameLog{frames: map[frame]int{}}
	members := map[string]string{}
	for _, id := range []string{"n2", "n3"} { // "ch" -> n2, "music" and "news" -> n3
		s, _ := newShard(t, id, server.Config{})
		ts := httptest.NewServer(log.wrap(id, s.Handler()))
		t.Cleanup(ts.Close)
		members[id] = ts.URL
	}
	rt, routerTS := newRouter(t, members)
	if rt.Map().Owner("ch").ID == rt.Map().Owner("music").ID {
		t.Fatal("test channels share one owner; pick node IDs that split them")
	}
	def, extras := testStreams(t)
	plain, err := server.New(server.Config{Stream: def, ExtraStreams: extras, ServerStreams: -1, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	plainTS := httptest.NewServer(plain.Handler())
	defer plainTS.Close()

	seq := forwardSequence(t)
	type answer struct {
		status int
		body   []byte
	}
	want := make([]answer, len(seq))
	for i := range seq {
		status, body, err := seq[i].post(plainTS.URL)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer{status, body}
	}
	if want[0].status != 200 || want[len(seq)-1].status != 400 {
		t.Fatalf("standalone answers %d to the big batch and %d to the truncated one, want 200 and 400",
			want[0].status, want[len(seq)-1].status)
	}

	const posters, rounds = 8, 3
	pass := func(who string) {
		for i := range seq {
			status, body, err := seq[i].post(routerTS.URL)
			if err != nil {
				t.Errorf("%s: %s: %v", who, seq[i].name, err)
				return
			}
			if status != want[i].status || !bytes.Equal(body, want[i].body) {
				t.Errorf("%s: %s: router answered %d %q, a standalone daemon %d %q",
					who, seq[i].name, status, clip(body), want[i].status, clip(want[i].body))
			}
		}
	}
	pass("in order")
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				pass(fmt.Sprintf("poster %d round %d", p, round))
			}
		}(p)
	}
	wg.Wait()

	const passes = 1 + posters*rounds
	expected := map[frame]int{}
	for i := range seq {
		for _, f := range wantFrames(t, rt.Map(), &seq[i]) {
			expected[f] += passes
		}
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	for f, n := range log.frames {
		if expected[f] != n {
			t.Errorf("shard %s received %d times (want %d) a %s frame of %d bytes: %q",
				f.node, n, expected[f], f.contentType, len(f.body), clip([]byte(f.body)))
		}
	}
	for f, n := range expected {
		if log.frames[f] == 0 {
			t.Errorf("shard %s never received (want %d times) a %s frame of %d bytes", f.node, n, f.contentType, len(f.body))
		}
	}
}

// clip shortens a body for a failure message.
func clip(b []byte) []byte {
	if len(b) > 240 {
		return append(bytes.Clone(b[:240]), "..."...)
	}
	return b
}

// TestForwardFaultRowsAfterReuse covers the fault path through a reused
// workspace. With one shard down, a batch's records for it come back as
// shard_unavailable rows; the rows of the second and third batch
// through the same workspace must name their own Index and DeviceID,
// and a response must not alias workspace memory: the second response's
// body is read only after a different batch has been served.
func TestForwardFaultRowsAfterReuse(t *testing.T) {
	_, ts2 := newShard(t, "n2", server.Config{})
	_, ts3 := newShard(t, "n3", server.Config{})
	rt, routerTS := newRouter(t, map[string]string{"n2": ts2.URL, "n3": ts3.URL})
	dead := rt.Map().Owner("music").ID
	if dead != "n3" || rt.Map().Owner("ch").ID == dead {
		t.Fatal("test channels share one owner; pick node IDs that split them")
	}
	ts3.Close()

	channels := []string{"", "music", "news"}
	batchOf := func(n, base int) []server.ReportRequest {
		out := make([]server.ReportRequest, n)
		for i := range out {
			out[i] = report(base+i, channels[(i/4)%3])
		}
		return out
	}
	send := func(reports []server.ReportRequest) *http.Response {
		resp, err := http.Post(routerTS.URL+"/v1/report", wire.ContentType, bytes.NewReader(frameBody(t, true, reports)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	check := func(name string, reports []server.ReportRequest, resp *http.Response) {
		t.Helper()
		var got server.BatchReportResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: status %d, decode %v", name, resp.StatusCode, err)
		}
		var lost []int
		for i, r := range reports {
			if r.ChannelID != "" {
				lost = append(lost, i)
			}
		}
		if got.Rejected != len(lost) || got.Accepted != len(reports)-len(lost) || len(got.Results) != len(lost) {
			t.Fatalf("%s: accepted %d, rejected %d in %d rows, want %d and %d",
				name, got.Accepted, got.Rejected, len(got.Results), len(reports)-len(lost), len(lost))
		}
		for k, row := range got.Results {
			i := lost[k]
			if row.Index != i || row.DeviceID != reports[i].DeviceID || row.Error == nil ||
				row.Error.Code != server.CodeShardUnavailable || !row.Error.Retryable || row.Error.Message == "" {
				t.Fatalf("%s: row %d is %+v (error %+v), want index %d of device %s refused shard_unavailable",
					name, k, row, row.Error, i, reports[i].DeviceID)
			}
		}
	}

	first, second, third := batchOf(1600, 0), batchOf(40, 7000), batchOf(7, 9000)
	check("first batch", first, send(first))
	held := send(second) // a few KB: the handler has returned and its workspace is free
	check("third batch, served before the second's answer is read", third, send(third))
	check("second batch, read after the third was served", second, held)
	if got := rt.mForwardErrors.Value(); got == 0 {
		t.Fatal("no forward error counted with a shard down")
	}
}

// handlerTransport serves a forwarding client's requests by calling the
// shard's handler in-process: no socket, so what a forward allocates is
// the router's and the shard's own.
type handlerTransport struct{ h http.Handler }

func (tr handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	tr.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// forwardFixture is an N=2 router over in-process shards and a poster
// of one binary batch of n records, grouped by channel as a fleet
// reports, through rt.handleReport.
func forwardFixture(tb testing.TB, n int) (post func()) {
	tb.Helper()
	nodes := make([]shard.Node, 0, 2)
	byHost := map[string]http.Handler{}
	for _, id := range []string{"n2", "n3"} {
		s, _ := newShard(tb, id, server.Config{})
		nodes = append(nodes, shard.Node{ID: id, Addr: "http://" + id})
		byHost[id] = s.Handler()
	}
	m, err := shard.New(nodes, 0)
	if err != nil {
		tb.Fatal(err)
	}
	dispatch := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { byHost[r.Host].ServeHTTP(w, r) })
	rt, err := New(Config{Map: m, DefaultChannel: "ch",
		ClientOptions: []client.Option{client.WithHTTPClient(&http.Client{Transport: handlerTransport{dispatch}})}})
	if err != nil {
		tb.Fatal(err)
	}
	channels := []string{"", "music", "news"}
	reports := make([]server.ReportRequest, n)
	for i := range reports {
		reports[i] = report(i, channels[(i*8/n)%3])
	}
	body := frameBody(tb, true, reports)
	rd := bytes.NewReader(body)
	return func() {
		rd.Reset(body)
		req := httptest.NewRequest("POST", "/v1/report", rd)
		req.Header.Set("Content-Type", wire.ContentType)
		rec := httptest.NewRecorder()
		rt.handleReport(rec, req)
		if want := fmt.Sprintf("{\"slot\":0,\"accepted\":%d,\"rejected\":0,\"results\":null}\n", n); rec.Code != 200 || rec.Body.String() != want {
			tb.Fatalf("forward: HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// TestForwardAllocs guards the router's share of a federated slot: a
// warm forward of a binary batch — decode into the workspace's scratch,
// partition into its per-owner batches, re-frame into their bodies,
// POST, merge — allocates nothing per record, which is what
// TestHandleReportAllocsBinaryBatchPerRecord (internal/server) allows
// the shard behind it. Counted with both shards in-process, so their
// handlers' allocations are in the figure too. Before the workspace a
// 1,600-record forward was 1.2 MB: a fresh intern table, per-owner
// slices grown by append and bodies grown from nil.
func TestForwardAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(n int) (allocs, bytes float64) {
		post := forwardFixture(t, n)
		for warm := 0; warm < 3; warm++ { // devices learned, workspace and shard scratch grown
			post()
		}
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			post()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	largeAllocs, largeBytes := measure(1600)
	smallAllocs, smallBytes := measure(8)
	t.Logf("a warm forward allocates %.1f objects, %.0f B at 1,600 records and %.1f, %.0f B at 8", largeAllocs, largeBytes, smallAllocs, smallBytes)
	// Not demanded equal to the object: the figure is MemStats over two
	// goroutines per forward and net/http's pools, which a collection
	// mid-run refills. One allocation per record would be 1,592 apart.
	if largeAllocs > smallAllocs+8 {
		t.Fatalf("a warm forward allocates %.1f objects at 1,600 records and %.1f at 8, want the same (nothing per record)", largeAllocs, smallAllocs)
	}
	if perRecord := (largeBytes - smallBytes) / 1592; perRecord > 4 {
		t.Fatalf("a warm forward grows by %.1f B per record, want at most 4", perRecord)
	}
}

// BenchmarkForward is router.forward_ms's package-level companion: one
// 1,600-record binary batch (fed-8vc-exact's report) through an N=2
// router over in-process shards, per iteration.
func BenchmarkForward(b *testing.B) {
	post := forwardFixture(b, 1600)
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
