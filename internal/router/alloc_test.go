package router

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"lpvs/internal/client"
	"lpvs/internal/server"
	"lpvs/internal/shard"
	"lpvs/internal/testenv"
	"lpvs/internal/wire"
)

// TestRoundTripAllocs guards what one hot request costs at the socket,
// both ends counted: a daemon on a loopback listener, a client.Caller
// over a one-connection http.Transport (the load generator's set-up),
// runtime.MemStats over 2,000 requests. The counts include net/http's
// own — per GET on go1.24.0, the toolchain the bounds were taken on,
// about 18 in the server and about 37 in http.Transport, its
// connection's read and write loops included, against the Caller's 0 —
// so a toolchain that moves them moves the bounds; what they pin is
// this repository's share. Before the responses were append-encoded and
// the Caller built its requests on a pre-parsed base URL the four rows
// read 82, 83, 104 and 164; before both ends read the hot bodies in that
// layout instead of through json.Unmarshal (DESIGN.md §18), 74, 74, 98
// and 148; before the Caller built each request in one block and handed
// it to the Transport itself instead of through http.Client.Do, 69, 69,
// 88 and 138; before the Caller recycled its request blocks, sent one
// fixed header set (no gzip request, no User-Agent) and wrote a POST's
// head and body in one write, 64, 64, 82 and 127; before the router
// answered decision reads from its table instead of relaying each one to
// the shard, the router row read 115 against an unchanged 58, 58 and 71
// — and it asserts now that the shard serves none of its reads. The
// JSON report row read 71 while the report was read into a one-record
// slice of its own and net/http drained the spent body itself (an
// io.CopyN) because the handler left it open; it reads 69 now.
func TestRoundTripAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	oneConn := func() *http.Client {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
		t.Cleanup(tr.CloseIdleConnections)
		return &http.Client{Transport: tr}
	}
	_, shardTS := newShard(t, "n1", server.Config{})
	m, err := shard.New([]shard.Node{{ID: "n1", Addr: shardTS.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Map: m, DefaultChannel: "ch",
		ClientOptions: []client.Option{client.WithHTTPClient(oneConn())}})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()

	direct, err := client.NewCaller(shardTS.URL, client.WithHTTPClient(oneConn()))
	if err != nil {
		t.Fatal(err)
	}
	proxied, err := client.NewCaller(routerTS.URL, client.WithHTTPClient(oneConn()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(report(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	// Through the router first, so it learns the device's owner; then a
	// tick, so the decision is a scheduled one.
	if err := proxied.PostRaw("/v1/report", "application/json", body, nil); err != nil {
		t.Fatal(err)
	}
	if err := proxied.PostRaw("/v1/tick", "application/json", nil, nil); err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name    string
		bound   float64
		call    func() error
		noRelay bool // the shard must serve none of the row's requests
	}{
		{"GET /v1/decision", 59, func() error {
			var out server.DecisionResponse
			return direct.GetJSON("/v1/decision?device=dev-001", &out)
		}, false},
		{"GET /v1/chunk", 59, func() error {
			var out server.ChunkResponse
			return direct.GetJSON("/v1/chunk?device=dev-001&index=3", &out)
		}, false},
		{"POST /v1/report, one JSON report", 70, func() error {
			var out server.ReportResponse
			return direct.PostRaw("/v1/report", "application/json", body, &out)
		}, false},
		{"GET /v1/decision through an N=1 router", 60, func() error {
			var out server.DecisionResponse
			return proxied.GetJSON("/v1/decision?device=dev-001", &out)
		}, true},
	}
	const requests = 2000
	for _, row := range rows {
		for i := 0; i < 100; i++ { // connection, pools, metric series
			if err := row.call(); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
		}
		served := shardDecisionReads(t, shardTS.URL)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < requests; i++ {
			if err := row.call(); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if n := shardDecisionReads(t, shardTS.URL) - served; row.noRelay && n != 0 {
			t.Errorf("%s: the shard served %d decision reads of the row's %d", row.name, n, requests)
		}
		allocs := float64(after.Mallocs-before.Mallocs) / requests
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / requests
		t.Logf("%-40s %6.1f allocs %7.0f B per round trip", row.name, allocs, bytes)
		if allocs > row.bound {
			t.Errorf("%s allocates %.1f per round trip, want at most %.0f", row.name, allocs, row.bound)
		}
	}
}

// shardDecisionReads is the number of GET /v1/decision requests the
// daemon at base has served, every status counted, from its
// lpvs_http_requests_total series.
func shardDecisionReads(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, line := range strings.Split(string(text), "\n") {
		sp := strings.LastIndexByte(line, ' ') // the route label holds a space too
		if sp < 0 || !strings.HasPrefix(line, `lpvs_http_requests_total{route="GET /v1/decision",`) {
			continue
		}
		series, value := line[:sp], line[sp+1:]
		n, err := strconv.Atoi(value)
		if err != nil {
			t.Fatalf("series %s: value %q", series, value)
		}
		total += n
	}
	return total
}

// TestFederatedTickAllocs guards what one federated tick costs, every
// process counted: a router and two shards on loopback listeners,
// three channels of 40 devices each, the tick POSTed by a client.Caller
// into a fresh TickResponse as the load generator does, and
// runtime.MemStats read around the tick alone (the slot's reports go in
// before it). Most of the count is the shards' scheduling, which this
// test does not pin; what it pins is the exchange around it: the
// shard's reply appended from its tick outcome, read by the router
// into storage it reuses, merged and appended again, and read by the
// client in that layout (DESIGN.md §17, §18). On go1.24.0 amd64, the
// toolchain the bounds were taken on, a tick costs 276 to 279
// allocations and 21.6 to 22.8 KiB; the bounds are that plus about 4%
// of allocations and 1.2 KiB of slack for what the collector's timing
// moves. It cost about 292 and 22.5 KiB while Phase-1 took its scratch
// from a sync.Pool and made a fresh X per solve, and 404 and 39.5 KiB
// before the two tick bodies were written and read in their own layout.
// At this size both bodies fit a pooled buffer, so appending them into
// storage their owners keep (the shard's Server, the router's
// tickSpace) moves nothing here; it shows at the benchmark's 1,600
// devices, where a pooled buffer that small bodies share regrew to each
// tick body every tick.
func TestFederatedTickAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	oneConn := func() *http.Client {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
		t.Cleanup(tr.CloseIdleConnections)
		return &http.Client{Transport: tr}
	}
	// Node IDs a and b split the three channels 2:1 (ch on b).
	_, ts1 := newShard(t, "a", server.Config{})
	_, ts2 := newShard(t, "b", server.Config{})
	m, err := shard.New([]shard.Node{{ID: "a", Addr: ts1.URL}, {ID: "b", Addr: ts2.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Map: m, DefaultChannel: "ch",
		ClientOptions: []client.Option{client.WithHTTPClient(oneConn())}})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()
	c, err := client.NewCaller(routerTS.URL, client.WithHTTPClient(oneConn()))
	if err != nil {
		t.Fatal(err)
	}
	channels := []string{"ch", "music", "news"}
	owners := map[string]bool{}
	var batch []server.ReportRequest
	for i := 0; i < 120; i++ {
		ch := channels[i%len(channels)]
		owners[m.Owner(ch).ID] = true
		batch = append(batch, report(i, ch))
	}
	if len(owners) != 2 {
		t.Fatalf("the channels land on %d of the 2 shards", len(owners))
	}
	body, err := wire.AppendBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}

	const warm, ticks = 5, 20
	var allocs, bytes uint64
	for i := 0; i < warm+ticks; i++ {
		if err := c.PostRaw("/v1/report", wire.ContentType, body, nil); err != nil {
			t.Fatal(err)
		}
		var out TickResponse
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.PostRaw("/v1/tick", "application/json", nil, &out)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if out.ShardErrors != 0 || len(out.VCs) != len(channels) || out.Reports != len(batch) {
			t.Fatalf("tick %d: %d shard errors, %d VCs, %d reports", i, out.ShardErrors, len(out.VCs), out.Reports)
		}
		if i >= warm {
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
	}
	perTick, kb := float64(allocs)/ticks, float64(bytes)/ticks/1024
	t.Logf("federated tick: %.0f allocs %.1f KiB", perTick, kb)
	const allocBound, kbBound = 290, 24
	if perTick > allocBound {
		t.Errorf("a federated tick allocates %.0f times, want at most %d", perTick, allocBound)
	}
	if kb > kbBound {
		t.Errorf("a federated tick allocates %.1f KiB, want at most %d", kb, kbBound)
	}
}
