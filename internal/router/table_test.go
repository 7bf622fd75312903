package router

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lpvs/internal/server"
	"lpvs/internal/shard"
	"lpvs/internal/wire"
)

// This file tests the router's decision table (tick.go, forward.go):
// a decision read the router answers itself must be the one the relay
// would have fetched.

// tickFault makes a shard's POST /v1/shard/tick fail on demand. With
// refuse set the shard answers 503 without ticking; with lose set it
// ticks and then answers 503, which is what a reply lost on its way
// looks like to the router.
type tickFault struct{ refuse, lose atomic.Bool }

func (f *tickFault) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard/tick" && (f.refuse.Load() || f.lose.Load()) {
			if f.lose.Load() {
				h.ServeHTTP(httptest.NewRecorder(), r)
			}
			server.WriteEnvelopeError(w, http.StatusServiceUnavailable, server.CodeShardUnavailable, "injected tick fault")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// newFaultyShard starts a shard-mode daemon behind a tickFault.
func newFaultyShard(tb testing.TB, nodeID string) (*httptest.Server, *tickFault) {
	tb.Helper()
	s, _ := newShard(tb, nodeID, server.Config{})
	f := new(tickFault)
	ts := httptest.NewServer(f.wrap(s.Handler()))
	tb.Cleanup(ts.Close)
	return ts, f
}

// A tick that every shard fails leaves the router's slot where it was,
// so the slot a report is answered with stays the shard's.
func TestRouterSlotAfterAllFailedTick(t *testing.T) {
	shardTS, fault := newFaultyShard(t, "n1")
	_, routerTS := newRouter(t, map[string]string{"n1": shardTS.URL})
	batch := []server.ReportRequest{report(1, ""), report(2, "music")}

	postBatch(t, routerTS.URL+"/v1/report", batch, nil)
	if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first tick status %d", resp.StatusCode)
	}
	fault.refuse.Store(true)
	if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-failed tick status %d, want 502", resp.StatusCode)
	}
	fault.refuse.Store(false)

	var viaRouter, direct server.BatchReportResponse
	postBatch(t, routerTS.URL+"/v1/report", batch, &viaRouter)
	postBatch(t, shardTS.URL+"/v1/report", batch, &direct)
	if viaRouter.Slot != direct.Slot || direct.Slot != 1 {
		t.Fatalf("after a tick every shard failed the router answers slot %d, the shard %d; want 1 from both",
			viaRouter.Slot, direct.Slot)
	}
	var st StatusResponse
	getJSON(t, routerTS.URL+"/v1/status", &st)
	if st.Slot != 1 {
		t.Fatalf("router status slot %d, want 1", st.Slot)
	}
}

// tableFixture is a router over two faulty shards whose IDs split the
// test channels between them, and the devices reported through it.
type tableFixture struct {
	rt        *Router
	routerURL string
	nodes     []string // node IDs in ID order
	urls      map[string]string
	faults    map[string]*tickFault
	hint      map[string]string // device -> channel of its last report
	devices   []string          // every device ever reported, first report first
	calls     uint64            // decision reads and observations sent to the router
}

// tableIDs are the devices of the table tests: one with an '=' (the
// Canonical line separator) and one that needs escaping in a query.
var tableIDs = []string{"dev-000", "dev-001", "dev-002", "dev-003", "dev-004", "dev-005",
	"dev-006", "dev-007", "dev-008", "dev-009", "dev-010", "dev-011", "a=b", "dév<1>"}

var tableChannels = []string{"", "music", "news"}

func newTableFixture(t *testing.T) *tableFixture {
	t.Helper()
	f := &tableFixture{
		nodes:  []string{"n2", "n3"},
		urls:   map[string]string{},
		faults: map[string]*tickFault{},
		hint:   map[string]string{},
	}
	members := map[string]string{}
	for _, id := range f.nodes {
		ts, fault := newFaultyShard(t, id)
		f.urls[id], f.faults[id] = ts.URL, fault
		members[id] = ts.URL
	}
	var ts *httptest.Server
	f.rt, ts = newRouter(t, members)
	f.routerURL = ts.URL
	if f.rt.Map().Owner("ch").ID == f.rt.Map().Owner("music").ID {
		t.Fatal("test channels share one owner; pick node IDs that split them")
	}
	return f
}

// post sends body to url and fails unless the answer is a 200. It
// reports through t.Errorf, so any goroutine may call it.
func post(t *testing.T, url, contentType string, body []byte) bool {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return false
	}
	answer, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST %s: status %d: %s", url, resp.StatusCode, answer)
		return false
	}
	return true
}

// reportMsg is one POST /v1/report body and its Content-Type.
type reportMsg struct {
	contentType string
	body        []byte
}

// reportMessages frames the devices' reports on the given channels as
// one binary batch, or as one JSON report per device.
func reportMessages(t *testing.T, rng *rand.Rand, ids, channels []string, binary bool) []reportMsg {
	t.Helper()
	reqs := make([]server.ReportRequest, len(ids))
	for i, id := range ids {
		reqs[i] = report(rng.Intn(90), channels[i])
		reqs[i].DeviceID = id
	}
	if binary {
		return []reportMsg{{wire.ContentType, frameBody(t, true, reqs)}}
	}
	msgs := make([]reportMsg, len(reqs))
	for i := range reqs {
		msgs[i] = reportMsg{"application/json", frameBody(t, false, reqs[i:i+1])}
	}
	return msgs
}

// report sends the devices' reports on the given channels through the
// router in the given framing.
func (f *tableFixture) report(t *testing.T, rng *rand.Rand, ids, channels []string, binary bool) {
	t.Helper()
	for _, m := range reportMessages(t, rng, ids, channels, binary) {
		if !post(t, f.routerURL+"/v1/report", m.contentType, m.body) {
			t.FailNow()
		}
	}
	f.reported(ids, channels)
}

// reported notes the devices' routing hints.
func (f *tableFixture) reported(ids, channels []string) {
	for i, id := range ids {
		if _, ok := f.hint[id]; !ok {
			f.devices = append(f.devices, id)
		}
		ch := channels[i]
		if ch == "" {
			ch = "ch"
		}
		f.hint[id] = ch
	}
}

func (f *tableFixture) tick(t *testing.T) {
	t.Helper()
	if resp := postJSON(t, f.routerURL+"/v1/tick", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d", resp.StatusCode)
	}
}

func (f *tableFixture) observe(t *testing.T, id string, reduction float64) {
	t.Helper()
	f.calls++
	postJSON(t, f.routerURL+"/v1/observe", server.ObserveRequest{DeviceID: id, Reduction: reduction}, nil)
}

// answer is one decision read's status, Content-Type and body.
type answer struct {
	status      int
	contentType string
	body        string
}

func getAnswer(t *testing.T, base, id string) answer {
	t.Helper()
	resp, err := http.Get(base + "/v1/decision?device=" + url.QueryEscape(id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{resp.StatusCode, resp.Header.Get("Content-Type"), string(body)}
}

// relayAnswer is what the relay answers a decision read of id: the
// answer of the owner of the device's last-reported channel, or of the
// first shard in ID order that knows the device.
func (f *tableFixture) relayAnswer(t *testing.T, id string) answer {
	t.Helper()
	owner := f.rt.Map().Owner(f.hint[id]).ID
	order := append([]string{owner}, f.nodes...)
	var last answer
	for i, node := range order {
		if i > 0 && node == owner {
			continue
		}
		last = getAnswer(t, f.urls[node], id)
		if last.status != http.StatusNotFound || !strings.Contains(last.body, server.CodeUnknownDevice) {
			return last
		}
	}
	return last
}

// check holds every device's decision read through the router to the
// relay's answer.
func (f *tableFixture) check(t *testing.T, step string) {
	t.Helper()
	for _, id := range f.devices {
		f.calls++
		got, want := getAnswer(t, f.routerURL, id), f.relayAnswer(t, id)
		if got != want {
			t.Fatalf("%s: decision of %q:\n got %d %s %q\nwant %d %s %q", step, id,
				got.status, got.contentType, got.body, want.status, want.contentType, want.body)
		}
	}
}

// ownedChannel is a test channel node owns under the installed map,
// or false when it owns none.
func (f *tableFixture) ownedChannel(node string) (string, bool) {
	for _, ch := range tableChannels {
		key := ch
		if key == "" {
			key = "ch"
		}
		if f.rt.Map().Owner(key).ID == node {
			return ch, true
		}
	}
	return "", false
}

// TestRouterDecisionTableMatchesRelay is the table's equality gate:
// after every operation of a seeded random sequence — reports in both
// framings, channel switches across owners, ticks, observations through
// the router, a reshard, a shard losing its tick reply, a tick run on a
// shard past the router — every device's
// decision read through the router equals the relay's answer in status,
// Content-Type and body bytes; and so it does once observations run
// concurrently with ticks and quiesce.
func TestRouterDecisionTableMatchesRelay(t *testing.T) {
	t.Run("sequence", func(t *testing.T) {
		f := newTableFixture(t)
		rng := rand.New(rand.NewSource(36))
		const ops = 120
		for op := 0; op < ops; op++ {
			var step string
			switch k := rng.Intn(10); {
			case op == ops/2:
				step = f.reshard(t)
			case op == ops/4 || op == 3*ops/4:
				step = f.loseTick(t, rng)
			case op == ops/3:
				step = f.foreignTick(t, rng)
			case k < 4 || len(f.devices) == 0:
				n := 1 + rng.Intn(5)
				ids := make([]string, n)
				channels := make([]string, n)
				for i, j := range rng.Perm(len(tableIDs))[:n] {
					ids[i], channels[i] = tableIDs[j], tableChannels[rng.Intn(len(tableChannels))]
				}
				binary := rng.Intn(2) == 0
				f.report(t, rng, ids, channels, binary)
				step = fmt.Sprintf("op %d: report %v on %q (binary %t)", op, ids, channels, binary)
			case k < 7:
				f.tick(t)
				step = fmt.Sprintf("op %d: tick", op)
			default:
				id := f.devices[rng.Intn(len(f.devices))]
				reduction := 0.05 + 0.9*rng.Float64()
				if rng.Intn(8) == 0 {
					reduction = 1.5 // refused: the entry is in doubt
				}
				f.observe(t, id, reduction)
				step = fmt.Sprintf("op %d: observe %q %.3f", op, id, reduction)
			}
			f.check(t, step)
		}
		if relayed := uint64(f.rt.mProxies.Value()); relayed == 0 || relayed >= f.calls {
			t.Fatalf("the router relayed %d of %d reads and observations: the sequence must exercise both the table and the relay",
				relayed, f.calls)
		}
	})

	t.Run("concurrent observes", func(t *testing.T) {
		f := newTableFixture(t)
		rng := rand.New(rand.NewSource(7))
		channels := make([]string, len(tableIDs))
		for i := range channels {
			channels[i] = tableChannels[i%len(tableChannels)]
		}
		f.report(t, rng, tableIDs, channels, true)
		f.tick(t)

		const ticks = 8
		reports := make([][]reportMsg, ticks)
		for i := range reports {
			reports[i] = reportMessages(t, rng, tableIDs, channels, i%2 == 0)
		}
		// The observers keep going until the ticks are done, so some of
		// their answers cross a tick reply on the way to the router.
		var ticking atomic.Bool
		ticking.Store(true)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ticking.Store(false)
			for _, msgs := range reports {
				for _, m := range msgs {
					if !post(t, f.routerURL+"/v1/report", m.contentType, m.body) {
						return
					}
				}
				if !post(t, f.routerURL+"/v1/tick", "application/json", nil) {
					return
				}
			}
		}()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ticking.Load(); i++ {
					body := fmt.Sprintf(`{"device_id":%q,"reduction":%g}`, tableIDs[(g*5+i)%len(tableIDs)], 0.1+0.05*float64(g+i%8))
					if !post(t, f.routerURL+"/v1/observe", "application/json", []byte(body)) {
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		f.check(t, "quiesced")
	})
}

// reshard installs a map over the same nodes whose ring moves at least
// one test channel to the other node.
func (f *tableFixture) reshard(t *testing.T) string {
	t.Helper()
	cur := f.rt.Map()
	nodes := cur.Nodes()
	for replicas := 1; replicas <= 256; replicas++ {
		next, err := shard.New(nodes, replicas)
		if err != nil {
			t.Fatal(err)
		}
		moved := shard.Moved(cur, next, []string{"ch", "music", "news"})
		if len(moved) == 0 {
			continue
		}
		if resp := postJSON(t, f.routerURL+"/v1/shard/map", next.Spec(), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("reshard status %d", resp.StatusCode)
		}
		sort.Strings(moved)
		return fmt.Sprintf("reshard to %d replicas moving %v", replicas, moved)
	}
	t.Fatal("no replica count moves a test channel")
	return ""
}

// foreignTick has one node decide the devices it already decided again
// in a tick run past the router, then lets the router tick: the
// router never saw that tick's verdicts, only the slot it skipped.
func (f *tableFixture) foreignTick(t *testing.T, rng *rand.Rand) string {
	t.Helper()
	node, ids := f.redecide(t, rng)
	if !post(t, f.urls[node]+"/v1/shard/tick", "application/json", nil) {
		t.FailNow()
	}
	f.tick(t)
	return fmt.Sprintf("%s decided %v in a tick the router did not run", node, ids)
}

// redecide reports six devices on a channel of a node that owns one,
// ticks, and reports them there again; it returns the node and devices.
func (f *tableFixture) redecide(t *testing.T, rng *rand.Rand) (string, []string) {
	t.Helper()
	var node, ch string
	for start, k := rng.Intn(len(f.nodes)), 0; node == "" && k < len(f.nodes); k++ {
		if c, ok := f.ownedChannel(f.nodes[(start+k)%len(f.nodes)]); ok {
			node, ch = f.nodes[(start+k)%len(f.nodes)], c
		}
	}
	ids := append([]string(nil), tableIDs[:6]...)
	channels := make([]string, len(ids))
	for i := range channels {
		channels[i] = ch
	}
	f.report(t, rng, ids, channels, false)
	f.tick(t)
	f.report(t, rng, ids, channels, true)
	return node, ids
}

// loseTick makes one node decide the devices it already decided again,
// in a tick whose reply the router does not get.
func (f *tableFixture) loseTick(t *testing.T, rng *rand.Rand) string {
	t.Helper()
	node, ids := f.redecide(t, rng)
	f.faults[node].lose.Store(true)
	defer f.faults[node].lose.Store(false)
	var tick TickResponse
	if resp := postJSON(t, f.routerURL+"/v1/tick", nil, &tick); resp.StatusCode != http.StatusOK || tick.ShardErrors != 1 {
		t.Fatalf("tick with %s's reply lost: status %d, shard errors %d", node, resp.StatusCode, tick.ShardErrors)
	}
	return fmt.Sprintf("%s decided %v in a tick whose reply was lost", node, ids)
}
