package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lpvs/internal/server"
	"lpvs/internal/shard"
	"lpvs/internal/wire"
)

// TestEnvelopeConformance is the front-door contract: a device cannot
// tell a router from a standalone daemon. Every row is sent to a shard
// daemon and to an N=1 router in front of it, and the two answers must
// agree on status, Allow and Content-Type headers and body bytes — for
// an error the whole envelope (code, message, retryable), for a 200 the
// whole document down to its trailing newline. want pins the status
// and envelope code as well, so the pair cannot agree on a wrong
// answer. A report's acknowledgement is also held to a standalone
// daemon's.
func TestEnvelopeConformance(t *testing.T) {
	const maxBody = server.DefaultMaxBodyBytes
	_, shardTS := newShard(t, "n1", server.Config{})
	m, err := shard.New([]shard.Node{{ID: "n1", Addr: shardTS.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Map: m, DefaultChannel: "ch"})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()
	// The scheduled fleet the 200 rows read: reported through the router,
	// so it knows their owner, and ticked once, so each has a verdict.
	fleet := []server.ReportRequest{report(1, ""), report(8, ""), report(9, "")}
	if resp := postBatch(t, routerTS.URL+"/v1/report", fleet, nil); resp.StatusCode != 200 {
		t.Fatalf("fleet report status %d", resp.StatusCode)
	}
	if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("tick status %d", resp.StatusCode)
	}

	marshal := func(v any) []byte {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	good := report(1, "")
	one, err := wire.AppendBatch(nil, []server.ReportRequest{good})
	if err != nil {
		t.Fatal(err)
	}
	kindOne := append(append(bytes.Clone(one[:5]), 1), one[10:]...) // the batch header's kind set to 1, no count
	skewed := bytes.Clone(one)
	skewed[4] = 9
	overCap := binary.LittleEndian.AppendUint32([]byte{'L', 'P', 'W', 'R', wire.Version, wire.KindBatch},
		server.DefaultMaxBatchRecords+1)
	plasma := report(2, "")
	plasma.DisplayType = "PLASMA"
	// The binary codec cannot frame an unknown display type, so its
	// rejected row is an unknown channel.
	stray := report(3, "no-such-channel")
	wireBatch, err := wire.AppendBatch(nil, []server.ReportRequest{report(4, ""), stray, report(5, "music")})
	if err != nil {
		t.Fatal(err)
	}
	// Over the byte cap within the record cap: records with long IDs,
	// all alike, since the read stops at the cap before any is kept.
	long := report(0, "")
	long.DeviceID = strings.Repeat("d", wire.MaxStringBytes)
	longRec, err := wire.AppendBatch(nil, []server.ReportRequest{long})
	if err != nil {
		t.Fatal(err)
	}
	longRec = longRec[10:]
	n := maxBody/len(longRec) + 1
	bigWire := binary.LittleEndian.AppendUint32([]byte{'L', 'P', 'W', 'R', wire.Version, wire.KindBatch}, uint32(n))
	bigWire = append(bigWire, bytes.Repeat(longRec, n)...)
	if n > server.DefaultMaxBatchRecords {
		t.Fatalf("oversized binary body needs %d records, over the record cap", n)
	}
	spaces := bytes.Repeat([]byte(" "), maxBody+1)

	type probe struct {
		name, method, path, contentType string
		body                            []byte
		wantStatus                      int
		wantCode                        string // envelope code; empty for a 200
	}
	const (
		jsonCT = "application/json"
		bad    = server.CodeBadRequest
	)
	binBatchProbe := probe{"unknown channel, binary batch", "POST", "/v1/report", wire.ContentType, wireBatch, 200, ""}
	probes := []probe{
		{"binary version skew", "POST", "/v1/report", wire.ContentType, skewed, 415, server.CodeUnsupportedMedia},
		{"binary bad magic", "POST", "/v1/report", wire.ContentType, append([]byte("XXXX"), one[4:]...), 400, bad},
		{"binary truncated record", "POST", "/v1/report", wire.ContentType, one[:len(one)-2], 400, bad},
		{"binary trailing bytes", "POST", "/v1/report", wire.ContentType, append(bytes.Clone(one), 0), 400, bad},
		{"binary empty body", "POST", "/v1/report", wire.ContentType, nil, 400, bad},
		{"binary kind-1 frame", "POST", "/v1/report", wire.ContentType, kindOne, 400, bad},
		{"binary header declares cap+1 records", "POST", "/v1/report", wire.ContentType, overCap, 413, server.CodeBatchTooLarge},
		{"binary body over the byte cap", "POST", "/v1/report", wire.ContentType, bigWire, 413, server.CodePayloadTooLarge},
		{"JSON array", "POST", "/v1/report", jsonCT, marshal([]server.ReportRequest{good}), 400, bad},
		{"JSON syntax error, single", "POST", "/v1/report", jsonCT, []byte(`{"device_id":`), 400, bad},
		{"JSON syntax error, array", "POST", "/v1/report", jsonCT, []byte(`[{"device_id":`), 400, bad},
		{"JSON empty body", "POST", "/v1/report", jsonCT, nil, 400, bad},
		{"JSON body over the byte cap", "POST", "/v1/report", jsonCT, spaces, 413, server.CodePayloadTooLarge},
		{"unknown display type, single", "POST", "/v1/report", jsonCT, marshal(plasma), 400, bad},
		binBatchProbe,
		{"accepted report, JSON single", "POST", "/v1/report", jsonCT, marshal(good), 200, ""},
		{"accepted report, binary batch of one", "POST", "/v1/report", wire.ContentType, one, 200, ""},
		{"observe body over the byte cap", "POST", "/v1/observe", jsonCT, spaces, 413, server.CodePayloadTooLarge},
		{"observe syntax error", "POST", "/v1/observe", jsonCT, []byte(`{"device_id":`), 400, bad},
		{"observe empty body", "POST", "/v1/observe", jsonCT, nil, 400, bad},
		{"observe without a device", "POST", "/v1/observe", jsonCT, []byte(`{"reduction":0.2}`), 404, server.CodeUnknownDevice},
		{"decision without a device", "GET", "/v1/decision", "", nil, 400, bad},
		{"decision of an unknown device", "GET", "/v1/decision?device=ghost", "", nil, 404, server.CodeUnknownDevice},
		{"unknown path", "GET", "/v1/nope", "", nil, 404, server.CodeNotFound},
		{"decision", "GET", "/v1/decision?device=dev-001", "", nil, 200, ""},
		{"chunk", "GET", "/v1/chunk?device=dev-001&index=2", "", nil, 200, ""},
		{"playlist", "GET", "/v1/playlist?device=dev-001", "", nil, 200, ""},
		{"explain", "GET", "/v1/explain?device=dev-001", "", nil, 200, ""},
		{"observe", "POST", "/v1/observe", jsonCT, marshal(server.ObserveRequest{DeviceID: "dev-008", Reduction: 0.25}), 200, ""},
	}
	// An observation's answer counts the device's observations, so asking
	// twice does not answer twice alike: the router's side of that row
	// observes a twin device. The answer does not name the device.
	routerBody := map[string][]byte{
		"observe": marshal(server.ObserveRequest{DeviceID: "dev-009", Reduction: 0.25}),
	}
	for _, path := range []string{
		"/v1/report", "/v1/tick", "/v1/decision", "/v1/chunk", "/v1/playlist", "/v1/explain",
		"/v1/observe", "/v1/status", "/v1/fleet", "/v1/slo", "/v1/shard/map",
		"/metrics", "/healthz", "/readyz",
	} {
		probes = append(probes, probe{"wrong method on " + path, "DELETE", path, "", nil, 405, server.CodeMethodNotAllowed})
	}

	type answer struct {
		status             int
		allow, contentType string
		body               string
	}
	exchange := func(base string, p probe) answer {
		if twin, ok := routerBody[p.name]; ok && base == routerTS.URL {
			p.body = twin
		}
		req, err := http.NewRequest(p.method, base+p.path, bytes.NewReader(p.body))
		if err != nil {
			t.Fatal(err)
		}
		if p.contentType != "" {
			req.Header.Set("Content-Type", p.contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		return answer{resp.StatusCode, resp.Header.Get("Allow"), resp.Header.Get("Content-Type"), string(body)}
	}
	for _, p := range probes {
		daemon, router := exchange(shardTS.URL, p), exchange(routerTS.URL, p)
		if daemon != router {
			t.Errorf("%s:\n daemon %+v\n router %+v", p.name, daemon, router)
			continue
		}
		var env server.ErrorResponse
		if p.wantCode != "" {
			if err := json.Unmarshal([]byte(daemon.body), &env); err != nil {
				t.Errorf("%s: body %q is not a v1 envelope: %v", p.name, daemon.body, err)
			}
		}
		if daemon.status != p.wantStatus || env.Error.Code != p.wantCode {
			t.Errorf("%s: both answered %d %q (%s), want %d %q",
				p.name, daemon.status, env.Error.Code, daemon.body, p.wantStatus, p.wantCode)
		}
		if (daemon.status == http.StatusMethodNotAllowed) != (daemon.allow != "") {
			t.Errorf("%s: status %d with Allow %q", p.name, daemon.status, daemon.allow)
		}
	}

	// A report's acknowledgement is a standalone daemon's, byte for byte,
	// in either framing: the router writes a JSON report's with the
	// daemon's own writer, server.WriteAppended, and shapes a batch's with
	// server.NewBatchReportResponse. The standalone daemon ticks once, as
	// the router's shard has, so both acknowledge the same slot.
	def, extras := testStreams(t)
	plain, err := server.New(server.Config{Stream: def, ExtraStreams: extras, ServerStreams: -1, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	plainTS := httptest.NewServer(plain.Handler())
	defer plainTS.Close()
	if resp := postJSON(t, plainTS.URL+"/v1/tick", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("standalone tick status %d", resp.StatusCode)
	}
	for _, p := range []probe{
		{"accepted report, JSON single", "POST", "/v1/report", jsonCT, marshal(good), 200, ""},
		{"accepted report, binary batch of one", "POST", "/v1/report", wire.ContentType, one, 200, ""},
	} {
		if standalone, router := exchange(plainTS.URL, p), exchange(routerTS.URL, p); standalone != router || standalone.status != p.wantStatus {
			t.Errorf("%s:\n standalone %+v\n router     %+v", p.name, standalone, router)
		}
	}

	// A batch answers its rejections only, each under the record's
	// original index.
	var binBatch server.BatchReportResponse
	if err := json.Unmarshal([]byte(exchange(routerTS.URL, binBatchProbe).body), &binBatch); err != nil {
		t.Fatal(err)
	}
	if len(binBatch.Results) != 1 || binBatch.Results[0].Index != 1 || binBatch.Results[0].Error.Code != server.CodeUnknownChannel {
		t.Errorf("binary batch rows %+v, want the one rejection under index 1", binBatch.Results)
	}
}

// TestCleanBatchAfterRejections sends a binary batch with a rejected
// record and then an all-accepted one to a shard daemon, and the same
// two through an N=1 router in front of it. Each answer must be the same
// bytes from both: the daemon decodes into a pooled workspace that the
// first batch left holding a rejection row, and its clean answer must
// still say "results":null, as a fresh workspace and the router do.
func TestCleanBatchAfterRejections(t *testing.T) {
	_, shardTS := newShard(t, "n1", server.Config{})
	m, err := shard.New([]shard.Node{{ID: "n1", Addr: shardTS.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Map: m, DefaultChannel: "ch"})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()
	encode := func(reqs ...server.ReportRequest) []byte {
		buf, err := wire.AppendBatch(nil, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	rejecting := encode(report(1, ""), report(2, "no-such-channel"), report(3, ""))
	clean := encode(report(4, ""), report(5, ""))
	answers := func(base string) (string, string) {
		t.Helper()
		var out [2]string
		for k, body := range [][]byte{rejecting, clean} {
			resp, err := http.Post(base+"/v1/report", wire.ContentType, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			out[k] = fmt.Sprintf("%d %s", resp.StatusCode, b)
		}
		return out[0], out[1]
	}
	daemonRejecting, daemonClean := answers(shardTS.URL)
	routerRejecting, routerClean := answers(routerTS.URL)
	if daemonRejecting != routerRejecting {
		t.Errorf("rejecting batch:\n daemon %s\n router %s", daemonRejecting, routerRejecting)
	}
	if daemonClean != routerClean {
		t.Errorf("clean batch after a rejecting one:\n daemon %s\n router %s", daemonClean, routerClean)
	}
	if !strings.Contains(daemonClean, `"results":null`) {
		t.Errorf("clean batch answered %s, want \"results\":null", daemonClean)
	}
}
