package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lpvs/internal/obs/audit"
	"lpvs/internal/wire"
)

// postWire posts a binary-framed report body and decodes the JSON
// response into out (when 200).
func postWire(tb testing.TB, url string, raw []byte, out any) *http.Response {
	tb.Helper()
	resp, err := http.Post(url+"/v1/report", wire.ContentType, bytes.NewReader(raw))
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

func encodeBatch(tb testing.TB, reqs []ReportRequest) []byte {
	tb.Helper()
	buf, err := wire.AppendBatch(nil, reqs)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// TestWireReportSingle holds one device's binary report to a batch of
// one record, answered as a batch; a kind-1 frame of the same record is
// refused with a 400 and stages nothing.
func TestWireReportSingle(t *testing.T) {
	s, ts := testServer(t, -1)
	kindOne := encodeBatch(t, []ReportRequest{validReport("dev-kind1")})
	kindOne = append(append(kindOne[:5:5], 1), kindOne[10:]...)
	if got := postWire(t, ts.URL, kindOne, nil); got.StatusCode != http.StatusBadRequest {
		t.Fatalf("kind-1 frame: status %d, want 400", got.StatusCode)
	}
	if _, staged := pendingReport(s, "dev-kind1"); staged {
		t.Fatal("a refused kind-1 frame was staged")
	}
	var resp BatchReportResponse
	if got := postWire(t, ts.URL, encodeBatch(t, []ReportRequest{validReport("dev-wire")}), &resp); got.StatusCode != 200 {
		t.Fatalf("status %d", got.StatusCode)
	}
	if resp.Accepted != 1 || resp.Rejected != 0 || resp.Results != nil {
		t.Fatalf("report not accepted: %+v", resp)
	}
	if _, staged := pendingReport(s, "dev-wire"); !staged {
		t.Fatal("binary report not staged for the next tick")
	}
}

func TestWireReportBatchRejectedOnlyResults(t *testing.T) {
	_, ts := testServer(t, -1)
	reqs := []ReportRequest{
		validReport("dev-a"),
		validReport("dev-bad"),
		validReport("dev-b"),
	}
	reqs[1].ChannelID = "no-such-channel"
	var resp BatchReportResponse
	if got := postWire(t, ts.URL, encodeBatch(t, reqs), &resp); got.StatusCode != 200 {
		t.Fatalf("status %d", got.StatusCode)
	}
	if resp.Accepted != 2 || resp.Rejected != 1 {
		t.Fatalf("accepted %d rejected %d", resp.Accepted, resp.Rejected)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("binary batch echoed %d results, want rejections only", len(resp.Results))
	}
	r := resp.Results[0]
	if r.Index != 1 || r.DeviceID != "dev-bad" || r.Accepted || r.Error == nil || r.Error.Code != CodeUnknownChannel {
		t.Fatalf("rejection entry %+v", r)
	}
}

func TestWireVersionSkew415(t *testing.T) {
	_, ts := testServer(t, -1)
	buf := encodeBatch(t, []ReportRequest{validReport("dev-v")})
	buf[4]++ // future format version
	resp := postWire(t, ts.URL, buf, nil)
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d, want 415", resp.StatusCode)
	}
	var env ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeUnsupportedMedia {
		t.Fatalf("code %q", env.Error.Code)
	}
}

func TestWireCorruptBody400(t *testing.T) {
	_, ts := testServer(t, -1)
	buf := encodeBatch(t, []ReportRequest{validReport("dev-c")})
	for name, body := range map[string][]byte{
		"truncated":   buf[:len(buf)-2],
		"bad magic":   append([]byte("XXXX"), buf[4:]...),
		"trailing":    append(append([]byte{}, buf...), 0),
		"empty":       {},
		"json banned": []byte(`{"device_id":"x"}`), // binary Content-Type means binary framing
	} {
		resp := postWire(t, ts.URL, body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestBatchRecordCap pins the typed 413 on over-long batches, from the
// header alone.
func TestBatchRecordCap(t *testing.T) {
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1, MaxBatchRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := make([]ReportRequest, 4)
	for i := range reqs {
		reqs[i] = validReport(deviceName(i))
	}
	resp := postWire(t, ts.URL, encodeBatch(t, reqs), nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var env ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeBatchTooLarge {
		t.Fatalf("code %q, want %q", env.Error.Code, CodeBatchTooLarge)
	}
	if env.Error.Retryable {
		t.Fatal("batch_too_large marked retryable")
	}

	// At the cap: accepted.
	var ok BatchReportResponse
	if resp := postWire(t, ts.URL, encodeBatch(t, reqs[:3]), &ok); resp.StatusCode != 200 || ok.Accepted != 3 {
		t.Fatalf("at-cap batch refused: status %d %+v", resp.StatusCode, ok)
	}
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.IngestMaxBatchRecords != 3 {
		t.Fatalf("status reports cap %d", st.IngestMaxBatchRecords)
	}
}

// TestJSONBinaryDifferential is the codec's correctness gate: the same
// fleet reported once as JSON reports, one per device, and once as a
// binary batch must produce byte-identical audit requests and
// DecisionCanonical bytes, and both logs must replay.
func TestJSONBinaryDifferential(t *testing.T) {
	newAudited := func(dir string) (*Server, *httptest.Server) {
		s, err := New(Config{Stream: testStream(t), ServerStreams: 3, Lambda: 1, AuditDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { s.Close() })
		return s, ts
	}
	dirJSON, dirWire := t.TempDir(), t.TempDir()
	_, tsJSON := newAudited(dirJSON)
	_, tsWire := newAudited(dirWire)

	const devices = 40
	for slot := 0; slot < 3; slot++ {
		reqs := make([]ReportRequest, devices)
		for i := range reqs {
			reqs[i] = validReport(deviceName(i))
			reqs[i].EnergyFrac = 0.05 + float64((i*7+slot)%90)/100
			reqs[i].Brightness = 0.3 + float64(i%7)/10
			if i%2 == 1 {
				reqs[i].DisplayType = "LCD"
			}
		}
		for _, r := range reqs {
			if resp := postJSON(t, tsJSON.URL+"/v1/report", r, nil); resp.StatusCode != 200 {
				t.Fatalf("json report status %d", resp.StatusCode)
			}
		}
		if resp := postWire(t, tsWire.URL, encodeBatch(t, reqs), nil); resp.StatusCode != 200 {
			t.Fatalf("wire batch status %d", resp.StatusCode)
		}
		postJSON(t, tsJSON.URL+"/v1/tick", struct{}{}, nil)
		postJSON(t, tsWire.URL+"/v1/tick", struct{}{}, nil)
	}

	recsJSON, err := audit.ReadFile(filepath.Join(dirJSON, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	recsWire, err := audit.ReadFile(filepath.Join(dirWire, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recsJSON) != 3 || len(recsWire) != 3 {
		t.Fatalf("audit records: json %d wire %d", len(recsJSON), len(recsWire))
	}
	for i := range recsJSON {
		// UnixSec/TraceID are wall-clock; the decision-bearing fields
		// must match byte for byte.
		if !reflect.DeepEqual(recsJSON[i].Requests, recsWire[i].Requests) {
			t.Fatalf("slot %d: audit requests diverge between codecs", i)
		}
		if string(recsJSON[i].DecisionCanonical) != string(recsWire[i].DecisionCanonical) {
			t.Fatalf("slot %d: DecisionCanonical diverges:\njson: %s\nwire: %s",
				i, recsJSON[i].DecisionCanonical, recsWire[i].DecisionCanonical)
		}
	}
	for name, recs := range map[string][]*audit.Record{"json": recsJSON, "wire": recsWire} {
		diverged, err := audit.ReplayAll(recs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if diverged != 0 {
			t.Fatalf("%s: %d records diverged on replay", name, diverged)
		}
	}
}

// TestPoolScratchAliasing proves a decoded report is never mutated
// after hand-off to the scheduler: a second request that reuses the
// pooled decode scratch must not disturb the first one's staged values
// or its audit trail, and the batch a tick scheduled is not written by
// the ingest of the slot after it.
func TestPoolScratchAliasing(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1, AuditDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := validReport("dev-keep")
	first.EnergyFrac = 0.17
	first.Brightness = 0.81
	if resp := postWire(t, ts.URL, encodeBatch(t, []ReportRequest{first}), nil); resp.StatusCode != 200 {
		t.Fatalf("first batch status %d", resp.StatusCode)
	}
	// Same scratch, different payload: if the server had retained any
	// reference into the decode buffers, these values would bleed into
	// dev-keep's staged request.
	second := validReport("dev-clobber")
	second.EnergyFrac = 0.93
	second.Brightness = 0.11
	second.DisplayType = "LCD"
	if resp := postWire(t, ts.URL, encodeBatch(t, []ReportRequest{second}), nil); resp.StatusCode != 200 {
		t.Fatalf("second batch status %d", resp.StatusCode)
	}
	kept, ok := pendingReport(s, "dev-keep")
	if !ok {
		t.Fatal("dev-keep lost its staged report")
	}
	if kept.EnergyFrac != 0.17 {
		t.Fatalf("staged EnergyFrac mutated to %v after scratch reuse", kept.EnergyFrac)
	}
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)
	recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d audit records", len(recs))
	}
	for _, rr := range recs[0].Requests {
		if rr.Device == "dev-keep" && rr.EnergyFrac != 0.17 {
			t.Fatalf("audited EnergyFrac %v for dev-keep", rr.EnergyFrac)
		}
	}
	// The next slot's reports — same devices, same scratch — are staged
	// in the other batch: the one the tick scheduled, which the kept
	// decision reads its device IDs from, stays as it was
	// (TestScheduledBatchSurvivesIngest runs this over several slots).
	first.EnergyFrac, second.EnergyFrac = 0.66, 0.44
	if resp := postWire(t, ts.URL, encodeBatch(t, []ReportRequest{second, first}), nil); resp.StatusCode != 200 {
		t.Fatalf("next slot's batch status %d", resp.StatusCode)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.scheduled) != 2 || s.scheduled[1].DeviceID != "dev-keep" || s.scheduled[1].EnergyFrac != 0.17 {
		t.Fatalf("the scheduled batch changed under the next slot's ingest: %+v", s.scheduled)
	}
}

// TestMixedCodecIngestRace hammers JSON and binary ingest against
// concurrent ticks and scrapes; run under -race it is the data-race
// gate on the pooled decode path.
func TestMixedCodecIngestRace(t *testing.T) {
	_, ts := testServer(t, -1)
	const workers, iters = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("dev-%d-%d", w, i%5)
				switch i % 4 {
				case 0: // JSON single
					r := validReport(id)
					buf, _ := json.Marshal(r)
					resp, err := http.Post(ts.URL+"/v1/report", "application/json", bytes.NewReader(buf))
					if err == nil {
						resp.Body.Close()
					}
				case 1: // binary batch
					reqs := []ReportRequest{validReport(id), validReport(id + "-b")}
					buf, _ := wire.AppendBatch(nil, reqs)
					resp, err := http.Post(ts.URL+"/v1/report", wire.ContentType, bytes.NewReader(buf))
					if err == nil {
						resp.Body.Close()
					}
				case 2: // tick
					resp, err := http.Post(ts.URL+"/v1/tick", "application/json", strings.NewReader("{}"))
					if err == nil {
						resp.Body.Close()
					}
				case 3: // scrape + status
					resp, err := http.Get(ts.URL + "/metrics")
					if err == nil {
						resp.Body.Close()
					}
					resp, err = http.Get(ts.URL + "/v1/status")
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestIngestMetricsConformance is the conformance-golden entry for the
// lpvs_ingest_* families: names, HELP/TYPE lines and the codec label
// split are pinned against the text exposition, and the ingest fields
// of /v1/status must equal the families' samples.
func TestIngestMetricsConformance(t *testing.T) {
	_, ts := testServer(t, -1)
	single := validReport("dev-json")
	postJSON(t, ts.URL+"/v1/report", single, nil)
	reqs := []ReportRequest{validReport("dev-w1"), validReport("dev-w2")}
	raw := encodeBatch(t, reqs)
	postWire(t, ts.URL, raw, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"# HELP lpvs_ingest_bytes_total Report request-body bytes ingested on POST /v1/report, by codec.",
		"# TYPE lpvs_ingest_bytes_total counter",
		"# TYPE lpvs_ingest_records_total counter",
		"# TYPE lpvs_ingest_decode_seconds histogram",
		"# TYPE lpvs_ingest_pool_gets_total counter",
		"# TYPE lpvs_ingest_pool_misses_total counter",
		`lpvs_ingest_records_total{codec="binary"} 2`,
		`lpvs_ingest_records_total{codec="json"} 1`,
		fmt.Sprintf(`lpvs_ingest_bytes_total{codec="binary"} %d`, len(raw)),
		`lpvs_ingest_decode_seconds_count{codec="binary"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q\n%s", want, text)
		}
	}

	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.IngestBytesBinary != uint64(len(raw)) {
		t.Fatalf("status ingest_bytes_binary %d, want %d", st.IngestBytesBinary, len(raw))
	}
	if st.IngestRecordsBinary != 2 || st.IngestRecordsJSON != 1 {
		t.Fatalf("status records: binary %d json %d", st.IngestRecordsBinary, st.IngestRecordsJSON)
	}
	if st.IngestPoolGets != 1 || st.IngestPoolMisses != 1 {
		t.Fatalf("pool gets %d misses %d, want 1/1", st.IngestPoolGets, st.IngestPoolMisses)
	}
	// A second binary request must hit the warmed pool.
	postWire(t, ts.URL, raw, nil)
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.IngestPoolGets != 2 || st.IngestPoolMisses != 1 {
		t.Fatalf("after reuse: gets %d misses %d", st.IngestPoolGets, st.IngestPoolMisses)
	}
	if st.IngestPoolHitRate != 0.5 {
		t.Fatalf("pool hit rate %v", st.IngestPoolHitRate)
	}
	checkStatusMatchesMetrics(t, ts.URL)
}

// TestJSONDefaultUntouched pins the compatibility contract: absent the
// binary Content-Type, every body keeps parsing as JSON.
func TestJSONDefaultUntouched(t *testing.T) {
	_, ts := testServer(t, -1)
	var resp ReportResponse
	if got := postJSON(t, ts.URL+"/v1/report", validReport("dev-j"), &resp); got.StatusCode != 200 || !resp.Accepted {
		t.Fatalf("plain JSON report: status %d %+v", got.StatusCode, resp)
	}
	// Binary bytes under a JSON Content-Type are a 400, not a crash.
	raw := encodeBatch(t, []ReportRequest{validReport("dev-j2")})
	httpResp, err := http.Post(ts.URL+"/v1/report", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("binary body as JSON: status %d", httpResp.StatusCode)
	}
}
