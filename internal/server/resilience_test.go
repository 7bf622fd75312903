package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeEnvelope asserts a response is a v1 error envelope and returns
// its body.
func decodeEnvelope(tb testing.TB, resp *http.Response) ErrorBody {
	tb.Helper()
	var env ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		tb.Fatalf("status %d body is not a v1 envelope: %v", resp.StatusCode, err)
	}
	if env.Error.Code == "" {
		tb.Fatalf("status %d envelope has no code", resp.StatusCode)
	}
	return env.Error
}

func TestErrorEnvelopeCodes(t *testing.T) {
	_, ts := testServer(t, -1)
	cases := []struct {
		name      string
		method    string
		path      string
		body      string
		status    int
		code      string
		retryable bool
	}{
		{"unknown device", "GET", "/v1/decision?device=ghost", "", 404, CodeUnknownDevice, false},
		{"missing device param", "GET", "/v1/decision", "", 400, CodeBadRequest, false},
		{"malformed report", "POST", "/v1/report", "{not json", 400, CodeBadRequest, false},
		{"invalid report", "POST", "/v1/report", `{"device_id":""}`, 400, CodeBadRequest, false},
		{"unknown channel", "POST", "/v1/report", reportJSON(t, "dev-x", "nope"), 400, CodeUnknownChannel, false},
		{"unknown route", "GET", "/v1/nope", "", 404, CodeNotFound, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
			body := decodeEnvelope(t, resp)
			if body.Code != c.code {
				t.Fatalf("code %q, want %q", body.Code, c.code)
			}
			if body.Retryable != c.retryable {
				t.Fatalf("retryable %v, want %v", body.Retryable, c.retryable)
			}
		})
	}
}

func reportJSON(tb testing.TB, id, channel string) string {
	tb.Helper()
	r := validReport(id)
	r.ChannelID = channel
	buf, err := json.Marshal(r)
	if err != nil {
		tb.Fatal(err)
	}
	return string(buf)
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, -1)
	cases := []struct {
		method, path, allow string
	}{
		{"GET", "/v1/report", "POST"},
		{"DELETE", "/v1/tick", "POST"},
		{"POST", "/v1/status", "GET"},
		{"PUT", "/v1/decision", "GET"},
		{"POST", "/metrics", "GET"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Fatalf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
		if body := decodeEnvelope(t, resp); body.Code != CodeMethodNotAllowed {
			t.Fatalf("%s %s: code %q", c.method, c.path, body.Code)
		}
		resp.Body.Close()
	}
}

// TestBodyCap413 holds a POST body to DefaultMaxBodyBytes whether its
// length is declared (Content-Length, which net/http's body reader
// already stops at) or not (chunked, read through http.MaxBytesReader):
// one byte over is 413 payload_too_large, the cap itself is read as
// usual.
func TestBodyCap413(t *testing.T) {
	const maxBody = DefaultMaxBodyBytes
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	report, err := json.Marshal(validReport("dev-1"))
	if err != nil {
		t.Fatal(err)
	}
	pad := func(n int) []byte { return append(report, bytes.Repeat([]byte(" "), n-len(report))...) }
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"junk one byte over the cap", bytes.Repeat([]byte("x"), maxBody+1), http.StatusRequestEntityTooLarge},
		{"a report one byte over the cap", pad(maxBody + 1), http.StatusRequestEntityTooLarge},
		{"a report at the cap", pad(maxBody), http.StatusOK},
	} {
		for _, known := range []bool{true, false} {
			var body io.Reader = bytes.NewReader(tc.body)
			if !known {
				body = io.MultiReader(body) // a reader of no known length: sent chunked
			}
			resp, err := http.Post(ts.URL+"/v1/report", "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Errorf("%s, known length %v: status %d, want %d", tc.name, known, resp.StatusCode, tc.status)
			} else if tc.status != http.StatusOK {
				if env := decodeEnvelope(t, resp); env.Code != CodePayloadTooLarge {
					t.Errorf("%s, known length %v: code %q", tc.name, known, env.Code)
				}
			}
			resp.Body.Close()
		}
	}
}

func TestBatchReport(t *testing.T) {
	_, ts := testServer(t, -1)

	good1, good2 := validReport("dev-1"), validReport("dev-2")
	bad := validReport("dev-3")
	bad.Brightness = 7 // invalid

	var out BatchReportResponse
	resp := postWire(t, ts.URL, encodeBatch(t, []ReportRequest{good1, bad, good2}), &out)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if out.Accepted != 2 || out.Rejected != 1 {
		t.Fatalf("accepted/rejected = %d/%d, want 2/1", out.Accepted, out.Rejected)
	}
	if len(out.Results) != 1 {
		t.Fatalf("results length %d, want the one rejection", len(out.Results))
	}
	if row := out.Results[0]; row.Error == nil || row.Error.Code != CodeBadRequest {
		t.Fatalf("invalid report error = %+v", row.Error)
	}
	if row := out.Results[0]; row.Index != 1 || row.DeviceID != "dev-3" || row.Accepted {
		t.Fatalf("rejected item misattributed: %+v", row)
	}

	// The accepted members are schedulable; the rejected one left no
	// trace.
	var tickResp TickResponse
	if r := postJSON(t, ts.URL+"/v1/tick", struct{}{}, &tickResp); r.StatusCode != 200 {
		t.Fatalf("tick status %d", r.StatusCode)
	}
	if tickResp.Reports != 2 {
		t.Fatalf("tick saw %d reports, want 2", tickResp.Reports)
	}
	resp = getJSON(t, ts.URL+"/v1/decision?device=dev-3", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected batch item was committed: decision status %d", resp.StatusCode)
	}

	// An empty batch is a valid no-op.
	var empty BatchReportResponse
	if r := postWire(t, ts.URL, encodeBatch(t, nil), &empty); r.StatusCode != 200 {
		t.Fatalf("empty batch status %d", r.StatusCode)
	}
	if empty.Accepted != 0 || empty.Rejected != 0 {
		t.Fatalf("empty batch counted %+v", empty)
	}
}

// With the gate saturated, heavy routes shed with 429 + Retry-After
// while the observability routes stay live — the acceptance property
// for admission control.
func TestAdmissionShedsUnderSaturation(t *testing.T) {
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Saturate the gate directly: both slots taken by (simulated)
	// in-flight heavy requests.
	if !s.gate.tryAcquire() || !s.gate.tryAcquire() {
		t.Fatal("could not saturate the gate")
	}
	defer func() { s.gate.release(); s.gate.release() }()

	// A flood of reports is shed deterministically.
	var shedWG sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		shedWG.Add(1)
		go func(i int) {
			defer shedWG.Done()
			buf, _ := json.Marshal(validReport(fmt.Sprintf("dev-%d", i)))
			resp, err := http.Post(ts.URL+"/v1/report", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				errs <- fmt.Errorf("report %d: status %d, want 429", i, resp.StatusCode)
				return
			}
			if resp.Header.Get("Retry-After") == "" {
				errs <- fmt.Errorf("report %d: shed without Retry-After", i)
				return
			}
			var env ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != CodeOverloaded {
				errs <- fmt.Errorf("report %d: envelope %+v (%v)", i, env, err)
			}
		}(i)
	}
	shedWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// /healthz, /metrics and /v1/status answer while the gate is full.
	for _, path := range []string{"/healthz", "/metrics", "/v1/status"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s during saturation: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s during saturation: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	var status StatusResponse
	getJSON(t, ts.URL+"/v1/status", &status)
	if status.ShedRequests < 20 {
		t.Fatalf("status shed_requests = %d, want >= 20", status.ShedRequests)
	}
	if status.MaxInflight != 2 {
		t.Fatalf("status max_inflight = %d, want 2", status.MaxInflight)
	}

	// Releasing the gate restores service.
	s.gate.release()
	defer s.gate.tryAcquire() // rebalance the deferred releases above
	var rep ReportResponse
	if r := postJSON(t, ts.URL+"/v1/report", validReport("dev-ok"), &rep); r.StatusCode != 200 {
		t.Fatalf("report after release: status %d", r.StatusCode)
	}
}

// MaxInflight < 0 disables the gate entirely.
func TestAdmissionGateDisabled(t *testing.T) {
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1, MaxInflight: -1})
	if err != nil {
		t.Fatal(err)
	}
	if s.gate != nil {
		t.Fatal("negative MaxInflight built a gate")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var rep ReportResponse
	if r := postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), &rep); r.StatusCode != 200 {
		t.Fatalf("ungated report status %d", r.StatusCode)
	}
	var status StatusResponse
	getJSON(t, ts.URL+"/v1/status", &status)
	if status.MaxInflight != 0 {
		t.Fatalf("status max_inflight = %d, want 0 (disabled)", status.MaxInflight)
	}
}

// A panicking handler yields an envelope 500 and bumps the panic
// counter instead of killing the connection.
func TestPanicRecovery(t *testing.T) {
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.shell().recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/status", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var env ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != CodeInternal {
		t.Fatalf("panic response %q (%v)", rec.Body.String(), err)
	}
	if !env.Error.Retryable {
		t.Fatal("500 not marked retryable")
	}

	var buf bytes.Buffer
	if err := s.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lpvs_panics_total 1") {
		t.Fatal("lpvs_panics_total not incremented")
	}
}

// A tick under an impossible scheduling deadline degrades: the
// response and /v1/status flag it, the decision stays valid, and the
// degradation counter metric moves.
func TestTickDeadlineDegrades(t *testing.T) {
	s, err := New(Config{Stream: testStream(t), ServerStreams: 5, Lambda: 1, SchedDeadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 12; i++ {
		var rep ReportResponse
		if r := postJSON(t, ts.URL+"/v1/report", validReport(fmt.Sprintf("dev-%02d", i)), &rep); r.StatusCode != 200 {
			t.Fatalf("report %d status %d", i, r.StatusCode)
		}
	}
	var tick TickResponse
	if r := postJSON(t, ts.URL+"/v1/tick", struct{}{}, &tick); r.StatusCode != 200 {
		t.Fatalf("tick status %d", r.StatusCode)
	}
	if !tick.Degraded {
		t.Fatal("1ns deadline tick not flagged degraded")
	}
	if tick.Selected > 5 {
		t.Fatalf("degraded tick over capacity: selected %d of 5", tick.Selected)
	}

	var status StatusResponse
	getJSON(t, ts.URL+"/v1/status", &status)
	if status.DegradedTicks != 1 {
		t.Fatalf("status degraded_ticks = %d, want 1", status.DegradedTicks)
	}
	if status.SchedDeadlineSec <= 0 {
		t.Fatal("status does not report the configured deadline")
	}
	if status.LastTick == nil || !status.LastTick.Degraded || status.LastTick.DegradedReason == "" {
		t.Fatalf("status last tick %+v", status.LastTick)
	}

	var buf bytes.Buffer
	if err := s.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lpvs_sched_degraded_total 1") {
		t.Fatal("lpvs_sched_degraded_total not incremented")
	}
}

// Without a configured deadline the tick is never flagged.
func TestTickNoDeadlineNotDegraded(t *testing.T) {
	_, ts := testServer(t, -1)
	var rep ReportResponse
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), &rep)
	var tick TickResponse
	if r := postJSON(t, ts.URL+"/v1/tick", struct{}{}, &tick); r.StatusCode != 200 {
		t.Fatalf("tick status %d", r.StatusCode)
	}
	if tick.Degraded {
		t.Fatal("unbounded tick flagged degraded")
	}
}
