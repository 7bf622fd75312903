package client

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"lpvs/internal/server"
	"lpvs/internal/wire"
)

// oldDaemon stubs a pre-binary edge daemon: it JSON-decodes every
// report body regardless of Content-Type, exactly like the seed
// handleReport did, so a binary frame comes back as a 400 bad_request
// "decode: ..." envelope. binary/jsonOK count what the client sent.
func oldDaemon(tb testing.TB) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	tb.Helper()
	var binary, jsonOK atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var reqs []server.ReportRequest
		if json.Unmarshal(body, &reqs) != nil {
			binary.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: server.ErrorBody{
				Code:    server.CodeBadRequest,
				Message: "decode: invalid character 'L' looking for beginning of value",
			}})
			return
		}
		jsonOK.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(server.BatchReportResponse{Slot: 1, Accepted: len(reqs)})
	}))
	tb.Cleanup(ts.Close)
	return ts, &binary, &jsonOK
}

// TestWireFallbackOldDaemon is the compatibility regression: against a
// daemon that predates the binary codec, the client's first report
// tries the wire format, eats the decode 400, resends as JSON, and
// stays on JSON for good — one wasted round-trip per process, not per
// slot.
func TestWireFallbackOldDaemon(t *testing.T) {
	ts, binary, jsonOK := oldDaemon(t)
	c, err := New(ts.URL, testDevice(t, "dev-old", 0.6), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, err := report(c)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if resp.Accepted != 1 {
			t.Fatalf("report %d not accepted", i)
		}
	}
	if _, err := c.ReportBatch([]server.ReportRequest{c.ReportRequest()}); err != nil {
		t.Fatalf("batch after fallback: %v", err)
	}
	if got := binary.Load(); got != 1 {
		t.Fatalf("binary attempts = %d, want exactly 1 (fallback must be sticky)", got)
	}
	if got := jsonOK.Load(); got != 4 {
		t.Fatalf("json reports = %d, want 4", got)
	}
}

// TestWireFallbackOn415 covers the forward-skew case: a daemon that
// knows the Content-Type but not this frame version answers 415
// unsupported_media, and the client downgrades to JSON.
func TestWireFallbackOn415(t *testing.T) {
	var binary, jsonOK atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Header.Get("Content-Type") == wire.ContentType {
			binary.Add(1)
			w.WriteHeader(http.StatusUnsupportedMediaType)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: server.ErrorBody{
				Code:    server.CodeUnsupportedMedia,
				Message: "binary report: unsupported frame version",
			}})
			return
		}
		jsonOK.Add(1)
		json.NewEncoder(w).Encode(server.BatchReportResponse{Slot: 1, Accepted: 1})
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, testDevice(t, "dev-skew", 0.6), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := report(c); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	if binary.Load() != 1 || jsonOK.Load() != 2 {
		t.Fatalf("binary=%d json=%d, want 1 and 2", binary.Load(), jsonOK.Load())
	}
}

// TestNoFallbackOnValidation400 pins the negative space: an envelope
// validation rejection (a 400 that is not a decode failure) is the
// caller's bug, not a codec mismatch, and must NOT flip the client to
// JSON. The daemon answers a batch's rejected records in a 200, so a
// stub in front of it answers the first report with the daemon's
// unknown-channel 400 and forwards the rest.
func TestNoFallbackOnValidation400(t *testing.T) {
	edge := edgeServer(t, -1)
	var rejected atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rejected.Swap(true) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: server.ErrorBody{
				Code:    server.CodeBadRequest,
				Message: `unknown channel "no-such-channel"`,
			}})
			return
		}
		resp, err := forward(edge.URL, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, testDevice(t, "dev-val", 0.6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(c); err == nil {
		t.Fatal("unknown channel accepted")
	}
	if c.jsonOnly {
		t.Fatal("validation 400 flipped the client to JSON")
	}
	if resp, err := report(c); err != nil || resp.Accepted != 1 {
		t.Fatalf("report after the rejection: %+v, %v", resp, err)
	}
}

// TestBinaryDefaultAgainstRealDaemon proves the happy path end to end:
// a fresh client speaks binary to the real daemon with no JSON leg.
func TestBinaryDefaultAgainstRealDaemon(t *testing.T) {
	ts := edgeServer(t, -1)
	c, err := New(ts.URL, testDevice(t, "dev-bin", 0.6), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := report(c)
	if err != nil || resp.Accepted != 1 {
		t.Fatalf("binary report: %+v, %v", resp, err)
	}
	if c.jsonOnly {
		t.Fatal("client fell back against a binary-capable daemon")
	}
	batch, err := c.ReportBatch([]server.ReportRequest{c.ReportRequest()})
	if err != nil || batch.Accepted != 1 {
		t.Fatalf("binary batch: %+v, %v", batch, err)
	}
	if len(batch.Results) != 0 {
		t.Fatalf("binary batch returned %d results, want rejections only", len(batch.Results))
	}
}
