package client

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"lpvs/internal/server"
	"lpvs/internal/wire"
)

// TestNoFallbackOnValidation400 pins that a refused batch surfaces its
// *APIError: whatever the daemon refuses the body with — a 415 for
// version skew, a decode 400, a validation 400 — ReportBatch sends that
// one binary request and returns the envelope, and the next batch goes
// out binary again. The daemon answers a batch's rejected records in a
// 200, so a stub in front of it refuses the first three requests and
// relays the rest.
func TestNoFallbackOnValidation400(t *testing.T) {
	edge := edgeServer(t, -1)
	refusals := []struct {
		status int
		code   string
		msg    string
	}{
		{http.StatusUnsupportedMediaType, server.CodeUnsupportedMedia, "binary report: unsupported frame version"},
		{http.StatusBadRequest, server.CodeBadRequest, "decode: invalid character 'L' looking for beginning of value"},
		{http.StatusBadRequest, server.CodeBadRequest, `unknown channel "no-such-channel"`},
	}
	var requests, nonBinary atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := requests.Add(1)
		if r.Header.Get("Content-Type") != wire.ContentType {
			nonBinary.Add(1)
		}
		if n <= int64(len(refusals)) {
			ref := refusals[n-1]
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(ref.status)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: server.ErrorBody{Code: ref.code, Message: ref.msg}})
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
	for i, ref := range refusals {
		_, err := report(c)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != ref.status || apiErr.Code != ref.code {
			t.Fatalf("refusal %d: err %v, want an *APIError %d %s", i, err, ref.status, ref.code)
		}
		if got := requests.Load(); got != int64(i+1) {
			t.Fatalf("refusal %d: %d requests sent, want %d (no resend)", i, got, i+1)
		}
	}
	if resp, err := report(c); err != nil || resp.Accepted != 1 {
		t.Fatalf("report after the refusals: %+v, %v", resp, err)
	}
	if got := nonBinary.Load(); got != 0 {
		t.Fatalf("%d of %d requests were not binary batches", got, requests.Load())
	}
}

// TestBinaryDefaultAgainstRealDaemon proves the happy path end to end:
// a fresh client's batch is accepted by the real daemon, which answers
// its rejections only.
func TestBinaryDefaultAgainstRealDaemon(t *testing.T) {
	ts := edgeServer(t, -1)
	c, err := New(ts.URL, testDevice(t, "dev-bin", 0.6), nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.ReportBatch([]server.ReportRequest{c.ReportRequest()})
	if err != nil || batch.Accepted != 1 {
		t.Fatalf("binary batch: %+v, %v", batch, err)
	}
	if len(batch.Results) != 0 {
		t.Fatalf("binary batch returned %d results, want rejections only", len(batch.Results))
	}
}
