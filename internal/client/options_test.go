package client

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"lpvs/internal/server"
	"lpvs/internal/testenv"
)

// The Caller is the shared transport under both the device Client and
// the router's shard-forwarding client; these tests pin its public
// surface directly.

func TestCallerEnvelopeError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":{"code":"unknown_device","message":"nope","retryable":false}}`))
	}))
	defer ts.Close()

	c, err := NewCaller(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{}
	err = c.GetJSON("/v1/decision?device=x", &out)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Code != server.CodeUnknownDevice {
		t.Fatalf("bad envelope decode: %+v", apiErr)
	}
}

func TestCallerRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c, err := NewCaller(ts.URL, WithRetries(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.PostJSON("/x", map[string]int{}, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || calls.Load() != 3 {
		t.Fatalf("ok=%v calls=%d", out.OK, calls.Load())
	}
}

func TestCallerBreakerShared(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c, err := NewCaller(ts.URL, WithCircuitBreaker(2, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	c.GetJSON("/a", nil)
	c.GetJSON("/a", nil) // second failure opens the circuit
	err = c.GetJSON("/a", nil)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
}

func TestCallerNilOut(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"whatever": 1}`))
	}))
	defer ts.Close()
	c, err := NewCaller(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.GetJSON("/x", nil); err != nil {
		t.Fatalf("nil out should discard the body: %v", err)
	}
}

func TestWithHTTPClientOption(t *testing.T) {
	used := false
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		used = true
		return nil, errors.New("sentinel")
	})}
	c, err := NewCaller("http://example.invalid", WithHTTPClient(hc))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.GetJSON("/x", nil); err == nil {
		t.Fatal("want transport error")
	}
	if !used {
		t.Fatal("WithHTTPClient transport not used")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// stubTransport answers every request without a socket: with err when
// set, else with an empty response of the given status.
type stubTransport struct {
	status int
	err    error
}

func (s stubTransport) RoundTrip(*http.Request) (*http.Response, error) {
	if s.err != nil {
		return nil, s.err
	}
	return &http.Response{StatusCode: s.status, Body: http.NoBody, Header: http.Header{}}, nil
}

// TestCallerErrorLabels pins the "<METHOD> <path>" label of the two
// error strings that carry it, for all three verbs of the Caller.
func TestCallerErrorLabels(t *testing.T) {
	down, err := NewCaller("http://edge.test",
		WithHTTPClient(&http.Client{Transport: stubTransport{err: errors.New("boom")}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		call func() error
		want string
	}{
		{func() error { return down.GetJSON("/v1/decision?device=d1", nil) },
			`client: GET /v1/decision?device=d1: Get "http://edge.test/v1/decision?device=d1": boom`},
		{func() error { return down.PostJSON("/v1/tick", struct{}{}, nil) },
			`client: POST /v1/tick: Post "http://edge.test/v1/tick": boom`},
		{func() error { return down.PostRaw("/v1/report", "application/x-lpvs-report", []byte{1}, nil) },
			`client: POST /v1/report: Post "http://edge.test/v1/report": boom`},
	} {
		if err := tc.call(); err == nil || err.Error() != tc.want {
			t.Errorf("error %q, want %q", err, tc.want)
		}
	}

	shedding, err := NewCaller("http://edge.test",
		WithHTTPClient(&http.Client{Transport: stubTransport{status: http.StatusServiceUnavailable}}),
		WithRetries(5, time.Millisecond), WithRetryBudget(1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	const want = "client: GET /v1/status: retry budget exhausted: client: edge returned 503 (unknown): status 503"
	if err := shedding.GetJSON("/v1/status", nil); err == nil || err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

// TestCallerAllocsNoLabelPerCall guards the success path of the Caller:
// going through GetJSON costs no allocation beyond the request itself —
// the error label is only built when an error is.
func TestCallerAllocsNoLabelPerCall(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	hc := &http.Client{Transport: stubTransport{status: http.StatusOK}}
	c, err := NewCaller("http://edge.test", WithHTTPClient(hc))
	if err != nil {
		t.Fatal(err)
	}
	const path = "/v1/decision?device=d1"
	bare := testing.AllocsPerRun(100, func() {
		resp, err := hc.Get(c.Base() + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := decode(resp, nil); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	})
	through := testing.AllocsPerRun(100, func() {
		if err := c.GetJSON(path, nil); err != nil {
			t.Fatal(err)
		}
	})
	if through > bare {
		t.Fatalf("GetJSON allocates %.0f per call, the bare request %.0f", through, bare)
	}
}
