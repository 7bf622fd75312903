package client

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"lpvs/internal/chaos"
	"lpvs/internal/device"
	"lpvs/internal/server"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// chaoticEdge builds a real edge daemon wrapped in the chaos injector.
func chaoticEdge(tb testing.TB, cfg chaos.Config) (*httptest.Server, *chaos.Injector) {
	tb.Helper()
	stream, err := video.Generate(stats.NewRNG(1), video.DefaultGenConfig("ch", video.Esports, 120))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := server.New(server.Config{Stream: stream, ServerStreams: -1, Lambda: 1})
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := chaos.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(inj.Middleware(s.Handler()))
	tb.Cleanup(ts.Close)
	return ts, inj
}

// A retrying client rides out a chaos-injected edge: every injected
// 5xx carries a valid envelope, the client retries through them, and
// the session completes. The seed makes the fault pattern exact.
func TestRetrySurvivesChaoticEdge(t *testing.T) {
	ts, inj := chaoticEdge(t, chaos.Config{Seed: 2, ErrorProb: 0.4})
	dev := testDevice(t, "dev-1", 0.7)
	c, err := New(ts.URL, dev, nil, WithRetries(8, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := report(c); err != nil {
			t.Fatalf("report %d through chaos failed: %v", i, err)
		}
	}
	st := inj.Stats()
	if st.Errored == 0 {
		t.Fatalf("seed injected no faults (stats %+v); the test is vacuous", st)
	}
}

// Partial failures (truncated 200 bodies) surface as decode errors and
// are not silently accepted.
func TestPartialFailureSurfacesAsError(t *testing.T) {
	ts, _ := chaoticEdge(t, chaos.Config{PartialProb: 1})
	dev := testDevice(t, "dev-1", 0.7)
	c, err := New(ts.URL, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(c); err == nil {
		t.Fatal("truncated response body accepted as success")
	}
}

// Chaos on the client's own transport (the lossy-network side): with
// retries the session still completes.
func TestRetrySurvivesChaoticTransport(t *testing.T) {
	ts, _ := chaoticEdge(t, chaos.Config{}) // clean server
	inj, err := chaos.New(chaos.Config{Seed: 9, ErrorProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice(t, "dev-1", 0.7)
	httpc := &http.Client{Transport: inj.Transport(nil)}
	c, err := New(ts.URL, dev, httpc, WithRetries(8, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := report(c); err != nil {
			t.Fatalf("report %d through transport chaos failed: %v", i, err)
		}
	}
	if st := inj.Stats(); st.Errored == 0 {
		t.Fatalf("seed injected no transport faults (stats %+v)", st)
	}
}

// Non-200 responses decode into a typed *APIError carrying the
// envelope's stable code.
func TestTypedAPIError(t *testing.T) {
	ts, _ := chaoticEdge(t, chaos.Config{})
	dev := testDevice(t, "dev-1", 0.7)
	c, err := New(ts.URL, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Observing before ever reporting: the edge has never seen the
	// device.
	_, err = c.Observe(0.3)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T) is not an *APIError", err, err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Code != "unknown_device" {
		t.Fatalf("APIError %+v", apiErr)
	}
	if apiErr.Retryable {
		t.Fatal("404 marked retryable")
	}
}

// A shed request's Retry-After hint replaces the computed backoff for
// the next attempt.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"shed","retryable":true}}`))
			return
		}
		w.Write([]byte(`{"slot":0,"accepted":1}`))
	}))
	defer srv.Close()

	dev := testDevice(t, "dev-1", 0.7)
	c, err := New(srv.URL, dev, nil, WithRetries(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := report(c); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry after %v; the 1 s Retry-After hint was ignored", elapsed)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d calls, want 2", calls.Load())
	}
}

// The circuit breaker opens after `threshold` consecutive failures,
// fails fast while open, probes after the cooldown, and closes on a
// successful probe.
func TestCircuitBreakerLifecycle(t *testing.T) {
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"internal","message":"down","retryable":true}}`))
			return
		}
		w.Write([]byte(`{"slot":0,"accepted":1}`))
	}))
	defer srv.Close()

	dev := testDevice(t, "dev-1", 0.7)
	c, err := New(srv.URL, dev, nil, WithCircuitBreaker(2, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := report(c); err == nil {
			t.Fatalf("report %d against a down edge succeeded", i)
		}
	}
	// Open: the call fails fast with ErrCircuitOpen, never reaching the
	// (now healthy) server.
	healthy.Store(true)
	if _, err := report(c); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker returned %v, want ErrCircuitOpen", err)
	}
	// After the cooldown one probe is admitted; its success closes the
	// circuit and normal traffic resumes.
	time.Sleep(60 * time.Millisecond)
	if _, err := report(c); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if _, err := report(c); err != nil {
		t.Fatalf("closed breaker rejected traffic: %v", err)
	}
}

// A failed probe re-opens the circuit for another full cooldown.
func TestCircuitBreakerReopensOnFailedProbe(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	dev := testDevice(t, "dev-1", 0.7)
	c, err := New(srv.URL, dev, nil, WithCircuitBreaker(1, 30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(c); err == nil {
		t.Fatal("down edge accepted")
	}
	time.Sleep(40 * time.Millisecond)
	if _, err := report(c); errors.Is(err, ErrCircuitOpen) {
		t.Fatal("probe not admitted after cooldown")
	}
	// The probe failed: the circuit is open again immediately.
	if _, err := report(c); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker not re-opened after failed probe: %v", err)
	}
}

// The retry budget caps amplification: once the bucket is empty,
// failures surface without further attempts.
func TestRetryBudgetExhaustion(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	dev := testDevice(t, "dev-1", 0.7)
	c, err := New(srv.URL, dev, nil,
		WithRetries(10, time.Millisecond), WithRetryBudget(3, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = report(c)
	if err == nil {
		t.Fatal("down edge accepted")
	}
	// 1 initial attempt + 3 budgeted retries; the 11-attempt retry
	// policy was cut short by the budget.
	if got := calls.Load(); got != 4 {
		t.Fatalf("%d attempts, want 4 (budget of 3 retries)", got)
	}
	// The second call has no retry tokens left at all.
	calls.Store(0)
	if _, err := report(c); err == nil {
		t.Fatal("down edge accepted")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d attempts with an empty budget, want 1", got)
	}
}

// Fleet batching: one POST covers every watching member, rides the
// first client's resilience stack, and skips members who stopped
// watching.
func TestFleetBatchedReport(t *testing.T) {
	ts, _ := chaoticEdge(t, chaos.Config{})
	clients := make([]*Client, 0, 3)
	for _, id := range []string{"dev-a", "dev-b", "dev-c"} {
		c, err := New(ts.URL, testDevice(t, id, 0.6), nil)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	fleet, err := NewFleet(clients...)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := fleet.Report()
	if err != nil {
		t.Fatal(err)
	}
	if batch.Accepted != 3 || batch.Rejected != 0 {
		t.Fatalf("batch %+v", batch)
	}
	tick(t, ts)
	for _, c := range clients {
		if _, err := c.Decision(); err != nil {
			t.Fatalf("%s has no decision after batched report: %v", c.Device().ID, err)
		}
	}
	// A member that stopped watching drops out of the next batch.
	clients[1].Device().State = device.GaveUp
	batch, err = fleet.Report()
	if err != nil {
		t.Fatal(err)
	}
	if batch.Accepted != 2 {
		t.Fatalf("batch after give-up %+v", batch)
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := NewFleet(); err == nil {
		t.Fatal("empty fleet accepted")
	}
	ts1, _ := chaoticEdge(t, chaos.Config{})
	ts2, _ := chaoticEdge(t, chaos.Config{})
	c1, err := New(ts1.URL, testDevice(t, "dev-a", 0.6), nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(ts2.URL, testDevice(t, "dev-b", 0.6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFleet(c1, c2); err == nil {
		t.Fatal("cross-edge fleet accepted")
	}
	if _, err := NewFleet(c1, nil); err == nil {
		t.Fatal("nil member accepted")
	}
}
