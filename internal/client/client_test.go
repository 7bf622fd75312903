package client

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lpvs/internal/device"
	"lpvs/internal/display"
	"lpvs/internal/server"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

func edgeServer(tb testing.TB, streams int) *httptest.Server {
	tb.Helper()
	stream, err := video.Generate(stats.NewRNG(1), video.DefaultGenConfig("ch", video.Esports, 120))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := server.New(server.Config{Stream: stream, ServerStreams: streams, Lambda: 1})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return ts
}

func testDevice(tb testing.TB, id string, energy float64) *device.Device {
	tb.Helper()
	bat, err := device.NewBattery(50_000, energy)
	if err != nil {
		tb.Fatal(err)
	}
	return &device.Device{
		ID:         id,
		Display:    display.Spec{Type: display.OLED, Resolution: display.Res1080p, DiagonalInch: 6, Brightness: 0.6},
		Battery:    bat,
		BasePowerW: 0.4,
		GiveUpFrac: 0.05,
	}
}

// report sends c's device report the way a device reports: as a batch,
// here of one.
func report(c *Client) (server.BatchReportResponse, error) {
	return c.ReportBatch([]server.ReportRequest{c.ReportRequest()})
}

func tick(tb testing.TB, ts *httptest.Server) server.TickResponse {
	tb.Helper()
	resp, err := http.Post(ts.URL+"/v1/tick", "application/json", strings.NewReader("{}"))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("tick status %d", resp.StatusCode)
	}
	var out server.TickResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New("http://x", nil, nil); err == nil {
		t.Fatal("nil device accepted")
	}
	bad := testDevice(t, "", 0.5)
	if _, err := New("http://x", bad, nil); err == nil {
		t.Fatal("invalid device accepted")
	}
}

func TestReportAndDecision(t *testing.T) {
	ts := edgeServer(t, -1)
	c, err := New(ts.URL, testDevice(t, "dev-1", 0.6), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report(c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1 {
		t.Fatal("report rejected")
	}
	tick(t, ts)
	dec, err := c.Decision()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Transform {
		t.Fatal("not selected under unbounded capacity")
	}
}

func TestPlaySlotDrainsBatteryAndObserves(t *testing.T) {
	ts := edgeServer(t, -1)
	dev := testDevice(t, "dev-1", 0.8)
	c, err := New(ts.URL, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(c); err != nil {
		t.Fatal(err)
	}
	tick(t, ts)

	levelBefore := dev.Battery.LevelJ
	res, err := c.PlaySlot(30)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksPlayed != 30 {
		t.Fatalf("played %d chunks", res.ChunksPlayed)
	}
	if !res.Transformed {
		t.Fatal("slot not transformed")
	}
	if res.MeanReduction <= 0 || res.MeanReduction >= 1 {
		t.Fatalf("mean reduction %v", res.MeanReduction)
	}
	if dev.Battery.LevelJ >= levelBefore {
		t.Fatal("battery did not drain")
	}
	if res.EnergyJ >= res.UntransformedJ {
		t.Fatalf("transform saved nothing: %v vs %v", res.EnergyJ, res.UntransformedJ)
	}

	// The observation must have reached the edge estimator.
	dec, err := c.Decision()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gamma == 0.31 {
		t.Fatal("gamma still at prior midpoint after observation")
	}
}

func TestPlaySlotUnselected(t *testing.T) {
	ts := edgeServer(t, 0)
	dev := testDevice(t, "dev-1", 0.8)
	c, err := New(ts.URL, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(c); err != nil {
		t.Fatal(err)
	}
	tick(t, ts)
	res, err := c.PlaySlot(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transformed {
		t.Fatal("transformed on a zero-capacity edge")
	}
	if res.EnergyJ != res.UntransformedJ {
		t.Fatal("untransformed playback should cost plain power")
	}
}

func TestPlaySlotStopsOnGiveUp(t *testing.T) {
	ts := edgeServer(t, -1)
	dev := testDevice(t, "dev-1", 0.051) // just above the 5% give-up line
	c, err := New(ts.URL, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(c); err != nil {
		t.Fatal(err)
	}
	tick(t, ts)
	res, err := c.PlaySlot(30)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksPlayed == 30 && dev.State == device.Watching {
		t.Fatal("device should have given up mid-slot")
	}
	if dev.State != device.GaveUp {
		t.Fatalf("state %v, want GaveUp", dev.State)
	}
}

func TestPlaylistAndPlayCurrentSlot(t *testing.T) {
	ts := edgeServer(t, -1)
	dev := testDevice(t, "dev-1", 0.8)
	c, err := New(ts.URL, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(c); err != nil {
		t.Fatal(err)
	}
	tick(t, ts)

	var pl server.PlaylistResponse
	if err := c.call.GetJSON("/v1/playlist?device="+c.dev.ID, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.Chunks != 30 {
		t.Fatalf("playlist chunks = %d", pl.Chunks)
	}
	res, err := c.PlaySlot(pl.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksPlayed != pl.Chunks {
		t.Fatalf("played %d of %d", res.ChunksPlayed, pl.Chunks)
	}
}

func TestRetryRecoversFromFlakyEdge(t *testing.T) {
	// A handler that fails twice with 503 before succeeding.
	fails := 2
	inner := edgeServer(t, -1)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		// Proxy to the real edge.
		resp, err := forward(inner.URL, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	defer flaky.Close()

	dev := testDevice(t, "dev-1", 0.7)
	c, err := New(flaky.URL, dev, nil, WithRetries(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report(c)
	if err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if rep.Accepted != 1 {
		t.Fatal("report rejected")
	}
	if fails != 0 {
		t.Fatalf("expected both failures consumed, %d left", fails)
	}
}

func TestNoRetryFailsFast(t *testing.T) {
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer always.Close()
	dev := testDevice(t, "dev-1", 0.7)
	c, err := New(always.URL, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(c); err == nil {
		t.Fatal("503 swallowed without retries")
	}
}

func TestRetryDoesNotRetry4xx(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls++
		http.Error(w, `{"error":"bad"}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	dev := testDevice(t, "dev-1", 0.7)
	c, err := New(srv.URL, dev, nil, WithRetries(5, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(c); err == nil {
		t.Fatal("400 swallowed")
	}
	if calls != 1 {
		t.Fatalf("4xx retried %d times", calls)
	}
}

// forward relays r to the daemon at base as it arrived.
func forward(base string, r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost {
		return http.Post(base+r.URL.RequestURI(), r.Header.Get("Content-Type"), r.Body)
	}
	return http.Get(base + r.URL.RequestURI())
}

func TestMultiDeviceSession(t *testing.T) {
	ts := edgeServer(t, -1)
	clients := make([]*Client, 0, 8)
	for i := 0; i < 8; i++ {
		dev := testDevice(t, deviceName(i), 0.3+0.08*float64(i))
		c, err := New(ts.URL, dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for slot := 0; slot < 3; slot++ {
		for _, c := range clients {
			if c.Device().State != device.Watching {
				continue
			}
			if _, err := report(c); err != nil {
				t.Fatal(err)
			}
		}
		tick(t, ts)
		for _, c := range clients {
			if c.Device().State != device.Watching {
				continue
			}
			if _, err := c.PlaySlot(30); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range clients {
		if c.Device().WatchedSec == 0 {
			t.Fatalf("device %s never watched", c.Device().ID)
		}
	}
}

func deviceName(i int) string {
	return "dev-" + string(rune('a'+i))
}
