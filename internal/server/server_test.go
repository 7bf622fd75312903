package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"lpvs/internal/obs"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

func testStream(tb testing.TB) *video.Video {
	tb.Helper()
	v, err := video.Generate(stats.NewRNG(1), video.DefaultGenConfig("ch", video.Gaming, 90))
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func testServer(tb testing.TB, streams int) (*Server, *httptest.Server) {
	tb.Helper()
	s, err := New(Config{Stream: testStream(tb), ServerStreams: streams, Lambda: 1})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

func postJSON(tb testing.TB, url string, body any, out any) *http.Response {
	tb.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
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

func getJSON(tb testing.TB, url string, out any) *http.Response {
	tb.Helper()
	resp, err := http.Get(url)
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

func validReport(id string) ReportRequest {
	return ReportRequest{
		DeviceID:         id,
		DisplayType:      "OLED",
		Width:            1920,
		Height:           1080,
		DiagonalInch:     6,
		Brightness:       0.6,
		EnergyFrac:       0.5,
		BatteryCapacityJ: 50_000,
		BasePowerW:       0.4,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil stream accepted")
	}
	if _, err := New(Config{Stream: testStream(t), SlotSec: 5}); err == nil {
		t.Fatal("slot shorter than chunk accepted")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, -1)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestReportTickDecisionFlow(t *testing.T) {
	_, ts := testServer(t, -1)

	var rep ReportResponse
	if resp := postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), &rep); resp.StatusCode != 200 {
		t.Fatalf("report status %d", resp.StatusCode)
	}
	if !rep.Accepted || rep.Slot != 0 {
		t.Fatalf("report response %+v", rep)
	}

	var tick TickResponse
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, &tick)
	if tick.Reports != 1 || tick.Selected != 1 {
		t.Fatalf("tick %+v, want 1 report selected (unbounded capacity)", tick)
	}

	var dec DecisionResponse
	getJSON(t, ts.URL+"/v1/decision?device=dev-1", &dec)
	if !dec.Transform {
		t.Fatalf("decision %+v, want transform", dec)
	}
	if dec.Gamma <= 0 || dec.Gamma >= 1 {
		t.Fatalf("gamma %v", dec.Gamma)
	}
}

func TestReportValidation(t *testing.T) {
	_, ts := testServer(t, -1)
	bad := validReport("d")
	bad.DisplayType = "PLASMA"
	if resp := postJSON(t, ts.URL+"/v1/report", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad display type -> %d", resp.StatusCode)
	}
	bad = validReport("d")
	bad.EnergyFrac = 2
	if resp := postJSON(t, ts.URL+"/v1/report", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad energy -> %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/report", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken JSON -> %d", resp.StatusCode)
	}
}

func TestDecisionUnknownDevice(t *testing.T) {
	_, ts := testServer(t, -1)
	if resp := getJSON(t, ts.URL+"/v1/decision?device=ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown device -> %d", resp.StatusCode)
	}
}

func TestChunkServesTransformedStats(t *testing.T) {
	_, ts := testServer(t, -1)
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)

	var chunk ChunkResponse
	getJSON(t, ts.URL+"/v1/chunk?device=dev-1&index=0", &chunk)
	if !chunk.Transformed {
		t.Fatal("selected device got untransformed chunk")
	}
	if chunk.PlainPowerW <= 0 {
		t.Fatal("no plain power estimate")
	}
	if chunk.DurationSec <= 0 || chunk.BitrateKbps <= 0 {
		t.Fatalf("bad chunk metadata %+v", chunk)
	}
}

func TestChunkUntransformedForUnselected(t *testing.T) {
	_, ts := testServer(t, 0) // zero-capacity server: nobody is selected
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	var tick TickResponse
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, &tick)
	if tick.Selected != 0 {
		t.Fatalf("zero capacity selected %d", tick.Selected)
	}
	var chunk ChunkResponse
	getJSON(t, ts.URL+"/v1/chunk?device=dev-1&index=0", &chunk)
	if chunk.Transformed {
		t.Fatal("unselected device got transformed chunk")
	}
	if chunk.BrightnessScale != 1 {
		t.Fatal("unselected chunk carries backlight instruction")
	}
}

func TestChunkErrors(t *testing.T) {
	_, ts := testServer(t, -1)
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)
	if resp := getJSON(t, ts.URL+"/v1/chunk?device=dev-1&index=notanumber", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad index -> %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/chunk?device=dev-1&index=9999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-window index -> %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/chunk?device=ghost&index=0", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown device -> %d", resp.StatusCode)
	}
}

func TestPlaylist(t *testing.T) {
	_, ts := testServer(t, -1)
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)

	var pl PlaylistResponse
	getJSON(t, ts.URL+"/v1/playlist?device=dev-1", &pl)
	if pl.Chunks != 30 || len(pl.Durations) != 30 {
		t.Fatalf("playlist %+v", pl)
	}
	if !pl.Transformed {
		t.Fatal("selected device's playlist not marked transformed")
	}
	if resp := getJSON(t, ts.URL+"/v1/playlist?device=ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown device -> %d", resp.StatusCode)
	}
}

func TestObserveUpdatesGamma(t *testing.T) {
	_, ts := testServer(t, -1)
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)

	var before DecisionResponse
	getJSON(t, ts.URL+"/v1/decision?device=dev-1", &before)

	var obs ObserveResponse
	postJSON(t, ts.URL+"/v1/observe", ObserveRequest{DeviceID: "dev-1", Reduction: 0.45}, &obs)
	if obs.Observations != 1 {
		t.Fatalf("observations = %d", obs.Observations)
	}
	if obs.Gamma <= before.Gamma {
		t.Fatalf("gamma did not move toward the observation: %v -> %v", before.Gamma, obs.Gamma)
	}

	// Invalid observations are rejected.
	if resp := postJSON(t, ts.URL+"/v1/observe", ObserveRequest{DeviceID: "dev-1", Reduction: 1.5}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid reduction -> %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/observe", ObserveRequest{DeviceID: "ghost", Reduction: 0.3}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown device -> %d", resp.StatusCode)
	}
}

func TestStatus(t *testing.T) {
	_, ts := testServer(t, 100)
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	postJSON(t, ts.URL+"/v1/report", validReport("dev-2"), nil)

	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.Devices != 2 || st.PendingReports != 2 {
		t.Fatalf("status %+v", st)
	}
	if st.ComputeCapacity != 100 {
		t.Fatalf("capacity %v", st.ComputeCapacity)
	}

	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.Slot != 1 || st.PendingReports != 0 || st.LastSelected != 2 {
		t.Fatalf("post-tick status %+v", st)
	}
}

func TestCapacityLimitsSelection(t *testing.T) {
	_, ts := testServer(t, 1) // one 720p transform unit
	for _, id := range []string{"a", "b", "c", "d"} {
		r := validReport(id)
		r.Width, r.Height = 1920, 1080 // each costs ~2.8 units
		postJSON(t, ts.URL+"/v1/report", r, nil)
	}
	var tick TickResponse
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, &tick)
	if tick.Selected != 0 {
		t.Fatalf("selected %d 1080p streams on a 1-unit server", tick.Selected)
	}
}

func TestSlotWindowWrapsAround(t *testing.T) {
	s, ts := testServer(t, -1)
	// The stream has 90 chunks = 3 slots; tick past the end.
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
		postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)
	}
	var chunk ChunkResponse
	getJSON(t, ts.URL+"/v1/chunk?device=dev-1&index=0", &chunk)
	if chunk.DurationSec <= 0 {
		t.Fatal("wrapped window served bad chunk")
	}
	if got := len(s.slotWindow("", 4)); got != 30 {
		t.Fatalf("window size %d", got)
	}
}

func TestMultiChannelServer(t *testing.T) {
	def := testStream(t)
	extra, err := video.Generate(stats.NewRNG(2), video.DefaultGenConfig("music", video.Music, 60))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Stream: def, ExtraStreams: []*video.Video{extra}, ServerStreams: -1, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One device on each channel.
	rDef := validReport("dev-def")
	rMusic := validReport("dev-music")
	rMusic.ChannelID = "music"
	postJSON(t, ts.URL+"/v1/report", rDef, nil)
	postJSON(t, ts.URL+"/v1/report", rMusic, nil)
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)

	var cDef, cMusic ChunkResponse
	getJSON(t, ts.URL+"/v1/chunk?device=dev-def&index=0", &cDef)
	getJSON(t, ts.URL+"/v1/chunk?device=dev-music&index=0", &cMusic)
	// The music stream is much darker than the gaming default; on OLED
	// the plain power estimates must differ.
	if cDef.PlainPowerW <= cMusic.PlainPowerW {
		t.Fatalf("channel content not differentiated: %v vs %v", cDef.PlainPowerW, cMusic.PlainPowerW)
	}

	// Unknown channel rejected.
	bad := validReport("dev-x")
	bad.ChannelID = "ghost"
	if resp := postJSON(t, ts.URL+"/v1/report", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown channel -> %d", resp.StatusCode)
	}
}

func TestMultiChannelConfigValidation(t *testing.T) {
	def := testStream(t)
	if _, err := New(Config{Stream: def, ExtraStreams: []*video.Video{nil}}); err == nil {
		t.Fatal("nil extra stream accepted")
	}
	dup, err := video.Generate(stats.NewRNG(3), video.DefaultGenConfig(def.ID, video.IRL, 30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Stream: def, ExtraStreams: []*video.Video{dup}}); err == nil {
		t.Fatal("duplicate stream ID accepted")
	}
}

func scrapeMetrics(tb testing.TB, url string) string {
	tb.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, -1)
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)
	getJSON(t, ts.URL+"/v1/chunk?device=dev-1&index=0", &ChunkResponse{})

	text := scrapeMetrics(t, ts.URL)
	// Legacy metric names survive the registry migration verbatim.
	for _, want := range []string{
		"lpvs_reports_total 1",
		"lpvs_ticks_total 1",
		"lpvs_chunks_served_total 1",
		"lpvs_chunks_transformed_total 1",
		"lpvs_devices 1",
		"lpvs_slot 1",
		"lpvs_pending_reports 0",
		"lpvs_last_selected 1",
		"lpvs_gamma_mean",
		"# TYPE lpvs_reports_total counter",
		"# TYPE lpvs_devices gauge",
		// New families: HELP lines, histograms, per-route traffic.
		"# HELP lpvs_reports_total",
		"# HELP lpvs_tick_duration_seconds",
		"# TYPE lpvs_tick_duration_seconds histogram",
		"lpvs_tick_duration_seconds_count 1",
		"lpvs_tick_duration_seconds_sum",
		`lpvs_tick_duration_seconds_bucket{le="+Inf"} 1`,
		`lpvs_http_requests_total{route="POST /v1/report",code="200"} 1`,
		`lpvs_http_request_duration_seconds_count{route="POST /v1/tick"} 1`,
		`lpvs_sched_phase1_runs_total{optimal="true"} 1`,
		"lpvs_sched_eligible 1",
		"lpvs_sched_selected 1",
		"lpvs_gamma_observations_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}
}

// TestMetricsDistinctFamiliesAndOrdering checks the acceptance bar: a
// scrape exposes at least 15 distinct metric families, every family has
// HELP and TYPE lines, and families are emitted in sorted (stable)
// order.
func TestMetricsDistinctFamiliesAndOrdering(t *testing.T) {
	_, ts := testServer(t, -1)
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)

	text := scrapeMetrics(t, ts.URL)
	var families []string
	help := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(rest)[0])
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			help[strings.Fields(rest)[0]] = true
		}
	}
	if len(families) < 15 {
		t.Errorf("only %d metric families exposed, want >= 15: %v", len(families), families)
	}
	if !sort.StringsAreSorted(families) {
		t.Errorf("families not in sorted order: %v", families)
	}
	for _, f := range families {
		if !help[f] {
			t.Errorf("family %s has TYPE but no HELP", f)
		}
	}
	// Stable output: two scrapes of quiescent state are identical.
	if again := scrapeMetrics(t, ts.URL); len(again) == 0 {
		t.Error("second scrape empty")
	}
}

func TestTickResponseSchedulerBreakdown(t *testing.T) {
	_, ts := testServer(t, -1)
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	var tick TickResponse
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, &tick)
	if tick.Sched.Reports != 1 || tick.Sched.Selected != 1 {
		t.Fatalf("sched breakdown %+v", tick.Sched)
	}
	if !tick.Sched.Phase1Optimal {
		t.Fatal("one-device exact solve not reported optimal")
	}
	if tick.Sched.DurationSec <= 0 {
		t.Fatalf("tick duration %v", tick.Sched.DurationSec)
	}
	if tick.Sched.Phase1Sec < 0 || tick.Sched.Phase2Sec < 0 || tick.Sched.CompactSec < 0 {
		t.Fatalf("negative phase timing %+v", tick.Sched)
	}

	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.LastTick == nil {
		t.Fatal("status missing last tick after a tick ran")
	}
	if st.LastTick.Slot != 0 || st.LastTick.Selected != 1 {
		t.Fatalf("status last tick %+v", st.LastTick)
	}
}

func TestStatusLastTickNilBeforeFirstTick(t *testing.T) {
	_, ts := testServer(t, -1)
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.LastTick != nil {
		t.Fatalf("last tick before any tick: %+v", st.LastTick)
	}
}

// TestConcurrentTrafficAndScrape hammers /v1/report, /v1/tick,
// /v1/observe and /metrics concurrently; run with -race it proves the
// registry and the server state share no unsynchronised access.
func TestConcurrentTrafficAndScrape(t *testing.T) {
	_, ts := testServer(t, -1)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := validReport(deviceName(w*20 + i))
				buf, _ := json.Marshal(r)
				resp, err := http.Post(ts.URL+"/v1/report", "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(ts.URL+"/v1/tick", "application/json", nil)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	text := scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, "lpvs_ticks_total 80") {
		t.Errorf("ticks_total not 80 after %d ticks", workers*10)
	}
}

func TestServerLogsStructured(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)

	var sawTick bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if entry["msg"] == "tick" {
			sawTick = true
			if entry["selected"] != float64(1) || entry["reports"] != float64(1) {
				t.Fatalf("tick log entry %v", entry)
			}
		}
	}
	if !sawTick {
		t.Fatalf("no tick log line in:\n%s", buf.String())
	}
}

func TestConcurrentReports(t *testing.T) {
	_, ts := testServer(t, -1)
	const n = 32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			r := validReport(deviceName(i))
			buf, _ := json.Marshal(r)
			resp, err := http.Post(ts.URL+"/v1/report", "application/json", bytes.NewReader(buf))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != 200 {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var tick TickResponse
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, &tick)
	if tick.Reports != n {
		t.Fatalf("reports = %d, want %d", tick.Reports, n)
	}
}

// TestConcurrentTrafficAndScrapePooled is the pooled-path twin of
// TestConcurrentTrafficAndScrape: a 4-worker scheduling pool under
// concurrent reports, ticks and metrics scrapes. Run under -race (make
// check does) this exercises the pool's goroutines against the server
// mutex and the scrape-time gauge functions.
func TestConcurrentTrafficAndScrapePooled(t *testing.T) {
	s, err := New(Config{Stream: testStream(t), ServerStreams: 10, Lambda: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := validReport(deviceName(w*20 + i))
				buf, _ := json.Marshal(r)
				resp, err := http.Post(ts.URL+"/v1/report", "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(ts.URL+"/v1/tick", "application/json", nil)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	text := scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, "lpvs_ticks_total 80") {
		t.Errorf("ticks_total not 80 after %d ticks", workers*10)
	}
	if !strings.Contains(text, "lpvs_pool_workers 4") {
		t.Errorf("lpvs_pool_workers gauge missing or wrong:\n%s", text)
	}
	if !strings.Contains(text, "lpvs_sched_cpu_seconds_count") {
		t.Errorf("lpvs_sched_cpu_seconds histogram missing")
	}
	var status StatusResponse
	getJSON(t, ts.URL+"/v1/status", &status)
	if status.Workers != 4 {
		t.Errorf("status workers = %d, want 4", status.Workers)
	}
}

// TestTickDeterministicAcrossReportOrder is the regression test for the
// map-iteration nondeterminism: identical devices reported in different
// orders, under capacity so tight that tie-breaking decides who wins,
// must receive identical per-device decisions — the pending map's
// iteration order must not leak into scheduling.
func TestTickDeterministicAcrossReportOrder(t *testing.T) {
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = deviceName(i)
	}
	decide := func(order []string) map[string]bool {
		s, err := New(Config{Stream: testStream(t), ServerStreams: 7, Lambda: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for _, id := range order {
			postJSON(t, ts.URL+"/v1/report", validReport(id), nil)
		}
		var tick TickResponse
		postJSON(t, ts.URL+"/v1/tick", struct{}{}, &tick)
		if tick.Selected == 0 || tick.Selected == len(order) {
			t.Fatalf("selection not capacity-bound (selected %d of %d): ties never exercised",
				tick.Selected, len(order))
		}
		out := make(map[string]bool, len(order))
		for _, id := range order {
			var dec DecisionResponse
			getJSON(t, ts.URL+"/v1/decision?device="+id, &dec)
			out[id] = dec.Transform
		}
		return out
	}

	forward := decide(ids)
	reversed := make([]string, len(ids))
	for i, id := range ids {
		reversed[len(ids)-1-i] = id
	}
	interleaved := []string{ids[3], ids[0], ids[6], ids[1], ids[7], ids[2], ids[5], ids[4]}
	for name, order := range map[string][]string{"reversed": reversed, "interleaved": interleaved} {
		got := decide(order)
		for _, id := range ids {
			if got[id] != forward[id] {
				t.Errorf("%s order: device %s decision %t, forward order %t",
					name, id, got[id], forward[id])
			}
		}
	}
}

func deviceName(i int) string {
	return "dev-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
}
