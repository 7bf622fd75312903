package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"lpvs/internal/obs/history"
	"lpvs/internal/obs/runtimecollector"
	"lpvs/internal/obs/slo"
	"lpvs/internal/server"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// TestRenderOneFrameAgainstLiveDaemon drives the real dashboard code
// path end to end: a live in-process daemon with per-VC telemetry on,
// one report + tick, runtime self-telemetry sampled once, then watch()
// in -once mode must fetch every endpoint and render a full frame.
func TestRenderOneFrameAgainstLiveDaemon(t *testing.T) {
	stream, err := video.Generate(stats.NewRNG(1), video.DefaultGenConfig("live", video.Gaming, 90))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Stream:        stream,
		ServerStreams: -1,
		Lambda:        1,
		VCLabelBudget: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtimecollector.New(srv.Registry()).Sample()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	report := `{"device_id":"d1","display_type":"OLED","width":1920,"height":1080,` +
		`"diagonal_inch":6,"brightness":0.6,"energy_frac":0.3,` +
		`"battery_capacity_j":50000,"base_power_w":0.4}`
	for _, req := range []struct{ path, body string }{
		{"/v1/report", report},
		{"/v1/tick", "{}"},
	} {
		resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", req.path, resp.StatusCode)
		}
	}

	var out bytes.Buffer
	if err := watch(context.Background(), &out, ts.URL, time.Second, true); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"lpvsctl top",  // header
		"devices 1",    // status line reflects the report
		"tick-latency", // SLO table rows
		"degraded-ticks",
		"shed-requests",
		"CHANNEL", // per-channel table with the live channel
		"live",
		"STREAM", // per-stream table with the edge stream
		"edge",
		"go: heap", // runtime self-telemetry line
	} {
		if !strings.Contains(text, want) {
			t.Errorf("frame missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "\x1b[2J") {
		t.Error("-once frame must not emit ANSI clear sequences")
	}
}

// TestRenderFramePinned pins one frame of fixed values byte for byte,
// and checks that in both tables every column name ends where its
// values end (the names after the first are right-aligned).
func TestRenderFramePinned(t *testing.T) {
	f := &frame{at: time.Date(2026, 1, 2, 15, 4, 5, 0, time.UTC)}
	f.status = server.StatusResponse{
		UptimeMS: 90_000, Slot: 7, Workers: 2, Devices: 3, PendingReports: 1,
		LastSelected: 2, DegradedTicks: 1,
	}
	f.slo.Objectives = []slo.State{{Name: "tick-latency", BudgetRemaining: 1,
		Windows: []slo.WindowState{{BurnRate: 0.5}, {BurnRate: 0.25}}}}
	f.fleet = server.FleetResponse{
		VCLabelBudget: 64,
		Channels: []server.ChannelSummary{{Channel: "live", Devices: 3, PendingReports: 1,
			Admitted: 3, Eligible: 2, Selected: 2, TransformedChunks: 60, GammaMean: 0.31, GammaDrift: 0.002}},
		Streams: []server.StreamStat{{Key: "edge", Ticks: 7, DegradedTicks: 1,
			LastWallSeconds: 0.00125, LastRequests: 3}},
	}
	var out bytes.Buffer
	render(&out, f, nil, false)
	want := `lpvsctl top  15:04:05  up 1m30s  slot 7  workers 2
devices 3  pending 1  selected 2  degraded 1  shed 0

SLO                 STATE  BURN-FAST  BURN-SLOW  BUDGET-LEFT
tick-latency        ok          0.50       0.25         100%

CHANNEL        DEV  PEND  ADM  ELIG  SEL  TCHUNKS  GAMMA  DRIFT
live             3     1    3     2    2       60  0.310  0.002

STREAM        TICKS  DEGR  LAST-MS  LAST-REQ
edge              7     1     1.25         3
`
	if out.String() != want {
		t.Fatalf("frame moved:\n--- got\n%s--- want\n%s", out.String(), want)
	}
	lines := strings.Split(want, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "CHANNEL") && !strings.HasPrefix(line, "STREAM") {
			continue
		}
		head, row := fieldEnds(line), fieldEnds(lines[i+1])
		if len(head) != len(row) || !slices.Equal(head[1:], row[1:]) {
			t.Errorf("columns do not line up:\n%s\n%s", line, lines[i+1])
		}
	}
}

// fieldEnds returns the index just past each space-separated field.
func fieldEnds(line string) []int {
	var ends []int
	for i := range line {
		if line[i] != ' ' && (i+1 == len(line) || line[i+1] == ' ') {
			ends = append(ends, i+1)
		}
	}
	return ends
}

// TestOnceFailsFastOnDeadDaemon keeps the error path honest: -once
// against nothing must return the transport error, not loop.
func TestOnceFailsFastOnDeadDaemon(t *testing.T) {
	var out bytes.Buffer
	err := watch(context.Background(), &out, "http://127.0.0.1:1", time.Second, true)
	if err == nil {
		t.Fatal("watch -once against a dead daemon returned nil")
	}
}

// TestHistorySparklines drives a daemon with the history store armed:
// after two samples the frame must carry a HISTORY section with
// sparkline rows for the queried series.
func TestHistorySparklines(t *testing.T) {
	stream, err := video.Generate(stats.NewRNG(1), video.DefaultGenConfig("live", video.Gaming, 90))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Stream:          stream,
		ServerStreams:   -1,
		Lambda:          1,
		HistoryWindow:   time.Minute,
		HistoryInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtimecollector.New(srv.Registry()).Sample()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/tick", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.History().Sample()
	}

	var out bytes.Buffer
	if err := watch(context.Background(), &out, ts.URL, time.Second, true); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"HISTORY (last 1m0s, 2 samples)",
		"lpvs_ticks_total",
		"lpvs_go_heap_alloc_bytes",
		"▁", // at least one sparkline bar rendered
	} {
		if !strings.Contains(text, want) {
			t.Errorf("frame missing %q:\n%s", want, text)
		}
	}
}

// mkFrame builds a minimal frame for the rate/restart unit tests.
func mkFrame(at time.Time, start float64, build string, ticks, reports, shed float64) *frame {
	f := &frame{at: at, counters: map[string]float64{
		"lpvs_ticks_total":   ticks,
		"lpvs_reports_total": reports,
		"lpvs_shed_total":    shed,
	}, buildInfo: build}
	f.status.StartUnixSec = start
	return f
}

func TestCounterRates(t *testing.T) {
	t0 := time.Unix(1000, 0)
	build := `lpvs_build_info{binary="lpvsd",version="v1",go_version="go"} 1`
	a := mkFrame(t0, 100, build, 10, 40, 0)
	b := mkFrame(t0.Add(2*time.Second), 100, build, 14, 50, 1)

	if rates, restarted := counterRates(nil, a); rates != nil || restarted {
		t.Fatalf("first frame: rates=%v restarted=%t, want nil/false", rates, restarted)
	}
	rates, restarted := counterRates(a, b)
	if restarted {
		t.Fatal("steady state flagged as restart")
	}
	if got := rates["lpvs_ticks_total"]; got != 2 {
		t.Fatalf("tick rate = %v, want 2/s", got)
	}
	if got := rates["lpvs_reports_total"]; got != 5 {
		t.Fatalf("report rate = %v, want 5/s", got)
	}
	if got := rates["lpvs_shed_total"]; got != 0.5 {
		t.Fatalf("shed rate = %v, want 0.5/s", got)
	}
}

// TestCounterRatesResetOnRestart is the restart-misrender fix: a new
// process generation (start time or build identity change, or a
// counter going backwards) must rebase instead of printing negative
// rates.
func TestCounterRatesResetOnRestart(t *testing.T) {
	t0 := time.Unix(1000, 0)
	build := `lpvs_build_info{binary="lpvsd",version="v1",go_version="go"} 1`
	before := mkFrame(t0, 100, build, 500, 900, 30)

	// Restart detected by start-time change: counters went backwards,
	// but no negative rate may surface.
	after := mkFrame(t0.Add(2*time.Second), 200, build, 3, 4, 0)
	if rates, restarted := counterRates(before, after); !restarted || rates != nil {
		t.Fatalf("start-time change: rates=%v restarted=%t, want nil/true", rates, restarted)
	}

	// Restart detected by a build-info change alone.
	newBuild := `lpvs_build_info{binary="lpvsd",version="v2",go_version="go"} 1`
	upgraded := mkFrame(t0.Add(2*time.Second), 100, newBuild, 600, 1000, 31)
	if rates, restarted := counterRates(before, upgraded); !restarted || rates != nil {
		t.Fatalf("build change: rates=%v restarted=%t, want nil/true", rates, restarted)
	}

	// Restart faster than one poll: identity unchanged but a counter
	// went backwards.
	flapped := mkFrame(t0.Add(2*time.Second), 100, build, 2, 1, 0)
	if rates, restarted := counterRates(before, flapped); !restarted || rates != nil {
		t.Fatalf("counter regression: rates=%v restarted=%t, want nil/true", rates, restarted)
	}

	// The frame after the rebase renders rates again.
	next := mkFrame(t0.Add(4*time.Second), 200, build, 7, 8, 2)
	if rates, restarted := counterRates(after, next); restarted || rates == nil {
		t.Fatalf("post-restart frame: rates=%v restarted=%t, want rates/false", rates, restarted)
	}
}

func TestSparkline(t *testing.T) {
	pts := []history.Point{{UnixMS: 0, Value: 0}, {UnixMS: 1, Value: 5}, {UnixMS: 2, Value: 10}}
	if got := sparkline(pts); got != "▁▄█" {
		t.Fatalf("sparkline = %q, want ▁▄█", got)
	}
	flat := []history.Point{{Value: 3}, {Value: 3}}
	if got := sparkline(flat); got != "▁▁" {
		t.Fatalf("flat sparkline = %q, want ▁▁", got)
	}
	if got := sparkline(nil); got != "" {
		t.Fatalf("empty sparkline = %q, want empty", got)
	}
}

// TestClip pins clip to runes, not bytes: a multi-byte channel ID is
// cut on a rune boundary, and one that fits in n runes is left whole
// however many bytes it takes.
func TestClip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		n    int
		want string
	}{
		{"live", 12, "live"},
		{"exactly-12ch", 12, "exactly-12ch"},
		{"a-much-longer-channel", 12, "a-much-long…"},
		{"канал-музыка", 12, "канал-музыка"},   // 12 runes, 23 bytes
		{"чемпионат-мира", 12, "чемпионат-м…"}, // 14 runes
		{"日本語のチャンネル名です", 8, "日本語のチャン…"},
	} {
		got := clip(tc.in, tc.n)
		if got != tc.want {
			t.Errorf("clip(%q, %d) = %q, want %q", tc.in, tc.n, got, tc.want)
		}
		if !utf8.ValidString(got) || utf8.RuneCountInString(got) > tc.n {
			t.Errorf("clip(%q, %d) = %q: invalid UTF-8 or longer than %d runes", tc.in, tc.n, got, tc.n)
		}
	}
}
