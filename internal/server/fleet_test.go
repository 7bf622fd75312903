package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// fleetServer builds a two-channel daemon with per-VC series enabled.
func fleetServer(tb testing.TB, budget int) (*Server, *httptest.Server) {
	tb.Helper()
	extra, err := video.Generate(stats.NewRNG(2), video.DefaultGenConfig("music", video.Music, 60))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{
		Stream:        testStream(tb),
		ExtraStreams:  []*video.Video{extra},
		ServerStreams: -1,
		Lambda:        1,
		VCLabelBudget: budget,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

// scrape fetches /metrics and returns the exposition text.
func scrape(tb testing.TB, url string) string {
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

// metricValue extracts one sample line's value from an exposition.
func metricValue(tb testing.TB, text, series string) float64 {
	tb.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				tb.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	tb.Fatalf("series %q not in exposition", series)
	return 0
}

// statusCount is one lifetime count /v1/status reports, with the
// /metrics sample of the family that keeps it.
type statusCount struct {
	series string
	status float64
}

func statusCounters(st *StatusResponse) []statusCount {
	return []statusCount{
		{"lpvs_shed_total", float64(st.ShedRequests)},
		{"lpvs_sched_degraded_total", float64(st.DegradedTicks)},
		{"lpvs_snapshot_writes_total", float64(st.SnapshotWrites)},
		{"lpvs_snapshot_errors_total", float64(st.SnapshotErrors)},
		{"lpvs_snapshot_last_success_unix_seconds", float64(st.SnapshotLastUnixSec)},
		{"lpvs_snapshot_size_bytes", float64(st.SnapshotLastBytes)},
		{`lpvs_ingest_bytes_total{codec="json"}`, float64(st.IngestBytesJSON)},
		{`lpvs_ingest_bytes_total{codec="binary"}`, float64(st.IngestBytesBinary)},
		{`lpvs_ingest_records_total{codec="json"}`, float64(st.IngestRecordsJSON)},
		{`lpvs_ingest_records_total{codec="binary"}`, float64(st.IngestRecordsBinary)},
		{"lpvs_ingest_pool_gets_total", float64(st.IngestPoolGets)},
		{"lpvs_ingest_pool_misses_total", float64(st.IngestPoolMisses)},
		{"lpvs_shard_ticks_total", float64(st.ShardTicks)},
		{"lpvs_shard_vcs_decided_total", float64(st.ShardVCsDecided)},
	}
}

// checkStatusMatchesMetrics reads /v1/status and then /metrics, with
// nothing running in between, and fails unless every status count
// equals its family's sample. It returns the status it read.
func checkStatusMatchesMetrics(tb testing.TB, url string) StatusResponse {
	tb.Helper()
	var st StatusResponse
	getJSON(tb, url+"/v1/status", &st)
	text := scrape(tb, url)
	for _, c := range statusCounters(&st) {
		if got := metricValue(tb, text, c.series); got != c.status {
			tb.Errorf("%s = %v, /v1/status says %v", c.series, got, c.status)
		}
	}
	return st
}

func reportOn(id, channel string) ReportRequest {
	r := validReport(id)
	r.ChannelID = channel
	return r
}

func TestFleetEndpointMatchesRegistry(t *testing.T) {
	_, ts := fleetServer(t, 64)

	// Three devices on the default channel, two on "music", then a tick.
	for i := 0; i < 3; i++ {
		if resp := postJSON(t, ts.URL+"/v1/report", validReport(fmt.Sprintf("d%d", i)), nil); resp.StatusCode != 200 {
			t.Fatalf("report: %d", resp.StatusCode)
		}
	}
	for i := 0; i < 2; i++ {
		if resp := postJSON(t, ts.URL+"/v1/report", reportOn(fmt.Sprintf("m%d", i), "music"), nil); resp.StatusCode != 200 {
			t.Fatalf("report: %d", resp.StatusCode)
		}
	}
	if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
		t.Fatalf("tick: %d", resp.StatusCode)
	}

	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	if fleet.VCLabelBudget != 64 {
		t.Fatalf("vc_label_budget = %d", fleet.VCLabelBudget)
	}
	if len(fleet.Channels) != 2 || fleet.Channels[0].Channel != "ch" || fleet.Channels[1].Channel != "music" {
		t.Fatalf("channels = %+v", fleet.Channels)
	}
	if fleet.Channels[0].Devices != 3 || fleet.Channels[1].Devices != 2 {
		t.Fatalf("device counts = %+v", fleet.Channels)
	}
	if fleet.Channels[0].Admitted != 3 || fleet.Channels[1].Admitted != 2 {
		t.Fatalf("admitted counts = %+v", fleet.Channels)
	}
	if len(fleet.Streams) != 1 || fleet.Streams[0].Key != "edge" || fleet.Streams[0].Ticks != 1 {
		t.Fatalf("streams = %+v", fleet.Streams)
	}

	// The registry's labeled series must agree with the fleet rollup.
	text := scrape(t, ts.URL)
	for _, c := range fleet.Channels {
		label := fmt.Sprintf("{vc=%q}", c.Channel)
		if got := metricValue(t, text, "lpvs_vc_devices"+label); got != float64(c.Devices) {
			t.Errorf("lpvs_vc_devices%s = %v, fleet says %d", label, got, c.Devices)
		}
		if got := metricValue(t, text, "lpvs_vc_admitted_devices"+label); got != float64(c.Admitted) {
			t.Errorf("lpvs_vc_admitted_devices%s = %v, fleet says %d", label, got, c.Admitted)
		}
		if got := metricValue(t, text, "lpvs_vc_selected_devices"+label); got != float64(c.Selected) {
			t.Errorf("lpvs_vc_selected_devices%s = %v, fleet says %d", label, got, c.Selected)
		}
		if got := metricValue(t, text, "lpvs_vc_gamma_mean"+label); got != c.GammaMean {
			t.Errorf("lpvs_vc_gamma_mean%s = %v, fleet says %v", label, got, c.GammaMean)
		}
	}
	for _, vs := range fleet.Streams {
		label := fmt.Sprintf("{vc=%q}", vs.Key)
		if got := metricValue(t, text, "lpvs_vc_ticks_total"+label); got != float64(vs.Ticks) {
			t.Errorf("lpvs_vc_ticks_total%s = %v, fleet says %d", label, got, vs.Ticks)
		}
	}
	if got := metricValue(t, text, "lpvs_series_dropped_total"); got != float64(fleet.SeriesDropped) {
		t.Errorf("lpvs_series_dropped_total = %v, fleet says %d", got, fleet.SeriesDropped)
	}
}

// TestFleetStreamStats: a shard tick folds one stream row per channel
// it decided, from that VC's decision. Three channels tick four times,
// then a tick in which only a fourth channel reports adds a row and
// leaves the others as they were: rows in key order, ticks 4/4/4/1,
// each row's funnel that of the VC's last decision, and the per-stream
// series equal to the rows.
func TestFleetStreamStats(t *testing.T) {
	_, ts := shardTestServer(t, Config{
		ShardMode:     true,
		NodeID:        "n1",
		VCLabelBudget: 64,
		ExtraStreams: []*video.Video{
			extraStream(t, "music"), extraStream(t, "news"), extraStream(t, "talk"),
		},
	})
	last := map[string]ShardVCDecision{}
	tick := func(audience map[string]int) {
		t.Helper()
		for ch, n := range audience {
			for i := 0; i < n; i++ {
				rep := reportOn(fmt.Sprintf("%s-%d", ch, i), ch)
				rep.EnergyFrac = 0.2 + 0.1*float64(i)
				if resp := postJSON(t, ts.URL+"/v1/report", rep, nil); resp.StatusCode != 200 {
					t.Fatalf("report: %d", resp.StatusCode)
				}
			}
		}
		var out ShardTickResponse
		if resp := postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{Node: "n1"}, &out); resp.StatusCode != 200 {
			t.Fatalf("shard tick: %d", resp.StatusCode)
		}
		for _, vc := range out.VCs {
			last[vc.VC] = vc
		}
	}
	for i := 0; i < 4; i++ {
		tick(map[string]int{"ch": 3, "music": 5, "news": 7})
	}
	tick(map[string]int{"talk": 2})

	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	keys := []string{"ch", "music", "news", "talk"}
	ticks := []uint64{4, 4, 4, 1}
	if len(fleet.Streams) != len(keys) {
		t.Fatalf("streams = %+v, want one per channel", fleet.Streams)
	}
	text := scrape(t, ts.URL)
	for i, st := range fleet.Streams {
		if st.Key != keys[i] || st.Ticks != ticks[i] || st.DegradedTicks != 0 {
			t.Fatalf("stream %d = %+v, want key %s with %d ticks", i, st, keys[i], ticks[i])
		}
		dec := last[st.Key]
		if st.LastRequests != dec.Reports || st.LastEligible != dec.Eligible || st.LastSelected != dec.Selected {
			t.Fatalf("stream %s funnel %+v != its last decision %+v", st.Key, st, dec)
		}
		if st.LastWallSeconds != dec.WallSec || st.WallSecondsTotal < st.LastWallSeconds || st.LastWallSeconds < 0 {
			t.Fatalf("stream %s wall accounting %+v, last decision %v s", st.Key, st, dec.WallSec)
		}
		label := fmt.Sprintf("{vc=%q}", st.Key)
		for series, want := range map[string]float64{
			"lpvs_vc_ticks_total" + label:          float64(st.Ticks),
			"lpvs_vc_degraded_ticks_total" + label: float64(st.DegradedTicks),
			"lpvs_vc_tick_seconds_count" + label:   float64(st.Ticks),
			"lpvs_vc_tick_seconds_sum" + label:     st.WallSecondsTotal,
		} {
			if got := metricValue(t, text, series); got != want {
				t.Errorf("%s = %v, stream row says %v", series, got, want)
			}
		}
	}
}

// TestFleetFoldMatchesDeviceTable: the tick folds its per-channel
// aggregates from the publish loop and one walk over the devices. The
// gauges a scrape then shows must be what the device table itself says
// — per channel: devices, admitted, selected, gamma mean and the drift
// between the last two ticks — including a device that was not in the
// tick and a channel a device moved away from, and the scrape must hold
// the families it always has.
func TestFleetFoldMatchesDeviceTable(t *testing.T) {
	s, ts := fleetServer(t, 64)
	report := func(id, ch string, energy float64) {
		t.Helper()
		r := reportOn(id, ch)
		r.EnergyFrac = energy
		if resp := postJSON(t, ts.URL+"/v1/report", r, nil); resp.StatusCode != 200 {
			t.Fatalf("report %s: %d", id, resp.StatusCode)
		}
	}
	tick := func() {
		t.Helper()
		if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
			t.Fatalf("tick: %d", resp.StatusCode)
		}
	}
	// Slot 0: seven devices over both channels, one of them (c3) too
	// drained to be eligible.
	for i, ch := range []string{"", "music", "", "music", "", "music", ""} {
		energy := 0.2 + 0.1*float64(i)
		if i == 3 {
			energy = 0.0001
		}
		report(fmt.Sprintf("c%d", i), ch, energy)
	}
	tick()
	// The estimators learn, so slot 1's gamma means move.
	for i, red := range []float64{0.21, 0.34, 0.27, 0.4, 0.3} {
		obs := ObserveRequest{DeviceID: fmt.Sprintf("c%d", i), Reduction: red}
		if resp := postJSON(t, ts.URL+"/v1/observe", obs, nil); resp.StatusCode != 200 {
			t.Fatalf("observe: %d", resp.StatusCode)
		}
	}
	meanBefore := map[string]float64{}
	s.mu.Lock()
	for ch, cs := range s.fleet {
		meanBefore[ch] = cs.gammaMean
	}
	s.mu.Unlock()
	// Slot 1: c6 stays silent (known, not admitted), c5 moves to the
	// default channel, c1 and c3 stay on music.
	for i, ch := range []string{"", "music", "", "music", "", ""} {
		report(fmt.Sprintf("c%d", i), ch, 0.3+0.1*float64(i))
	}
	tick()

	type row struct {
		devices, admitted, eligible, selected int
		gammaSum                              float64
	}
	want := map[string]*row{"ch": {}, "music": {}}
	s.mu.Lock()
	for _, st := range s.devices {
		r := want[st.channel]
		r.devices++
		r.gammaSum += st.estimator.Gamma()
		if st.slot != s.slot-1 {
			continue // not in the last tick
		}
		r.admitted++
		if st.verdict.Eligible {
			r.eligible++
		}
		if st.transform {
			r.selected++
		}
	}
	s.mu.Unlock()
	if want["ch"].devices != 5 || want["music"].devices != 2 || want["ch"].admitted != 4 {
		t.Fatalf("scenario drifted: %+v %+v", want["ch"], want["music"])
	}

	text := scrape(t, ts.URL)
	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	near := func(a, b float64) bool { return abs(a-b) <= 1e-12 }
	for _, c := range fleet.Channels {
		r := want[c.Channel]
		mean := r.gammaSum / float64(r.devices)
		if c.Devices != r.devices || c.Admitted != r.admitted || c.Eligible != r.eligible || c.Selected != r.selected ||
			!near(c.GammaMean, mean) || !near(c.GammaDrift, abs(mean-meanBefore[c.Channel])) {
			t.Errorf("/v1/fleet %s = %+v, device table says %+v mean %v drift %v",
				c.Channel, c, *r, mean, abs(mean-meanBefore[c.Channel]))
		}
		label := fmt.Sprintf("{vc=%q}", c.Channel)
		for series, wantV := range map[string]float64{
			"lpvs_vc_devices":          float64(r.devices),
			"lpvs_vc_admitted_devices": float64(r.admitted),
			"lpvs_vc_selected_devices": float64(r.selected),
			"lpvs_vc_gamma_mean":       mean,
			"lpvs_vc_gamma_drift":      abs(mean - meanBefore[c.Channel]),
		} {
			if got := metricValue(t, text, series+label); !near(got, wantV) {
				t.Errorf("%s%s = %v, device table says %v", series, label, got, wantV)
			}
		}
	}
	// The cluster-wide Bayesian gauges come from the same walk.
	total := want["ch"].gammaSum + want["music"].gammaSum
	if got := metricValue(t, text, "lpvs_gamma_mean"); !near(got, total/7) {
		t.Errorf("lpvs_gamma_mean = %v, device table says %v", got, total/7)
	}
	if got := metricValue(t, text, "lpvs_gamma_mean_drift"); got <= 0 {
		t.Errorf("lpvs_gamma_mean_drift = %v after five observations, want > 0", got)
	}
	// 68 families on this configuration (86 on a default lpvsd, which
	// adds build info, the runtime collector and the history store).
	const families = 68
	if got := strings.Count(text, "\n# TYPE "); got+1 != families {
		t.Errorf("scrape holds %d metric families, want %d", got+1, families)
	}
}

func TestSLOEndpointMatchesRegistry(t *testing.T) {
	_, ts := fleetServer(t, 64)
	if resp := postJSON(t, ts.URL+"/v1/report", validReport("d0"), nil); resp.StatusCode != 200 {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	var got SLOResponse
	if resp := getJSON(t, ts.URL+"/v1/slo", &got); resp.StatusCode != 200 {
		t.Fatalf("slo: %d", resp.StatusCode)
	}
	names := map[string]bool{}
	for _, st := range got.Objectives {
		names[st.Name] = true
		if st.Alarming {
			t.Errorf("objective %s alarming on a healthy daemon: %+v", st.Name, st)
		}
		if len(st.Windows) != 2 {
			t.Errorf("objective %s windows = %+v", st.Name, st.Windows)
		}
	}
	for _, want := range []string{"tick-latency", "degraded-ticks", "shed-requests"} {
		if !names[want] {
			t.Errorf("objective %q missing from /v1/slo: %v", want, names)
		}
	}
	// The tick-latency objective saw exactly the one tick.
	for _, st := range got.Objectives {
		if st.Name == "tick-latency" && st.TotalEvents != 1 {
			t.Errorf("tick-latency total events = %v, want 1", st.TotalEvents)
		}
	}
	// Registry gauges agree with the endpoint.
	text := scrape(t, ts.URL)
	for _, st := range got.Objectives {
		label := fmt.Sprintf("{slo=%q}", st.Name)
		if v := metricValue(t, text, "lpvs_slo_target"+label); v != st.Target {
			t.Errorf("lpvs_slo_target%s = %v, endpoint says %v", label, v, st.Target)
		}
		if v := metricValue(t, text, "lpvs_slo_alarm"+label); v != 0 {
			t.Errorf("lpvs_slo_alarm%s = %v, want 0", label, v)
		}
	}
}

func TestReadyzDistinctFromHealthz(t *testing.T) {
	s, ts := fleetServer(t, 0)
	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s status %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/readyz", http.StatusOK)
	check("/healthz", http.StatusOK)
	s.SetReady(false)
	// Draining: readiness drops, liveness must not.
	check("/readyz", http.StatusServiceUnavailable)
	check("/healthz", http.StatusOK)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Ready || rr.Reason != "draining" {
		t.Fatalf("readyz body = %+v", rr)
	}
	s.SetReady(true)
	check("/readyz", http.StatusOK)
}

func TestVCLabelBudgetZeroDisablesSeries(t *testing.T) {
	_, ts := fleetServer(t, 0)
	if resp := postJSON(t, ts.URL+"/v1/report", validReport("d0"), nil); resp.StatusCode != 200 {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	text := scrape(t, ts.URL)
	if strings.Contains(text, "lpvs_vc_") {
		t.Fatal("budget 0 still exposes lpvs_vc_ series")
	}
	// The fleet endpoint itself stays available (JSON is not labeled
	// series) and reports the disabled budget.
	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	if fleet.VCLabelBudget != 0 || len(fleet.Channels) != 1 {
		t.Fatalf("fleet = %+v", fleet)
	}
}

func TestVCLabelBudgetCapsAndCounts(t *testing.T) {
	// Budget 1: the second channel's series are refused and counted.
	_, ts := fleetServer(t, 1)
	if resp := postJSON(t, ts.URL+"/v1/report", validReport("d0"), nil); resp.StatusCode != 200 {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/report", reportOn("m0", "music"), nil); resp.StatusCode != 200 {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	if fleet.SeriesDropped == 0 {
		t.Fatal("budget 1 with two channels dropped no series")
	}
	// The registry-wide budget also caps other labeled families (HTTP
	// route metrics), and every request after the fleet fetch may add
	// drops — so the scrape-time counter is >= the fleet snapshot.
	text := scrape(t, ts.URL)
	if got := metricValue(t, text, "lpvs_series_dropped_total"); got < float64(fleet.SeriesDropped) {
		t.Fatalf("dropped counter = %v, fleet says %d", got, fleet.SeriesDropped)
	}
	// Exactly one channel made it into each per-channel family.
	if strings.Count(text, "\nlpvs_vc_devices{") != 1 {
		t.Fatalf("per-channel device series != 1:\n%s", text)
	}
}

// TestVCLabelBudgetDropsCountOnce: the second channel's per-channel
// series, refused by a budget of 1 and written again every tick, count
// as dropped once — series_dropped reads the same after ticks 1 to 4,
// where it once grew by the refused series' number every tick. One
// /v1/fleet read before the first tick lets the route's own refused
// series count before the first reading. Tick 1 writes every label set
// the four ticks write: ticks 2 to 4 have no reports, so they run no
// Phase-1 solve and count no lpvs_sched_phase1_runs_total series.
func TestVCLabelBudgetDropsCountOnce(t *testing.T) {
	_, ts := fleetServer(t, 1)
	for _, rep := range []ReportRequest{validReport("d0"), reportOn("m0", "music")} {
		if resp := postJSON(t, ts.URL+"/v1/report", rep, nil); resp.StatusCode != 200 {
			t.Fatalf("report: %d", resp.StatusCode)
		}
	}
	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	var dropped []uint64
	for tick := 1; tick <= 4; tick++ {
		if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
			t.Fatalf("tick %d: %d", tick, resp.StatusCode)
		}
		if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
			t.Fatalf("fleet: %d", resp.StatusCode)
		}
		dropped = append(dropped, fleet.SeriesDropped)
	}
	if dropped[0] == 0 || dropped[1] != dropped[0] || dropped[2] != dropped[0] || dropped[3] != dropped[0] {
		t.Fatalf("series_dropped after ticks 1-4 = %v, want one positive count", dropped)
	}
}

// TestConcurrentFleetScrape hammers reports, ticks, chunk fetches, and
// every telemetry endpoint concurrently — the -race proof that per-VC
// series emission from the tick path and scrapes are safe together.
func TestConcurrentFleetScrape(t *testing.T) {
	_, ts := fleetServer(t, 64)
	const loops = 20
	var wg sync.WaitGroup
	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	// Posting from worker goroutines must not touch testing.T, so this
	// helper swallows transport errors instead of Fatal-ing.
	post := func(path string, body any) {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				ch := ""
				if i%2 == 0 {
					ch = "music"
				}
				post("/v1/report", reportOn(fmt.Sprintf("w%d-d%d", w, i%5), ch))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			post("/v1/tick", struct{}{})
		}
	}()
	for _, path := range []string{"/metrics", "/v1/fleet", "/v1/slo", "/v1/status", "/readyz"} {
		path := path
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				get(path)
			}
		}()
	}
	wg.Wait()
	// One final coherent pass.
	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet after hammer: %d", resp.StatusCode)
	}
	if len(fleet.Streams) != 1 || fleet.Streams[0].Ticks == 0 {
		t.Fatalf("streams after hammer = %+v", fleet.Streams)
	}
}
