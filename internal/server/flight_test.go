package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lpvs/internal/chaos"
	"lpvs/internal/obs/audit"
	"lpvs/internal/obs/flight"
	"lpvs/internal/obs/span"
)

// flightServer builds a daemon with the forensics stack armed: metric
// history, flight recorder, audit log, and full span sampling.
func flightServer(tb testing.TB, mutate func(*Config)) (*Server, *httptest.Server) {
	tb.Helper()
	cfg := Config{
		Stream:          testStream(tb),
		ServerStreams:   6,
		Lambda:          1,
		HistoryWindow:   time.Minute,
		HistoryInterval: time.Second,
		FlightDir:       tb.TempDir(),
		TraceSample:     1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

func TestHistoryEndpointRangeQuery(t *testing.T) {
	s, ts := flightServer(t, nil)
	driveSlots(t, ts.URL, 4, 0, 2)
	s.History().Sample()
	s.History().Sample()

	var all HistoryResponse
	if resp := getJSON(t, ts.URL+"/v1/history", &all); resp.StatusCode != http.StatusOK {
		t.Fatalf("history status %d", resp.StatusCode)
	}
	if all.Samples != 2 || all.WindowSec != 60 || all.IntervalSec != 1 {
		t.Fatalf("history header %+v", all)
	}
	if len(all.Series) == 0 {
		t.Fatal("unfiltered query returned no series")
	}
	found := map[string]bool{}
	for _, sr := range all.Series {
		found[sr.Name] = true
	}
	for _, want := range []string{"lpvs_ticks_total", "lpvs_devices", "lpvs_tick_duration_seconds_p99"} {
		if !found[want] {
			t.Errorf("unfiltered query missing series %s", want)
		}
	}

	// Prefix filter: only the asked-for families come back.
	var filtered HistoryResponse
	getJSON(t, ts.URL+"/v1/history?series=lpvs_ticks_total,lpvs_devices", &filtered)
	if len(filtered.Series) == 0 {
		t.Fatal("filtered query returned no series")
	}
	for _, sr := range filtered.Series {
		if sr.Name != "lpvs_ticks_total" && sr.Name != "lpvs_devices" {
			t.Errorf("filtered query leaked series %s", sr.Name)
		}
	}

	// A since cursor in the future drops every point but keeps the
	// store header, so pollers can detect an idle window.
	var empty HistoryResponse
	getJSON(t, fmt.Sprintf("%s/v1/history?since=%d", ts.URL, time.Now().Unix()+3600), &empty)
	for _, sr := range empty.Series {
		if len(sr.Points) != 0 {
			t.Fatalf("future since cursor returned points: %+v", sr)
		}
	}

	// last= is the friendly spelling of the same cursor.
	var last HistoryResponse
	if resp := getJSON(t, ts.URL+"/v1/history?last=1h", &last); resp.StatusCode != http.StatusOK {
		t.Fatalf("last= status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/history?last=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad last= status %d, want 400", resp.StatusCode)
	}

	// The status surface advertises the armed store.
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.HistoryWindowSec != 60 || st.HistorySamples != 2 {
		t.Fatalf("status history fields %+v", st)
	}
}

func TestHistoryEndpointOffIs404(t *testing.T) {
	_, ts := testServer(t, -1)
	if resp := getJSON(t, ts.URL+"/v1/history", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("history on a store-less daemon: status %d, want 404", resp.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/v1/incident", IncidentRequest{Reason: "x"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("incident on a recorder-less daemon: status %d, want 404", resp.StatusCode)
	}
}

func TestIncidentEndpointWritesBundle(t *testing.T) {
	s, ts := flightServer(t, nil)
	driveSlots(t, ts.URL, 4, 0, 1)
	s.History().Sample()

	var inc IncidentResponse
	if resp := postJSON(t, ts.URL+"/v1/incident", IncidentRequest{Reason: "operator drill"}, &inc); resp.StatusCode != http.StatusOK {
		t.Fatalf("incident status %d", resp.StatusCode)
	}
	if inc.Trigger != flight.TriggerManual || inc.Bundles != 1 {
		t.Fatalf("incident response %+v", inc)
	}
	b, err := flight.LoadBundle(inc.Path)
	if err != nil {
		t.Fatalf("bundle at %s: %v", inc.Path, err)
	}
	if b.Reason != "operator drill" || b.Binary != "lpvsd" {
		t.Fatalf("bundle identity %+v", b)
	}
	if b.ConfigHash == "" || len(b.History) == 0 || len(b.SLO) == 0 {
		t.Fatalf("bundle sections: hash=%q history=%d slo=%d", b.ConfigHash, len(b.History), len(b.SLO))
	}
	if b.GoroutineProfile == "" || len(b.HeapProfile) == 0 {
		t.Fatal("daemon bundles must embed goroutine and heap profiles")
	}

	// An empty body is a valid manual capture too.
	resp, err := http.Post(ts.URL+"/v1/incident", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bodyless incident status %d", resp.StatusCode)
	}

	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.FlightBundles != 2 || st.FlightDir == "" {
		t.Fatalf("status flight fields %+v", st)
	}
}

// TestKillAndInspect is the PR's acceptance test (DESIGN.md §15): an
// SLO alarm forced under chaos middleware must freeze a bundle from
// which the triggering window reconstructs — metric history covering
// the alarm, at least one span tree, and audit records that replay
// byte-identically — using nothing but the bundle file.
func TestKillAndInspect(t *testing.T) {
	s, _ := flightServer(t, func(c *Config) {
		c.AuditDir = t.TempDir()
		// Every tick blows a 1ns budget, so the second evaluation (the
		// first with a window delta) alarms deterministically.
		c.SLOTickLatency = time.Nanosecond
	})
	inj, err := chaos.New(chaos.Config{Seed: 11, LatencyProb: 0.4, MaxLatency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(inj.Middleware(s.Handler()))
	defer ts.Close()

	flightDir := s.flight.Dir()
	for slot := 0; slot < 2; slot++ {
		driveSlots(t, ts.URL, 6, slot, slot+1)
		s.History().Sample()
		if resp := getJSON(t, ts.URL+"/v1/slo", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("slo eval %d: status %d", slot, resp.StatusCode)
		}
	}
	if got := s.flight.BundlesWritten(); got == 0 {
		t.Fatal("SLO alarm under chaos wrote no bundle")
	}

	// Post-hoc forensics: everything below uses only the bundle file.
	paths, err := flight.ListBundles(flightDir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("ListBundles: %v (%d)", err, len(paths))
	}
	b, err := flight.LoadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != flight.TriggerSLO {
		t.Fatalf("trigger %q, want %q", b.Trigger, flight.TriggerSLO)
	}

	// 1. The SLO section names the alarming objective.
	alarming := ""
	for _, st := range b.SLO {
		if st.Alarming {
			alarming = st.Name
		}
	}
	if alarming != "tick-latency" {
		t.Fatalf("alarming objective %q, want tick-latency", alarming)
	}

	// 2. The metric history covers the triggering window: the tick
	// counter deltas across the samples must account for both ticks.
	var ticks float64
	for _, sr := range b.History {
		if sr.Name == "lpvs_ticks_total" {
			for _, p := range sr.Points {
				ticks += p.Value
			}
		}
	}
	if ticks < 2 {
		t.Fatalf("history tick deltas sum to %v, want >= 2", ticks)
	}

	// 3. At least one span tree reconstructs (TraceSample is 1, so the
	// ring holds the ticks' traces).
	trees := 0
	for _, sp := range b.Spans {
		if sp.ParentID == "" {
			if roots := span.Tree(b.Spans, sp.TraceID); len(roots) > 0 {
				trees++
			}
		}
	}
	if trees == 0 {
		t.Fatalf("no span tree reconstructs from %d captured spans", len(b.Spans))
	}

	// 4. Every embedded audit record replays byte-identically.
	if len(b.AuditRecords) == 0 {
		t.Fatal("bundle embeds no audit records")
	}
	for i, raw := range b.AuditRecords {
		rec, err := audit.Decode(raw)
		if err != nil {
			t.Fatalf("audit record %d: %v", i, err)
		}
		res, err := rec.Replay()
		if err != nil {
			t.Fatalf("audit record %d replay: %v", i, err)
		}
		if !res.Match {
			t.Fatalf("audit record %d diverged on replay:\n%s", i, res.Diff())
		}
	}
}

// TestForensicsDecisionNeutral is the observation-only contract: a
// daemon with history sampling and an armed (and firing) flight
// recorder must make decisions byte-identical to a bare one.
func TestForensicsDecisionNeutral(t *testing.T) {
	const nDev, slots = 12, 4
	auditA, auditB := t.TempDir(), t.TempDir()

	// A: bare daemon, no forensics.
	sA, tsA := persistServer(t, func(c *Config) { c.AuditDir = auditA })
	defer sA.Close()
	driveSlots(t, tsA.URL, nDev, 0, slots)
	tsA.Close()

	// B: history sampled every slot, manual bundles captured mid-run.
	sB, tsB := flightServer(t, func(c *Config) { c.AuditDir = auditB })
	for slot := 0; slot < slots; slot++ {
		driveSlots(t, tsB.URL, nDev, slot, slot+1)
		sB.History().Sample()
		if resp := postJSON(t, tsB.URL+"/v1/incident", IncidentRequest{Reason: "mid-run"}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("slot %d capture: status %d", slot, resp.StatusCode)
		}
	}

	recsA, recsB := readAudit(t, auditA), readAudit(t, auditB)
	if len(recsA) != slots || len(recsB) != slots {
		t.Fatalf("audit lengths %d / %d, want %d", len(recsA), len(recsB), slots)
	}
	for i := range recsA {
		if string(recsA[i].DecisionCanonical) != string(recsB[i].DecisionCanonical) {
			t.Fatalf("slot %d: forensics changed the decision", recsA[i].Slot)
		}
	}
	// The byte-exact tee: the bundle's audit tail and the log file hold
	// the same bytes.
	paths, err := flight.ListBundles(sB.flight.Dir())
	if err != nil || len(paths) == 0 {
		t.Fatalf("ListBundles: %v (%d)", err, len(paths))
	}
	last, err := flight.LoadBundle(paths[len(paths)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(last.AuditRecords) != slots {
		t.Fatalf("final bundle tail %d records, want %d", len(last.AuditRecords), slots)
	}
	for i, raw := range last.AuditRecords {
		line, err := recsB[i].Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(raw)+"\n" != string(line) {
			t.Fatalf("record %d: bundle tail bytes differ from the audit log", i)
		}
	}
}

// TestPanicTriggerCapturesBundle: a recovered handler panic freezes a
// bundle whose reason names the path.
func TestPanicTriggerCapturesBundle(t *testing.T) {
	s, _ := flightServer(t, nil)
	h := s.shell().recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tick", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic handler status %d", rec.Code)
	}
	paths, err := flight.ListBundles(s.flight.Dir())
	if err != nil || len(paths) != 1 {
		t.Fatalf("bundles after panic: %v (%d)", err, len(paths))
	}
	b, err := flight.LoadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != flight.TriggerPanic {
		t.Fatalf("trigger %q, want %q", b.Trigger, flight.TriggerPanic)
	}
	if want := "/v1/tick: boom"; !strings.Contains(b.Reason, want) {
		t.Fatalf("reason %q missing %q", b.Reason, want)
	}
}

// TestShedTriggerCapturesBundle: a shed burst through the admission
// gate freezes one bundle.
func TestShedTriggerCapturesBundle(t *testing.T) {
	s, ts := flightServer(t, func(c *Config) {
		c.MaxInflight = 1
	})
	// Hold the only admission slot so every further heavy request sheds.
	if !s.gate.tryAcquire() {
		t.Fatal("could not occupy the gate")
	}
	defer s.gate.release()
	for i := 0; i < flight.DefaultShedBurst; i++ {
		resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("shed %d: status %d, want 429", i, resp.StatusCode)
		}
	}
	paths, err := flight.ListBundles(s.flight.Dir())
	if err != nil || len(paths) != 1 {
		t.Fatalf("bundles after shed burst: %v (%d)", err, len(paths))
	}
	b, err := flight.LoadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != flight.TriggerShed {
		t.Fatalf("trigger %q, want %q", b.Trigger, flight.TriggerShed)
	}
}
