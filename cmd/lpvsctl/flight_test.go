package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lpvs/internal/obs/flight"
	"lpvs/internal/server"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

var update = flag.Bool("update", false, "rewrite testdata/flight from a daemon of this build")

// flightFixture is the checked-in incident directory make cli-smoke
// runs the built lpvsctl over: one manual bundle an lpvsd of this
// repository wrote, with its audit tail.
var flightFixture = filepath.Join("testdata", "flight")

// writeBundles runs a daemon with the forensics stack armed — metric
// history, flight recorder, audit log and full span sampling, less
// what mutate turns off — drives a few slots of reports and ticks over
// HTTP, takes `captures` manual captures through POST /v1/incident,
// and returns the incident directory.
func writeBundles(tb testing.TB, captures int, mutate func(*server.Config)) string {
	tb.Helper()
	stream, err := video.Generate(stats.NewRNG(1), video.DefaultGenConfig("ch", video.Gaming, 90))
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	cfg := server.Config{
		Stream:          stream,
		ServerStreams:   3,
		Lambda:          1,
		HistoryWindow:   time.Minute,
		HistoryInterval: time.Second,
		FlightDir:       dir,
		AuditDir:        tb.TempDir(),
		TraceSample:     1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)

	post := func(path string, body any) {
		tb.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			tb.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			tb.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("POST %s: HTTP %d", path, resp.StatusCode)
		}
	}
	for slot := 0; slot < 3; slot++ {
		for i := 0; i < 6; i++ {
			display := "OLED"
			if i%2 == 0 {
				display = "LCD"
			}
			post("/v1/report", server.ReportRequest{
				DeviceID:         fmt.Sprintf("dev-%02d", i),
				DisplayType:      display,
				Width:            1920,
				Height:           1080,
				DiagonalInch:     6,
				Brightness:       0.6,
				EnergyFrac:       0.8 - 0.1*float64(slot) - 0.05*float64(i),
				BatteryCapacityJ: 50_000,
				BasePowerW:       0.4,
			})
		}
		post("/v1/tick", struct{}{})
		if h := srv.History(); h != nil {
			h.Sample()
		}
	}
	for i := 0; i < captures; i++ {
		post("/v1/incident", server.IncidentRequest{Reason: fmt.Sprintf("drill %d", i)})
	}
	return dir
}

// TestFlightFixtureReplays keeps the checked-in bundle honest: it must
// decode, list, and replay its embedded audit records byte for byte
// against this build's scheduler. -update rewrites it from a daemon
// without history or spans, which the audit replay does not need, so
// the file stays small.
func TestFlightFixtureReplays(t *testing.T) {
	if *update {
		lean := func(c *server.Config) { c.HistoryWindow, c.TraceSample = 0, 0 }
		paths, err := flight.ListBundles(writeBundles(t, 1, lean))
		if err != nil || len(paths) != 1 {
			t.Fatalf("ListBundles: %v (%d)", err, len(paths))
		}
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(flightFixture); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(flightFixture, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(flightFixture, "manual"+flight.BundleExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := flight.ListBundles(flightFixture)
	if err != nil || len(paths) != 1 {
		t.Fatalf("ListBundles(%s): %v (%d bundles, want 1)", flightFixture, err, len(paths))
	}
	b, err := flight.LoadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Binary != "lpvsd" || b.Trigger != flight.TriggerManual || len(b.AuditRecords) == 0 {
		t.Fatalf("fixture bundle: binary %q trigger %q, %d audit records", b.Binary, b.Trigger, len(b.AuditRecords))
	}
	if err := flightList([]string{flightFixture}, io.Discard, io.Discard); err != nil {
		t.Fatalf("list: %v", err)
	}
	if err := flightShow([]string{flightFixture}, io.Discard, io.Discard); err != nil {
		t.Fatalf("show: %v", err)
	}
}

func TestListCommand(t *testing.T) {
	dir := writeBundles(t, 1, nil)
	if err := flightList([]string{dir}, io.Discard, io.Discard); err != nil {
		t.Fatalf("list: %v", err)
	}
	if err := flightList([]string{t.TempDir()}, io.Discard, io.Discard); err == nil {
		t.Fatal("list on an empty directory should fail")
	}
}

// TestShowCommandReplaysByteIdentically is the kill-and-inspect
// contract of DESIGN.md §15 from the CLI side: a bundle on disk, alone,
// must reconstruct the incident — SLO states, metric history, span
// trees, and audit records that replay byte-identically.
func TestShowCommandReplaysByteIdentically(t *testing.T) {
	dir := writeBundles(t, 2, nil)
	// A directory resolves to its newest bundle; an explicit file path
	// must work too. Replay is on by default and errors on divergence.
	if err := flightShow([]string{dir}, io.Discard, io.Discard); err != nil {
		t.Fatalf("show dir: %v", err)
	}
	paths, err := flight.ListBundles(dir)
	if err != nil || len(paths) != 2 {
		t.Fatalf("ListBundles: %v (%d)", err, len(paths))
	}
	if err := flightShow([]string{"-v", paths[0]}, io.Discard, io.Discard); err != nil {
		t.Fatalf("show file: %v", err)
	}

	// The bundle must carry the forensic sections on its own.
	b, err := flight.LoadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(b.SLO) == 0 || len(b.History) == 0 || len(b.Spans) == 0 || len(b.AuditRecords) == 0 {
		t.Fatalf("bundle missing sections: slo=%d history=%d spans=%d audit=%d",
			len(b.SLO), len(b.History), len(b.Spans), len(b.AuditRecords))
	}
	if b.Trigger != flight.TriggerManual || b.Reason != "drill 0" {
		t.Fatalf("bundle trigger %q reason %q, want the first manual capture", b.Trigger, b.Reason)
	}
}

func TestShowCommandFlagsForgedAudit(t *testing.T) {
	dir := writeBundles(t, 1, nil)
	paths, err := flight.ListBundles(dir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("ListBundles: %v (%d)", err, len(paths))
	}
	b, err := flight.LoadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Forge the embedded audit tail: claim a different selection count
	// in the canonical decision. Replay must flag the divergence.
	forged := strings.Replace(string(b.AuditRecords[0]),
		`"decision_canonical":"selected=`, `"decision_canonical":"selected=9`, 1)
	if forged == string(b.AuditRecords[0]) {
		t.Fatal("forgery did not change the record")
	}
	b.AuditRecords[0] = json.RawMessage(forged)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	forgedPath := filepath.Join(t.TempDir(), "forged"+flight.BundleExt)
	if err := os.WriteFile(forgedPath, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := flightShow([]string{forgedPath}, io.Discard, io.Discard); err == nil {
		t.Fatal("show accepted a forged audit record")
	}
	// -replay=false only prints, so the forgery passes unnoticed.
	if err := flightShow([]string{"-replay=false", forgedPath}, io.Discard, io.Discard); err != nil {
		t.Fatalf("show -replay=false: %v", err)
	}
}

func TestDiffCommand(t *testing.T) {
	dir := writeBundles(t, 1, nil)
	paths, err := flight.ListBundles(dir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("ListBundles: %v (%d)", err, len(paths))
	}
	// Self-diff agrees on everything.
	if err := flightDiff([]string{paths[0], paths[0]}, io.Discard, io.Discard); err != nil {
		t.Fatalf("self diff: %v", err)
	}
	// Diff against a doctored copy exercises the field walk.
	b, err := flight.LoadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b.Trigger = flight.TriggerSLO
	b.Reason = "slo tick-latency alarm"
	b.AuditRecords = nil
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), "other"+flight.BundleExt)
	if err := os.WriteFile(other, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := flightDiff([]string{paths[0], other}, io.Discard, io.Discard); err != nil {
		t.Fatalf("diff: %v", err)
	}
	if err := flightDiff([]string{paths[0]}, io.Discard, io.Discard); err == nil {
		t.Fatal("diff with one argument should fail")
	}
}

func TestBundlePathRejectsMissing(t *testing.T) {
	if _, err := bundlePath(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("bundlePath accepted a missing path")
	}
	if _, err := bundlePath(t.TempDir()); err == nil {
		t.Fatal("bundlePath accepted an empty directory")
	}
}
