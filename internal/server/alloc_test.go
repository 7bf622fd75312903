package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"lpvs/internal/obs"
	"lpvs/internal/testenv"
)

// TestAcceptReportAllocsKnownDevice guards the per-report cost of
// ingest: staging a report of a device the daemon already knows, with
// the logger at its default Info level, allocates nothing — in
// particular not the arguments of the disabled Debug line.
func TestAcceptReportAllocsKnownDevice(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	logger, err := obs.NewLogger(io.Discard, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	req := validReport("dev-1")
	s.mu.Lock()
	defer s.mu.Unlock()
	if aerr := s.acceptReportLocked(req); aerr != nil {
		t.Fatal(aerr)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if aerr := s.acceptReportLocked(req); aerr != nil {
			t.Fatal(aerr)
		}
	})
	if allocs != 0 {
		t.Fatalf("acceptReportLocked allocates %.1f per report of a known device, want 0", allocs)
	}
}

// debugLine runs the daemon with a JSON debug logger, lets drive issue
// requests, and returns the log entry with the given message.
func debugLine(t *testing.T, msg string, drive func(url string)) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drive(ts.URL)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if entry["msg"] == msg {
			return entry
		}
	}
	t.Fatalf("no %q line in:\n%s", msg, buf.String())
	return nil
}

// wantEntry checks a log entry's message-specific keys and values (JSON
// numbers decode as float64).
func wantEntry(t *testing.T, entry, want map[string]any) {
	t.Helper()
	if entry["level"] != "DEBUG" {
		t.Errorf("level %v, want DEBUG", entry["level"])
	}
	for k, v := range want {
		if entry[k] != v {
			t.Errorf("%s = %v (%T), want %v", k, entry[k], entry[k], v)
		}
	}
	if got := len(entry) - 3; got != len(want) { // time, level, msg
		t.Errorf("entry has %d attrs, want %d: %v", got, len(want), entry)
	}
}

func TestDebugLogReportAccepted(t *testing.T) {
	entry := debugLine(t, "report accepted", func(url string) {
		postJSON(t, url+"/v1/report", validReport("dev-1"), nil)
	})
	wantEntry(t, entry, map[string]any{
		"device": "dev-1", "channel": "ch", "energy_frac": 0.5, "slot": float64(0),
	})
}

func TestDebugLogObservation(t *testing.T) {
	entry := debugLine(t, "observation", func(url string) {
		postJSON(t, url+"/v1/report", validReport("dev-1"), nil)
		postJSON(t, url+"/v1/observe", ObserveRequest{DeviceID: "dev-1", Reduction: 0.3}, nil)
	})
	gamma, ok := entry["gamma"].(float64)
	if !ok || gamma <= 0 || gamma >= 1 {
		t.Errorf("gamma = %v, want a number in (0, 1)", entry["gamma"])
	}
	delete(entry, "gamma")
	wantEntry(t, entry, map[string]any{
		"device": "dev-1", "reduction": 0.3, "observations": float64(1),
	})
}
