package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"lpvs/internal/testenv"
)

func TestInstrumentRecordsTraffic(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, nil)
	ok := m.Instrument("GET /ok", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	fail := m.Instrument("GET /fail", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		ok.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
	}
	rec := httptest.NewRecorder()
	fail.ServeHTTP(rec, httptest.NewRequest("GET", "/fail", nil))

	var b strings.Builder
	_ = reg.WriteText(&b)
	text := b.String()
	for _, want := range []string{
		`lpvs_http_requests_total{route="GET /ok",code="200"} 3`,
		`lpvs_http_requests_total{route="GET /fail",code="500"} 1`,
		`lpvs_http_errors_total{route="GET /fail"} 1`,
		`lpvs_http_request_duration_seconds_count{route="GET /ok"} 3`,
		`lpvs_http_in_flight_requests 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, `lpvs_http_errors_total{route="GET /ok"}`) {
		t.Error("ok route counted as error")
	}
}

func TestInstrumentLogsServerErrors(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, logger)
	h := m.Instrument("GET /boom", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/boom", nil))

	var entry map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	if entry["route"] != "GET /boom" || entry["code"] != float64(http.StatusBadGateway) {
		t.Fatalf("log entry %v", entry)
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg, "lpvsd", "1.2.3")
	var b strings.Builder
	_ = reg.WriteText(&b)
	text := b.String()
	if !strings.Contains(text, `lpvs_build_info{binary="lpvsd",version="1.2.3",go_version="go`) {
		t.Fatalf("build info missing:\n%s", text)
	}
}

// TestInstrumentAllocsAtInfo guards the per-request cost of the
// middleware once a route's series are resolved: with request logging
// off (Info) it allocates nothing, the statusWriter being pooled.
func TestInstrumentAllocsAtInfo(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	logger, err := NewLogger(io.Discard, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	m := NewHTTPMetrics(NewRegistry(), logger)
	h := m.Instrument("GET /ok", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/ok?device=d1", nil)
	h.ServeHTTP(rec, req) // resolves the 200 series
	allocs := testing.AllocsPerRun(100, func() { h.ServeHTTP(rec, req) })
	if allocs != 0 {
		t.Fatalf("an instrumented request allocates %.1f, want 0", allocs)
	}
}

// TestInstrumentDebugLogLine pins the request log line: same message,
// keys and values as before the middleware moved to typed attrs.
func TestInstrumentDebugLogLine(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	m := NewHTTPMetrics(NewRegistry(), logger)
	h := m.Instrument("GET /v1/thing", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	req := httptest.NewRequest("GET", "/v1/thing?device=d1", nil)
	req.RemoteAddr = "192.0.2.7:4242"
	h.ServeHTTP(httptest.NewRecorder(), req)

	var entry map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	if ms, ok := entry["duration_ms"].(float64); !ok || ms < 0 {
		t.Errorf("duration_ms = %v, want a non-negative number", entry["duration_ms"])
	}
	delete(entry, "duration_ms")
	delete(entry, "time")
	want := map[string]any{
		"level": "DEBUG", "msg": "http request",
		"route": "GET /v1/thing", "method": "GET", "path": "/v1/thing",
		"code": float64(http.StatusNotFound), "remote": "192.0.2.7:4242",
	}
	if !reflect.DeepEqual(entry, want) {
		t.Fatalf("log entry %v, want %v", entry, want)
	}
}

// TestInstrumentSeriesAppearOnFirstUse checks that keeping resolved
// handles did not make resolution eager: a route that has served nothing
// has no series, a status code gets its lpvs_http_requests_total series
// the first time it is served, and a series the cardinality budget
// refuses stays unexposed on every request and is counted as dropped
// once per label set.
func TestInstrumentSeriesAppearOnFirstUse(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, nil)
	code := http.StatusOK
	h := m.Instrument("GET /x", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(code)
	}))
	text := func() string {
		var b strings.Builder
		_ = reg.WriteText(&b)
		return b.String()
	}
	serve := func() { h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil)) }

	if strings.Contains(text(), `route="GET /x"`) {
		t.Fatalf("series exist before the first request:\n%s", text())
	}
	serve()
	serve()
	if out := text(); !strings.Contains(out, `lpvs_http_requests_total{route="GET /x",code="200"} 2`) ||
		strings.Contains(out, `code="503"`) || strings.Contains(out, `lpvs_http_errors_total{route="GET /x"}`) {
		t.Fatalf("after two 200s:\n%s", out)
	}
	code = http.StatusServiceUnavailable
	serve()
	for _, want := range []string{
		`lpvs_http_requests_total{route="GET /x",code="200"} 2`,
		`lpvs_http_requests_total{route="GET /x",code="503"} 1`,
		`lpvs_http_errors_total{route="GET /x"} 1`,
		`lpvs_http_request_duration_seconds_count{route="GET /x"} 3`,
	} {
		if !strings.Contains(text(), want) {
			t.Errorf("missing %q in:\n%s", want, text())
		}
	}

	// The budget is full (two code series): a third code is refused on
	// every request and counted once, a fourth counted again.
	reg.SetSeriesBudget(2)
	code = http.StatusTeapot
	serve()
	serve()
	if got := reg.DroppedSeries(); got != 1 {
		t.Errorf("DroppedSeries = %d after two refused requests with one code, want 1", got)
	}
	code = http.StatusGatewayTimeout
	serve()
	if got := reg.DroppedSeries(); got != 2 {
		t.Errorf("DroppedSeries = %d after a second refused code, want 2", got)
	}
	if out := text(); strings.Contains(out, `code="418"`) || strings.Contains(out, `code="504"`) {
		t.Errorf("refused series was exposed:\n%s", out)
	}
}
