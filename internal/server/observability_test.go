package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lpvs/internal/obs"
	"lpvs/internal/obs/audit"
	"lpvs/internal/obs/span"
)

// obsServer builds a daemon with auditing and full tracing on.
func obsServer(tb testing.TB, streams int) (*Server, *httptest.Server, string) {
	tb.Helper()
	dir := tb.TempDir()
	s, err := New(Config{
		Stream:        testStream(tb),
		ServerStreams: streams,
		Lambda:        1,
		AuditDir:      dir,
		TraceSample:   1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts, filepath.Join(dir, audit.FileName)
}

// reportAndTick registers n devices and runs one tick.
func reportAndTick(tb testing.TB, ts *httptest.Server, n int) TickResponse {
	tb.Helper()
	for i := 0; i < n; i++ {
		rep := validReport(fmt.Sprintf("exp-%02d", i))
		rep.EnergyFrac = 0.3 + 0.05*float64(i)
		if resp := postJSON(tb, ts.URL+"/v1/report", rep, nil); resp.StatusCode != http.StatusOK {
			tb.Fatalf("report %d: status %d", i, resp.StatusCode)
		}
	}
	var tick TickResponse
	if resp := postJSON(tb, ts.URL+"/v1/tick", nil, &tick); resp.StatusCode != http.StatusOK {
		tb.Fatalf("tick: status %d", resp.StatusCode)
	}
	return tick
}

// TestExplainSelectedAndRejected is the ISSUE's acceptance check: after
// a capacity-bound tick, /v1/explain returns a non-empty reason for
// both a selected and a rejected device.
func TestExplainSelectedAndRejected(t *testing.T) {
	// 1080p reports cost 2.25 compute units each: capacity 3 fits
	// exactly one of the three devices.
	_, ts, _ := obsServer(t, 3)
	tick := reportAndTick(t, ts, 3)
	if tick.Selected == 0 || tick.Selected == tick.Reports {
		t.Fatalf("tick lost its mix: %d of %d selected", tick.Selected, tick.Reports)
	}
	sawSelected, sawRejected := false, false
	for i := 0; i < 3; i++ {
		var exp ExplainResponse
		id := fmt.Sprintf("exp-%02d", i)
		if resp := getJSON(t, ts.URL+"/v1/explain?device="+id, &exp); resp.StatusCode != http.StatusOK {
			t.Fatalf("explain %s: status %d", id, resp.StatusCode)
		}
		if exp.Reason == "" || exp.Detail == "" {
			t.Fatalf("explain %s: empty reason/detail: %+v", id, exp)
		}
		if exp.DeviceID != id || exp.Slot != 0 {
			t.Fatalf("explain %s: wrong identity: %+v", id, exp)
		}
		if exp.AnxietyBefore <= 0 || exp.Gamma <= 0 {
			t.Fatalf("explain %s: missing quantities: %+v", id, exp)
		}
		if exp.Selected {
			sawSelected = true
		} else {
			sawRejected = true
			if !exp.Eligible && exp.Reason != "ineligible" {
				t.Fatalf("explain %s: ineligible device with reason %q", id, exp.Reason)
			}
		}
	}
	if !sawSelected || !sawRejected {
		t.Fatalf("missing outcome: selected=%t rejected=%t", sawSelected, sawRejected)
	}
}

func TestExplainErrors(t *testing.T) {
	_, ts, _ := obsServer(t, -1)
	if resp := getJSON(t, ts.URL+"/v1/explain?device=ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown device: status %d", resp.StatusCode)
	}
	// Known device, but no tick has scheduled it yet.
	if resp := postJSON(t, ts.URL+"/v1/report", validReport("early"), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/explain?device=early", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unscheduled device: status %d", resp.StatusCode)
	}
}

func TestStatusReportsObservabilityConfig(t *testing.T) {
	_, ts, auditPath := obsServer(t, -1)
	var st StatusResponse
	if resp := getJSON(t, ts.URL+"/v1/status", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	if st.StartUnixSec <= 0 || st.UptimeMS < 0 {
		t.Fatalf("missing start time: %+v", st)
	}
	if st.TraceSample != 1 {
		t.Fatalf("trace_sample = %v, want 1", st.TraceSample)
	}
	if st.AuditPath != auditPath {
		t.Fatalf("audit_path = %q, want %q", st.AuditPath, auditPath)
	}
	// With observability off, the fields report that too.
	s2, err := New(Config{Stream: testStream(t), ServerStreams: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var st2 StatusResponse
	getJSON(t, ts2.URL+"/v1/status", &st2)
	if st2.AuditPath != "" || st2.TraceSample != 0 {
		t.Fatalf("off-by-default fields leaked: %+v", st2)
	}
}

// TestTickAuditLogReplays drives ticks through the HTTP surface and
// replays the resulting audit log byte for byte.
func TestTickAuditLogReplays(t *testing.T) {
	_, ts, auditPath := obsServer(t, 3)
	reportAndTick(t, ts, 3)
	reportAndTick(t, ts, 2)
	recs, err := audit.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d audit records, want 2", len(recs))
	}
	for i, rec := range recs {
		if rec.Slot != i || rec.VC != fmt.Sprintf("slot-%d", i) {
			t.Fatalf("record %d identifies as slot %d vc %s", i, rec.Slot, rec.VC)
		}
		if rec.TraceID == "" {
			t.Fatalf("record %d lost its trace ID", i)
		}
		if len(rec.Verdicts) != len(rec.Requests) {
			t.Fatalf("record %d: %d verdicts for %d requests", i, len(rec.Verdicts), len(rec.Requests))
		}
	}
	diverged, err := audit.ReplayAll(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diverged != 0 {
		t.Fatalf("%d records diverged on replay", diverged)
	}
}

// TestTickSpanTreeMatchesCallGraph asserts the trace of one tick nests
// exactly like the call graph: tick -> vc -> compact/phase1/phase2,
// and an observation round-trip traces observe -> bayes-update.
func TestTickSpanTreeMatchesCallGraph(t *testing.T) {
	s, ts, _ := obsServer(t, -1)
	reportAndTick(t, ts, 2)
	spans := s.tracer.Snapshot()
	var tickTrace string
	for _, d := range spans {
		if d.Name == "tick" {
			tickTrace = d.TraceID
		}
	}
	if tickTrace == "" {
		t.Fatalf("no tick span in %d spans", len(spans))
	}
	roots := span.Tree(spans, tickTrace)
	if len(roots) != 1 || roots[0].Name != "tick" {
		t.Fatalf("tick trace roots: %+v", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "vc" {
		t.Fatalf("tick children: %+v", roots[0].Children)
	}
	vc := roots[0].Children[0]
	if got := vc.StrAttrs["vc"]; got != "edge" {
		t.Fatalf("vc attr = %q", got)
	}
	var names []string
	for _, c := range vc.Children {
		names = append(names, c.Name)
	}
	if fmt.Sprint(names) != "[compact phase1 phase2]" {
		t.Fatalf("vc children = %v, want [compact phase1 phase2]", names)
	}
	// Stage spans must reconcile with the histogram-backing decision
	// timings: positive durations, nested within the vc span.
	for _, c := range vc.Children {
		if c.DurationSec < 0 || c.DurationSec > vc.DurationSec {
			t.Fatalf("stage %s duration %v outside vc %v", c.Name, c.DurationSec, vc.DurationSec)
		}
	}

	// Observation round-trip.
	postJSON(t, ts.URL+"/v1/observe", ObserveRequest{DeviceID: "exp-00", Reduction: 0.4}, nil)
	spans = s.tracer.Snapshot()
	var obsTrace string
	for _, d := range spans {
		if d.Name == "observe" {
			obsTrace = d.TraceID
		}
	}
	if obsTrace == "" {
		t.Fatal("no observe span recorded")
	}
	oroots := span.Tree(spans, obsTrace)
	if len(oroots) != 1 || len(oroots[0].Children) != 1 || oroots[0].Children[0].Name != "bayes-update" {
		t.Fatalf("observe trace shape wrong: %+v", oroots)
	}
}

// TestAuditEncodeFailureIsLoggedNotWritten: a record the encoder
// refuses — a NaN or an infinity where JSON has no form for it — is
// logged as "audit encode failed" and skipped, whichever of the
// record's float fields holds it: the log gains no byte from it, the
// flight recorder's tail no line, and the reused builder encodes the
// next tick's record as if nothing happened. The line streams through
// a fixed buffer, so this holds only because the record is checked
// whole before its first piece leaves.
func TestAuditEncodeFailureIsLoggedNotWritten(t *testing.T) {
	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := New(Config{Stream: testStream(t), ServerStreams: 3, Lambda: 1, AuditDir: dir,
		FlightDir: t.TempDir(), Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	reportAndTick(t, ts, 3)

	// No report can carry a NaN past validation, so run a real tick,
	// build its record again and poison one float of it at a time.
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/report", validReport(fmt.Sprintf("exp-%02d", i)), nil)
	}
	s.mu.Lock()
	out, err := s.runTickLocked(context.Background(), oneVC)
	if err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	rec := s.auditRec.Build(s.slot, "slot-poisoned", s.pool.Scheduler().Config(), out.vcs[0].Requests, out.decided[0].Decision)
	rec.UnixSec = 1754400000.5
	var floats []reflect.Value
	floatLeaves(reflect.ValueOf(rec).Elem(), &floats)
	logPath := filepath.Join(dir, audit.FileName)
	size := func() int64 {
		info, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	before, tail := size(), s.flight.AuditTailLen()
	for i, f := range floats {
		old := f.Float()
		f.SetFloat([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3])
		s.appendAuditLocked(rec.VC)
		f.SetFloat(old)
		if n := strings.Count(logBuf.String(), `"msg":"audit encode failed"`); n != i+1 || size() != before || s.flight.AuditTailLen() != tail {
			s.mu.Unlock()
			t.Fatalf("float %d of %d poisoned: %d audit-encode-failed lines, log %d -> %d bytes, flight tail %d -> %d",
				i, len(floats), n, before, size(), tail, s.flight.AuditTailLen())
		}
	}
	s.mu.Unlock()
	if len(floats) < 100 || !strings.Contains(logBuf.String(), `"vc":"slot-poisoned"`) {
		t.Fatalf("poisoned %d floats of the record, want all of them (100+), each logged under its vc", len(floats))
	}

	reportAndTick(t, ts, 3)
	recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].VC != "slot-0" || recs[1].VC != "slot-1" || recs[2].VC != "slot-2" {
		t.Fatalf("log holds %d records, want the three real ticks and nothing of the poisoned one", len(recs))
	}
	if diverged, err := audit.ReplayAll(recs, nil); err != nil || diverged != 0 {
		t.Fatalf("%d records diverged on replay (err %v)", diverged, err)
	}
}

// floatLeaves collects every float64 reachable from v through structs,
// slices and non-nil pointers.
func floatLeaves(v reflect.Value, out *[]reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			floatLeaves(v.Field(i), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			floatLeaves(v.Index(i), out)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			floatLeaves(v.Elem(), out)
		}
	case reflect.Float64:
		*out = append(*out, v)
	}
}
