package flight

import (
	"strings"
	"testing"
	"time"

	"lpvs/internal/obs"
	"lpvs/internal/obs/history"
)

// TestForensicsExpositionConformanceGolden pins the full exposition of
// every lpvs_history_* and lpvs_flight_* self-telemetry family: names,
// HELP text, types, label sets, and deterministic values. A family
// added to either Register without extending this golden — or a
// changed HELP string — is a conformance regression: dashboards and
// alerts key on these exact series.
func TestForensicsExpositionConformanceGolden(t *testing.T) {
	// The sampled source registry: one counter, one gauge, one
	// histogram = 5 history rings (counter delta, gauge point, p50,
	// p99, _count).
	src := obs.NewRegistry()
	src.Counter("lpvs_ticks_total", "Ticks.").Add(3)
	src.Gauge("lpvs_devices", "Devices.").Set(7)
	src.Histogram("lpvs_tick_duration_seconds", "Tick wall time.", obs.DefBuckets()).Observe(0.05)

	hist := history.New(src, history.Config{Window: time.Minute, Interval: time.Second})
	hist.Sample()

	now := time.Unix(100, 0)
	rec, err := New(Config{
		Dir:     t.TempDir(),
		History: hist,
		Now:     func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := obs.NewRegistry()
	hist.Register(exp)
	rec.Register(exp)
	rec.NoteAudit([]byte(`{"slot":0}`))
	if _, err := rec.Capture("golden"); err != nil {
		t.Fatal(err)
	}

	// 5 rings x (61-point capacity x 16 bytes + 128 bytes overhead).
	want := `# HELP lpvs_flight_armed 1 while the flight recorder is armed.
# TYPE lpvs_flight_armed gauge
lpvs_flight_armed 1
# HELP lpvs_flight_audit_tail_records Audit records currently held in the flight tail ring.
# TYPE lpvs_flight_audit_tail_records gauge
lpvs_flight_audit_tail_records 1
# HELP lpvs_flight_bundles_total Incident bundles written, by trigger.
# TYPE lpvs_flight_bundles_total counter
lpvs_flight_bundles_total{trigger="manual"} 1
# HELP lpvs_flight_errors_total Incident-bundle capture attempts that failed.
# TYPE lpvs_flight_errors_total counter
lpvs_flight_errors_total 0
# HELP lpvs_flight_last_bundle_unix_seconds Write time of the newest incident bundle (0 = none yet).
# TYPE lpvs_flight_last_bundle_unix_seconds gauge
lpvs_flight_last_bundle_unix_seconds 100
# HELP lpvs_flight_suppressed_total Automatic captures skipped by the capture cooldown.
# TYPE lpvs_flight_suppressed_total counter
lpvs_flight_suppressed_total 0
# HELP lpvs_history_dropped_total History point-writes refused by the memory budget.
# TYPE lpvs_history_dropped_total counter
lpvs_history_dropped_total 0
# HELP lpvs_history_memory_bytes Estimated bytes held by history rings under the budget model.
# TYPE lpvs_history_memory_bytes gauge
lpvs_history_memory_bytes 5520
# HELP lpvs_history_points Samples currently retained across all history rings.
# TYPE lpvs_history_points gauge
lpvs_history_points 5
# HELP lpvs_history_samples_total Metric-history sampling passes completed.
# TYPE lpvs_history_samples_total counter
lpvs_history_samples_total 1
# HELP lpvs_history_series Time series currently retained by the history ring.
# TYPE lpvs_history_series gauge
lpvs_history_series 5
# HELP lpvs_history_window_seconds Retention window of the history ring.
# TYPE lpvs_history_window_seconds gauge
lpvs_history_window_seconds 60
`
	var b strings.Builder
	if err := exp.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("forensics exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
