package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lpvs/internal/obs/audit"
	"lpvs/internal/persist"
)

// persistServer builds a server whose lifecycle the test controls —
// unlike testServer, Close is explicit so a "kill" can be simulated.
func persistServer(tb testing.TB, mutate func(*Config)) (*Server, *httptest.Server) {
	tb.Helper()
	cfg := Config{Stream: testStream(tb), ServerStreams: 6, Lambda: 1}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

// scriptReport is the deterministic per-(device, slot) report script
// both the uninterrupted and the killed daemon replay.
func scriptReport(i, slot int) ReportRequest {
	r := validReport(fmt.Sprintf("dev-%02d", i))
	if i%2 == 0 {
		r.DisplayType = "LCD"
	}
	r.EnergyFrac = 0.9 - 0.06*float64(slot) - 0.02*float64(i%9)
	if r.EnergyFrac < 0.05 {
		r.EnergyFrac = 0.05
	}
	return r
}

// driveSlots replays the deterministic script for slots [from, to):
// report every device, tick, then feed observations so the posteriors
// keep moving between slots.
func driveSlots(tb testing.TB, url string, nDev, from, to int) {
	tb.Helper()
	for slot := from; slot < to; slot++ {
		for i := 0; i < nDev; i++ {
			if resp := postJSON(tb, url+"/v1/report", scriptReport(i, slot), nil); resp.StatusCode != http.StatusOK {
				tb.Fatalf("slot %d report %d: status %d", slot, i, resp.StatusCode)
			}
		}
		if resp := postJSON(tb, url+"/v1/tick", struct{}{}, nil); resp.StatusCode != http.StatusOK {
			tb.Fatalf("slot %d tick: status %d", slot, resp.StatusCode)
		}
		for i := 0; i < nDev; i += 3 {
			obs := ObserveRequest{
				DeviceID:  fmt.Sprintf("dev-%02d", i),
				Reduction: 0.2 + 0.01*float64(i%10) + 0.005*float64(slot%8),
			}
			if resp := postJSON(tb, url+"/v1/observe", obs, nil); resp.StatusCode != http.StatusOK {
				tb.Fatalf("slot %d observe %d: status %d", slot, i, resp.StatusCode)
			}
		}
	}
}

func readAudit(tb testing.TB, dir string) []*audit.Record {
	tb.Helper()
	recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		tb.Fatal(err)
	}
	return recs
}

// TestKillAndRestartDifferential is the daemon's durable-state
// contract (DESIGN.md §14): a daemon killed after a snapshot and
// warm-restarted must go on making decisions byte-identical to one
// that never died — at pool width one and four — and both make the
// decisions a cold Schedule makes: the restarted daemon's stream starts
// from the snapshot's warm seed only, the reference's has eight slots
// behind it, and audit replay re-solves every record with no stream at
// all.
func TestKillAndRestartDifferential(t *testing.T) {
	const (
		nDev   = 18
		slots  = 8
		killAt = 4
	)
	cases := map[string]func(*Config){
		"serial": func(c *Config) { c.Workers = 1 },
		"pooled": func(c *Config) { c.Workers = 4 },
	}
	for name, variant := range cases {
		t.Run(name, func(t *testing.T) {
			auditA, auditB := t.TempDir(), t.TempDir()
			snapDir := t.TempDir()

			// The uninterrupted reference daemon.
			sA, tsA := persistServer(t, func(c *Config) { variant(c); c.AuditDir = auditA })
			driveSlots(t, tsA.URL, nDev, 0, slots)
			tsA.Close()
			if err := sA.Close(); err != nil {
				t.Fatal(err)
			}

			// The killed daemon: same script, snapshot at the kill point.
			sB, tsB := persistServer(t, func(c *Config) { variant(c); c.AuditDir = auditB; c.SnapshotDir = snapDir })
			driveSlots(t, tsB.URL, nDev, 0, killAt)
			if err := sB.SaveSnapshot(); err != nil {
				t.Fatal(err)
			}
			tsB.Close()
			if err := sB.Close(); err != nil {
				t.Fatal(err)
			}

			// Warm restart; it must report ready and announce the snapshot
			// restore path before serving.
			sB2, tsB2 := persistServer(t, func(c *Config) { variant(c); c.AuditDir = auditB; c.SnapshotDir = snapDir })
			defer sB2.Close()
			defer tsB2.Close()
			var st StatusResponse
			getJSON(t, tsB2.URL+"/v1/status", &st)
			if st.RestorePath != RestoreSnapshot {
				t.Fatalf("restore path %q (%s), want %q", st.RestorePath, st.RestoreDetail, RestoreSnapshot)
			}
			if st.Slot != killAt || st.Devices != nDev {
				t.Fatalf("restored at slot %d with %d devices, want slot %d with %d", st.Slot, st.Devices, killAt, nDev)
			}
			if resp, err := http.Get(tsB2.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("restored daemon not ready: %v %v", resp, err)
			}
			driveSlots(t, tsB2.URL, nDev, killAt, slots)

			recsA, recsB := readAudit(t, auditA), readAudit(t, auditB)
			if len(recsA) != slots || len(recsB) != slots {
				t.Fatalf("audit lengths %d / %d, want %d", len(recsA), len(recsB), slots)
			}
			for i := range recsA {
				a, b := recsA[i], recsB[i]
				if a.Slot != b.Slot {
					t.Fatalf("record %d: slots %d vs %d", i, a.Slot, b.Slot)
				}
				if string(a.DecisionCanonical) != string(b.DecisionCanonical) {
					t.Fatalf("slot %d: killed-and-restarted decision diverged from uninterrupted run", a.Slot)
				}
			}
			if diverged, err := audit.ReplayAll(recsB, nil); err != nil || diverged != 0 {
				t.Fatalf("%d of the restarted daemon's records diverged from their cold replay (err %v)", diverged, err)
			}
		})
	}
}

// TestKillWithPendingReports: reports staged but not yet ticked at the
// kill survive the restart, and the tick they feed matches the
// uninterrupted daemon's byte for byte.
func TestKillWithPendingReports(t *testing.T) {
	const (
		nDev   = 12
		warmup = 3
	)
	auditA, auditB := t.TempDir(), t.TempDir()
	snapDir := t.TempDir()

	sA, tsA := persistServer(t, func(c *Config) { c.AuditDir = auditA })
	driveSlots(t, tsA.URL, nDev, 0, warmup)
	for i := 0; i < nDev; i++ {
		postJSON(t, tsA.URL+"/v1/report", scriptReport(i, warmup), nil)
	}
	postJSON(t, tsA.URL+"/v1/tick", struct{}{}, nil)
	tsA.Close()
	sA.Close()

	sB, tsB := persistServer(t, func(c *Config) { c.AuditDir = auditB; c.SnapshotDir = snapDir })
	driveSlots(t, tsB.URL, nDev, 0, warmup)
	for i := 0; i < nDev; i++ {
		postJSON(t, tsB.URL+"/v1/report", scriptReport(i, warmup), nil)
	}
	// Kill with the slot's reports staged but undecided.
	if err := sB.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	tsB.Close()
	sB.Close()

	sB2, tsB2 := persistServer(t, func(c *Config) { c.AuditDir = auditB; c.SnapshotDir = snapDir })
	defer sB2.Close()
	defer tsB2.Close()
	var st StatusResponse
	getJSON(t, tsB2.URL+"/v1/status", &st)
	if st.PendingReports != nDev {
		t.Fatalf("restored %d pending reports, want %d", st.PendingReports, nDev)
	}
	postJSON(t, tsB2.URL+"/v1/tick", struct{}{}, nil)

	recsA, recsB := readAudit(t, auditA), readAudit(t, auditB)
	if len(recsA) != warmup+1 || len(recsB) != warmup+1 {
		t.Fatalf("audit lengths %d / %d", len(recsA), len(recsB))
	}
	lastA, lastB := recsA[len(recsA)-1], recsB[len(recsB)-1]
	if string(lastA.DecisionCanonical) != string(lastB.DecisionCanonical) {
		t.Fatal("tick fed from restored pending reports diverged")
	}
}

// TestCorruptSnapshotFallsBackToAudit: a flipped byte in the snapshot
// demotes boot to audit recovery — visible in /v1/status and the
// restore counter — without a panic.
func TestCorruptSnapshotFallsBackToAudit(t *testing.T) {
	auditDir, snapDir := t.TempDir(), t.TempDir()
	s, ts := persistServer(t, func(c *Config) { c.AuditDir = auditDir; c.SnapshotDir = snapDir })
	driveSlots(t, ts.URL, 8, 0, 3)
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	s.Close()

	path := filepath.Join(snapDir, persist.SnapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := persistServer(t, func(c *Config) { c.AuditDir = auditDir; c.SnapshotDir = snapDir })
	defer s2.Close()
	defer ts2.Close()
	var st StatusResponse
	getJSON(t, ts2.URL+"/v1/status", &st)
	if st.RestorePath != RestoreAudit {
		t.Fatalf("restore path %q (%s), want %q", st.RestorePath, st.RestoreDetail, RestoreAudit)
	}
	if st.Devices == 0 {
		t.Fatal("audit recovery restored no devices")
	}
	if !strings.Contains(st.RestoreDetail, "snapshot:") {
		t.Fatalf("restore detail %q does not say why the snapshot was skipped", st.RestoreDetail)
	}
	text := scrape(t, ts2.URL)
	if v := metricValue(t, text, `lpvs_snapshot_restore_total{path="audit"}`); v != 1 {
		t.Fatalf("restore counter = %v, want 1", v)
	}
	if resp, err := http.Get(ts2.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon not ready after audit recovery: %v %v", resp, err)
	}
}

// TestAuditLadderReadsOldAndMixedLogs takes the audit rung of the
// recovery ladder over logs the current writer cannot produce: the
// checked-in schema-1 log (internal/obs/audit/testdata/v1, 16 devices
// over slots 0-5) on its own, then the mixed log a daemon upgraded
// mid-run leaves once this binary has appended schema-2 records to it.
// TestCorruptSnapshotFallsBackToAudit is the schema-2-only case.
func TestAuditLadderReadsOldAndMixedLogs(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("..", "obs", "audit", "testdata", "v1", audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	auditDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(auditDir, audit.FileName), old, 0o644); err != nil {
		t.Fatal(err)
	}

	// Each boot gets a fresh, empty snapshot dir: the ladder's first rung
	// finds no file and demotes to the log.
	boot := func() (*Server, *httptest.Server) {
		return persistServer(t, func(c *Config) { c.AuditDir = auditDir; c.SnapshotDir = t.TempDir() })
	}

	// Boot 1: schema-1 log only.
	s, ts := boot()
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.RestorePath != RestoreAudit || st.Devices != 16 || st.Slot != 6 {
		t.Fatalf("schema-1 log: restore path %q (%s), %d devices at slot %d; want audit, 16 at 6",
			st.RestorePath, st.RestoreDetail, st.Devices, st.Slot)
	}
	// The upgraded daemon keeps appending to the same file.
	driveSlots(t, ts.URL, 8, 6, 9)
	ts.Close()
	s.Close()

	recs := readAudit(t, auditDir)
	if len(recs) != 9 || recs[5].Schema != 1 || recs[6].Schema != audit.SchemaVersion {
		t.Fatalf("mixed log holds %d records, schemas %d then %d", len(recs), recs[5].Schema, recs[6].Schema)
	}
	if diverged, err := audit.ReplayAll(recs, nil); err != nil || diverged != 0 {
		t.Fatalf("mixed log replay: diverged %v, err %v", diverged, err)
	}

	// Boot 2: the mixed log.
	s2, ts2 := boot()
	defer s2.Close()
	defer ts2.Close()
	getJSON(t, ts2.URL+"/v1/status", &st)
	if st.RestorePath != RestoreAudit || st.Devices != 16+8 || st.Slot != 9 {
		t.Fatalf("mixed log: restore path %q (%s), %d devices at slot %d; want audit, 24 at 9",
			st.RestorePath, st.RestoreDetail, st.Devices, st.Slot)
	}
	// A device last seen in a schema-1 record and one last seen in a
	// schema-2 record both came back with their logged decision state.
	for _, id := range []string{recs[5].Requests[0].Device, "dev-03"} {
		if resp, err := http.Get(ts2.URL + "/v1/decision?device=" + id); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("decision for recovered device %s: %v %v", id, resp, err)
		}
	}
}

// TestAuditLadderRefusesNodeCappedLastRecord: the audit rung trusts a
// log only if its last record replays byte-identically. A record whose
// Phase-1 search the logging build truncated at max_nodes (the fixture
// in internal/obs/audit/testdata, written before the search had its
// cardinality bound) replays here with optimal=true, so the rung
// refuses it and boot demotes to a cold start — the safe direction —
// with the reason spelled out in the restore detail.
func TestAuditLadderRefusesNodeCappedLastRecord(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("..", "obs", "audit", "testdata", "record.nodecapped.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	auditDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(auditDir, audit.FileName), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := persistServer(t, func(c *Config) { c.AuditDir = auditDir; c.SnapshotDir = t.TempDir() })
	defer s.Close()
	defer ts.Close()
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.RestorePath != RestoreCold || st.Devices != 0 {
		t.Fatalf("restore path %q with %d devices (%s), want a cold start", st.RestorePath, st.Devices, st.RestoreDetail)
	}
	for _, want := range []string{"refusing audit recovery", "logged search was node-capped; this build proves the selection"} {
		if !strings.Contains(st.RestoreDetail, want) {
			t.Fatalf("restore detail %q does not contain %q", st.RestoreDetail, want)
		}
	}
}

// TestCorruptSnapshotFallsBackToCold: with no audit log either, boot
// demotes all the way to a cold start — empty but alive.
func TestCorruptSnapshotFallsBackToCold(t *testing.T) {
	snapDir := t.TempDir()
	s, ts := persistServer(t, func(c *Config) { c.SnapshotDir = snapDir })
	driveSlots(t, ts.URL, 6, 0, 2)
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	s.Close()

	path := filepath.Join(snapDir, persist.SnapshotFile)
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := persistServer(t, func(c *Config) { c.SnapshotDir = snapDir })
	defer s2.Close()
	defer ts2.Close()
	var st StatusResponse
	getJSON(t, ts2.URL+"/v1/status", &st)
	if st.RestorePath != RestoreCold {
		t.Fatalf("restore path %q, want %q", st.RestorePath, RestoreCold)
	}
	if st.Devices != 0 || st.Slot != 0 {
		t.Fatalf("cold start carried state: slot %d, %d devices", st.Slot, st.Devices)
	}
	if resp, err := http.Get(ts2.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon not ready after cold fallback: %v %v", resp, err)
	}
}

// TestSnapshotStatusAndMetrics: SaveSnapshot is visible in /v1/status
// and the lpvs_snapshot_* metric families, and every lifetime count
// /v1/status reports is its family's sample in /metrics. The daemon
// drives one of each event: a standalone tick, a JSON and a binary
// report, a snapshot write, a shard tick and a shed request. Under the
// 1 ns deadline both ticks degrade, so the degraded (2) and shed (1)
// counts differ, and a status field that read the other's counter
// would show.
func TestSnapshotStatusAndMetrics(t *testing.T) {
	snapDir := t.TempDir()
	s, ts := persistServer(t, func(c *Config) {
		c.SnapshotDir = snapDir
		c.ShardMode, c.NodeID = true, "n1"
		c.SchedDeadline = time.Nanosecond
		c.MaxInflight = 1
	})
	defer s.Close()
	defer ts.Close()
	driveSlots(t, ts.URL, 5, 0, 1)

	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.SnapshotPath == "" || st.SnapshotWrites != 0 {
		t.Fatalf("pre-save status %+v", st)
	}
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.SnapshotWrites != 1 || st.SnapshotErrors != 0 {
		t.Fatalf("writes/errors = %d/%d, want 1/0", st.SnapshotWrites, st.SnapshotErrors)
	}
	if st.SnapshotLastBytes <= 0 || st.SnapshotLastUnixSec <= 0 {
		t.Fatalf("last write not recorded: %+v", st)
	}
	text := scrape(t, ts.URL)
	if v := metricValue(t, text, "lpvs_snapshot_writes_total"); v != 1 {
		t.Fatalf("lpvs_snapshot_writes_total = %v, want 1", v)
	}
	if v := metricValue(t, text, "lpvs_snapshot_errors_total"); v != 0 {
		t.Fatalf("lpvs_snapshot_errors_total = %v, want 0", v)
	}
	if v := metricValue(t, text, "lpvs_snapshot_size_bytes"); v != float64(st.SnapshotLastBytes) {
		t.Fatalf("lpvs_snapshot_size_bytes = %v, want %d", v, st.SnapshotLastBytes)
	}
	if v := metricValue(t, text, "lpvs_snapshot_last_success_unix_seconds"); v <= 0 {
		t.Fatalf("lpvs_snapshot_last_success_unix_seconds = %v", v)
	}

	wireReport := scriptReport(0, 1)
	if resp := postWire(t, ts.URL, encodeBatch(t, []ReportRequest{wireReport}), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("binary report: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{Node: "n1"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("shard tick: status %d", resp.StatusCode)
	}
	if !s.gate.tryAcquire() {
		t.Fatal("could not fill the gate")
	}
	resp := postJSON(t, ts.URL+"/v1/report", scriptReport(1, 1), nil)
	s.gate.release()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("report through a full gate: status %d, want 429", resp.StatusCode)
	}

	st = checkStatusMatchesMetrics(t, ts.URL)
	if st.ShedRequests != 1 || st.DegradedTicks != 2 || st.ShardTicks != 1 || st.ShardVCsDecided != 1 ||
		st.IngestRecordsJSON != 5 || st.IngestRecordsBinary != 1 || st.IngestPoolGets == 0 {
		t.Fatalf("status counts %+v, want 1 shed, 2 degraded, 1 shard tick of 1 VC, 5 JSON and 1 binary record", st)
	}
}

// TestSnapshotRestoreKeepsPosteriors: learned gamma estimates survive
// the restart exactly.
func TestSnapshotRestoreKeepsPosteriors(t *testing.T) {
	snapDir := t.TempDir()
	s, ts := persistServer(t, func(c *Config) { c.SnapshotDir = snapDir })
	driveSlots(t, ts.URL, 4, 0, 2)
	var before DecisionResponse
	getJSON(t, ts.URL+"/v1/decision?device=dev-00", &before)
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	s.Close()

	s2, ts2 := persistServer(t, func(c *Config) { c.SnapshotDir = snapDir })
	defer s2.Close()
	defer ts2.Close()
	var after DecisionResponse
	getJSON(t, ts2.URL+"/v1/decision?device=dev-00", &after)
	if after.Gamma != before.Gamma || after.Transform != before.Transform {
		t.Fatalf("decision changed across restart: %+v vs %+v", after, before)
	}
}

// TestSaveSnapshotDisabled: without a snapshot dir the save refuses
// and the status carries no snapshot path.
func TestSaveSnapshotDisabled(t *testing.T) {
	s, ts := testServer(t, -1)
	if err := s.SaveSnapshot(); err == nil {
		t.Fatal("SaveSnapshot without a snapshot dir must error")
	}
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.SnapshotPath != "" || st.RestorePath != "" {
		t.Fatalf("durable-state fields set while disabled: %+v", st)
	}
}
