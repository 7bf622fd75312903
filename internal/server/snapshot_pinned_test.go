package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"lpvs/internal/persist"
)

// snapshotGolden holds the snapshot file commit d1bb175 — the last build
// that kept pending reports in a map keyed by device ID — wrote for the
// scenario below: three decided slots, then a fourth slot's reports
// staged out of DeviceID order with three devices reporting twice. That
// build also wrote the "edge" stream's Phase-1 warm seed into the
// file's stream section, which snapshots now leave empty.
// RECORD_PARENT_GOLDEN=1 rewrites it from the build under test — only
// meaningful from a checkout of the commit being pinned, with this file
// copied in (it uses nothing that commit's test files do not have).
const snapshotGolden = "snapshot_parent.golden"

// TestSnapshotBytesParentPinned: how the daemon holds its pending
// reports is not visible in what it persists. The snapshot's bytes
// equal the parent's for the same scenario once the parent's stream
// section is emptied (the golden decoded and re-encoded) — persist
// sorts its copy, so arrival order never reaches the file — and the
// tick a daemon restored from it runs equals the tick of the daemon
// that never stopped.
func TestSnapshotBytesParentPinned(t *testing.T) {
	const (
		nDev   = 12
		warmup = 3
	)
	stage := func(url string) {
		for k := 0; k < nDev; k++ {
			i := (k*5 + 7) % nDev // a permutation: 5 and 12 are coprime
			if k%4 == 1 {
				early := scriptReport(i, warmup)
				early.EnergyFrac = 0.99 // superseded by the report below
				postJSON(t, url+"/v1/report", early, nil)
			}
			if resp := postJSON(t, url+"/v1/report", scriptReport(i, warmup), nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("report %d: status %d", i, resp.StatusCode)
			}
		}
	}
	auditA, auditB, snapDir := t.TempDir(), t.TempDir(), t.TempDir()
	sA, tsA := persistServer(t, func(c *Config) { c.AuditDir = auditA; c.SnapshotDir = snapDir })
	driveSlots(t, tsA.URL, nDev, 0, warmup)
	stage(tsA.URL)
	if err := sA.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(sA.SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", snapshotGolden)
	if os.Getenv("RECORD_PARENT_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	parent, err := persist.LoadSnapshot(golden)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parent.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot is %d bytes and differs from the parent's %d", len(got), len(want))
	}

	// The daemon that never stopped ticks; so does one restored from the
	// snapshot, over its own copy of the audit log's first three slots.
	postJSON(t, tsA.URL+"/v1/tick", struct{}{}, nil)
	tsA.Close()
	sA.Close()
	sB, tsB := persistServer(t, func(c *Config) { c.AuditDir = auditB; c.SnapshotDir = snapDir })
	defer sB.Close()
	defer tsB.Close()
	var st StatusResponse
	getJSON(t, tsB.URL+"/v1/status", &st)
	if st.RestorePath != RestoreSnapshot || st.PendingReports != nDev {
		t.Fatalf("restore path %q with %d pending reports, want %q with %d", st.RestorePath, st.PendingReports, RestoreSnapshot, nDev)
	}
	postJSON(t, tsB.URL+"/v1/tick", struct{}{}, nil)
	recsA, recsB := readAudit(t, auditA), readAudit(t, auditB)
	if len(recsA) != warmup+1 || len(recsB) != 1 {
		t.Fatalf("audit lengths %d / %d, want %d / 1", len(recsA), len(recsB), warmup+1)
	}
	if string(recsA[warmup].DecisionCanonical) != string(recsB[0].DecisionCanonical) {
		t.Fatal("the restored daemon's tick diverged from the uninterrupted daemon's")
	}
}

// TestParentSnapshotRestores: the parent's file itself, warm seed
// included, restores a daemon by the snapshot path with every device
// and every pending report it holds.
func TestParentSnapshotRestores(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", snapshotGolden))
	if err != nil {
		t.Fatal(err)
	}
	parent, err := persist.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	snapDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(snapDir, persist.SnapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := persistServer(t, func(c *Config) { c.SnapshotDir = snapDir })
	defer s.Close()
	defer ts.Close()
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.RestorePath != RestoreSnapshot || st.Slot != parent.Slot ||
		st.Devices != len(parent.Devices) || st.PendingReports != len(parent.Pending) {
		t.Fatalf("restored %q (%s): slot %d, %d devices, %d pending; the file holds slot %d, %d devices, %d pending",
			st.RestorePath, st.RestoreDetail, st.Slot, st.Devices, st.PendingReports,
			parent.Slot, len(parent.Devices), len(parent.Pending))
	}
	if len(parent.Devices) == 0 || len(parent.Pending) == 0 {
		t.Fatal("the parent snapshot holds no devices or no pending reports")
	}
}
