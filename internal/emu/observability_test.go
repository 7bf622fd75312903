package emu

import (
	"os"
	"path/filepath"
	"testing"

	"lpvs/internal/obs/audit"
	"lpvs/internal/scheduler"
)

// TestEmulatorAuditLogReplays runs a capacity-bound session with
// auditing on and replays every logged decision byte for byte — the
// same loop make audit-replay runs in CI.
func TestEmulatorAuditLogReplays(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig()
	cfg.GroupSize = 12
	cfg.Slots = 5
	cfg.ServerStreams = 4 // scarce: forces capacity rejections into the log
	cfg.AuditDir = dir
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != cfg.Slots {
		t.Fatalf("got %d audit records, want %d", len(recs), cfg.Slots)
	}
	for i, rec := range recs {
		if rec.Slot != i {
			t.Fatalf("record %d logged as slot %d", i, rec.Slot)
		}
		if rec.Seed != cfg.Seed {
			t.Fatalf("record %d seed = %d, want %d", i, rec.Seed, cfg.Seed)
		}
		if len(rec.Verdicts) != cfg.GroupSize {
			t.Fatalf("record %d: %d verdicts for %d devices", i, len(rec.Verdicts), cfg.GroupSize)
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

// TestEmulatorPooledAuditLogReplays covers a wide pool (Workers=4):
// compaction fans out, and the decisions must still replay serially.
func TestEmulatorPooledAuditLogReplays(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig()
	cfg.GroupSize = 10
	cfg.Slots = 3
	cfg.Workers = 4
	cfg.AuditDir = dir
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != cfg.Slots {
		t.Fatalf("got %d records, want %d", len(recs), cfg.Slots)
	}
	diverged, err := audit.ReplayAll(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diverged != 0 {
		t.Fatalf("%d pooled records diverged on replay", diverged)
	}
}

// TestIncrementalAuditLogMatchesCold runs the identical session through
// a one-worker and a four-worker engine: the audit logs must carry
// byte-identical decisions slot for slot (Workers is a width, not a
// path), and both logs must replay. Record.Replay is a cold Schedule on
// a fresh Scheduler, so a match is the emulator-level end of the
// contract that a pool solving each slot in the scratch of the one
// before decides what a fresh solve decides.
func TestIncrementalAuditLogMatchesCold(t *testing.T) {
	run := func(workers int) []*audit.Record {
		t.Helper()
		dir := t.TempDir()
		cfg := baseConfig()
		cfg.GroupSize = 12
		cfg.Slots = 6
		cfg.ServerStreams = 4
		cfg.AuditDir = dir
		cfg.Workers = workers
		e, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != cfg.Slots {
			t.Fatalf("%d workers logged %d records, want %d", workers, len(recs), cfg.Slots)
		}
		diverged, err := audit.ReplayAll(recs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if diverged != 0 {
			t.Fatalf("%d workers: %d records diverged from their cold replay", workers, diverged)
		}
		return recs
	}
	narrow := run(1)
	wide := run(4)
	for i := range narrow {
		if string(narrow[i].DecisionCanonical) != string(wide[i].DecisionCanonical) {
			t.Fatalf("slot %d decisions diverged:\none worker: %s\nfour: %s",
				i, narrow[i].DecisionCanonical, wide[i].DecisionCanonical)
		}
	}
}

// TestBaselinePolicyWritesNoAudit: audit records promise deterministic
// replay through the LPVS scheduler, so baseline policies must not
// produce any.
func TestBaselinePolicyWritesNoAudit(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig()
	cfg.GroupSize = 6
	cfg.Slots = 2
	cfg.AuditDir = dir
	e, err := New(cfg, scheduler.NoTransform{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("baseline wrote %d audit bytes:\n%s", len(data), data)
	}
}
