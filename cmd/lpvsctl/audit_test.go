package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpvs/internal/obs/audit"
)

// auditTestdata is the audit package's fixture directory: the schema-1
// session log (v1/) and the node-capped record live beside the decoder
// they pin.
var auditTestdata = filepath.Join("..", "..", "internal", "obs", "audit", "testdata")

func TestReplayCommand(t *testing.T) {
	dir := writeSession(t)
	// Both the directory and the file path spell the same log.
	if err := auditReplay([]string{dir}, io.Discard, io.Discard); err != nil {
		t.Fatalf("replay dir: %v", err)
	}
	if err := auditReplay([]string{"-v", filepath.Join(dir, audit.FileName)}, io.Discard, io.Discard); err != nil {
		t.Fatalf("replay file: %v", err)
	}
}

// TestOldLogStaysReplayable runs the checked-in schema-1 log — written
// by the last binary that inlined a chunk window per request — through
// replay and recover, alone and as the head of a mixed file with fresh
// schema-2 records appended, the log a daemon upgraded mid-run leaves.
func TestOldLogStaysReplayable(t *testing.T) {
	old := filepath.Join(auditTestdata, "v1")
	recs, err := audit.ReadFile(filepath.Join(old, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Schema != 1 {
			t.Fatalf("checked-in record %d is schema %d, want the schema-1 reader exercised", i, rec.Schema)
		}
	}
	oldLog, err := os.ReadFile(filepath.Join(old, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	session := writeSession(t)
	newLog, err := os.ReadFile(filepath.Join(session, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	mixed := t.TempDir()
	if err := os.WriteFile(filepath.Join(mixed, audit.FileName), append(oldLog, newLog...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{old, mixed} {
		if err := auditReplay([]string{"-v", dir}, io.Discard, io.Discard); err != nil {
			t.Fatalf("replay %s: %v", dir, err)
		}
		if err := auditRecover([]string{"-out", filepath.Join(t.TempDir(), "recovered.lpvs"), dir}, io.Discard, io.Discard); err != nil {
			t.Fatalf("recover %s: %v", dir, err)
		}
	}
}

func TestReplayCommandFlagsDivergence(t *testing.T) {
	dir := writeSession(t)
	path := filepath.Join(dir, audit.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the log: claim a different selection count than the
	// scheduler produced.
	forged := strings.Replace(string(data), `selected=`, `selected=9`, 1)
	if forged == string(data) {
		t.Fatal("forgery did not change the log")
	}
	if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	err = auditReplay([]string{path}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("forged log replayed cleanly: %v", err)
	}
}

func TestReplayCommandErrors(t *testing.T) {
	if err := auditReplay([]string{}, io.Discard, io.Discard); err == nil {
		t.Fatal("no-arg replay accepted")
	}
	if err := auditReplay([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, io.Discard, io.Discard); err == nil {
		t.Fatal("missing log accepted")
	}
	empty := filepath.Join(t.TempDir(), audit.FileName)
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := auditExplain([]string{"-device", "dev-00", empty}, io.Discard, io.Discard); err == nil {
		t.Fatal("empty log explained a device")
	}
	if err := auditReplay([]string{empty}, io.Discard, io.Discard); err == nil {
		t.Fatal("empty log replayed")
	}
}

func TestExplainCommand(t *testing.T) {
	dir := writeSession(t)
	recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	device := recs[0].Verdicts[0].Device
	explain := func(args ...string) error { return auditExplain(args, io.Discard, io.Discard) }
	if err := explain("-device", device, dir); err != nil {
		t.Fatalf("explain: %v", err)
	}
	if err := explain("-device", device, "-slot", "1", dir); err != nil {
		t.Fatalf("explain -slot: %v", err)
	}
	if err := explain("-device", device, "-slot", "99", dir); err == nil {
		t.Fatal("absent slot explained")
	}
	if err := explain("-device", "no-such-device", dir); err == nil {
		t.Fatal("absent device explained")
	}
	if err := explain(dir); err == nil {
		t.Fatal("missing -device accepted")
	}
}

// TestReplayCommandExplainsNodeCappedRecord runs the record a build
// without the cardinality bound logged with optimal=false (its search
// stopped at max_nodes; see internal/obs/audit/nodecapped_test.go).
// This build proves that selection, so the bytes differ in the flag:
// replay still reports the divergence and recover still refuses the
// log, but the printed diff says what happened.
func TestReplayCommandExplainsNodeCappedRecord(t *testing.T) {
	fixture := filepath.Join(auditTestdata, "record.nodecapped.jsonl")
	var out bytes.Buffer
	err := auditReplay([]string{"-v", fixture}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "1 of 1 records diverged") {
		t.Fatalf("node-capped record: replay returned %v, want a divergence", err)
	}
	if !strings.Contains(out.String(), "DIVERGED") ||
		strings.Count(out.String(), "logged search was node-capped; this build proves the selection\n") != 1 {
		t.Fatalf("replay output does not explain the divergence:\n%s", out.String())
	}
	err = auditRecover([]string{"-out", filepath.Join(t.TempDir(), "recovered.lpvs"), fixture}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "node-capped") {
		t.Fatalf("recover from a diverging log returned %v, want a refusal carrying the explanation", err)
	}
}
