package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpvs/internal/emu"
	"lpvs/internal/obs/audit"
	"lpvs/internal/video"
)

// writeSessionLog runs a short audited emulator session and returns
// its audit directory.
func writeSessionLog(tb testing.TB) string {
	tb.Helper()
	dir := tb.TempDir()
	e, err := emu.New(emu.Config{
		Seed:          21,
		GroupSize:     8,
		Slots:         3,
		Lambda:        1,
		ServerStreams: 3,
		Genre:         video.Gaming,
		AuditDir:      dir,
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

func TestReplayCommand(t *testing.T) {
	dir := writeSessionLog(t)
	// Both the directory and the file path spell the same log.
	if err := runReplay([]string{dir}); err != nil {
		t.Fatalf("replay dir: %v", err)
	}
	if err := runReplay([]string{"-v", filepath.Join(dir, audit.FileName)}); err != nil {
		t.Fatalf("replay file: %v", err)
	}
}

// TestOldLogStaysReplayable runs the checked-in schema-1 log — written
// by the last binary that inlined a chunk window per request — through
// replay and recover, alone and as the head of a mixed file with fresh
// schema-2 records appended, the log a daemon upgraded mid-run leaves.
func TestOldLogStaysReplayable(t *testing.T) {
	old := filepath.Join("testdata", "v1")
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
	newLog, err := os.ReadFile(filepath.Join(writeSessionLog(t), audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	mixed := t.TempDir()
	if err := os.WriteFile(filepath.Join(mixed, audit.FileName), append(oldLog, newLog...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{old, mixed} {
		if err := runReplay([]string{"-v", dir}); err != nil {
			t.Fatalf("replay %s: %v", dir, err)
		}
		if err := runRecover([]string{"-out", filepath.Join(t.TempDir(), "recovered.lpvs"), dir}); err != nil {
			t.Fatalf("recover %s: %v", dir, err)
		}
	}
}

func TestReplayCommandFlagsDivergence(t *testing.T) {
	dir := writeSessionLog(t)
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
	err = runReplay([]string{path})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("forged log replayed cleanly: %v", err)
	}
}

func TestReplayCommandErrors(t *testing.T) {
	if err := runReplay([]string{}); err == nil {
		t.Fatal("no-arg replay accepted")
	}
	if err := runReplay([]string{filepath.Join(t.TempDir(), "missing.jsonl")}); err == nil {
		t.Fatal("missing log accepted")
	}
	empty := filepath.Join(t.TempDir(), audit.FileName)
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runExplain([]string{"-device", "dev-00", empty}); err == nil {
		t.Fatal("empty log explained a device")
	}
	if err := runReplay([]string{empty}); err == nil {
		t.Fatal("empty log replayed")
	}
}

func TestExplainCommand(t *testing.T) {
	dir := writeSessionLog(t)
	recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	device := recs[0].Verdicts[0].Device
	if err := runExplain([]string{"-device", device, dir}); err != nil {
		t.Fatalf("explain: %v", err)
	}
	if err := runExplain([]string{"-device", device, "-slot", "1", dir}); err != nil {
		t.Fatalf("explain -slot: %v", err)
	}
	if err := runExplain([]string{"-device", device, "-slot", "99", dir}); err == nil {
		t.Fatal("absent slot explained")
	}
	if err := runExplain([]string{"-device", "no-such-device", dir}); err == nil {
		t.Fatal("absent device explained")
	}
	if err := runExplain([]string{dir}); err == nil {
		t.Fatal("missing -device accepted")
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}

// TestReplayCommandExplainsNodeCappedRecord runs the record a build
// without the cardinality bound logged with optimal=false (its search
// stopped at max_nodes; see internal/obs/audit/nodecapped_test.go).
// This build proves that selection, so the bytes differ in the flag:
// replay still reports the divergence and recover still refuses the
// log, but the printed diff says what happened.
func TestReplayCommandExplainsNodeCappedRecord(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "obs", "audit", "testdata", "record.nodecapped.jsonl")
	out, err := captureStdout(t, func() error { return runReplay([]string{"-v", fixture}) })
	if err == nil || !strings.Contains(err.Error(), "1 of 1 records diverged") {
		t.Fatalf("node-capped record: replay returned %v, want a divergence", err)
	}
	if !strings.Contains(out, "DIVERGED") ||
		strings.Count(out, "logged search was node-capped; this build proves the selection\n") != 1 {
		t.Fatalf("replay output does not explain the divergence:\n%s", out)
	}
	err = runRecover([]string{"-out", filepath.Join(t.TempDir(), "recovered.lpvs"), fixture})
	if err == nil || !strings.Contains(err.Error(), "node-capped") {
		t.Fatalf("recover from a diverging log returned %v, want a refusal carrying the explanation", err)
	}
}
