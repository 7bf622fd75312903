package persist_test

// External test package: recovery is exercised against a real audit
// log written by the emulator, which itself imports persist — an
// in-package test would cycle.

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"lpvs/internal/bayes"
	"lpvs/internal/emu"
	"lpvs/internal/obs/audit"
	"lpvs/internal/persist"
	"lpvs/internal/video"
)

func auditedRun(t *testing.T, dir string) []*audit.Record {
	t.Helper()
	cfg := emu.Config{
		Seed:          7,
		GroupSize:     20,
		Slots:         5,
		Lambda:        1,
		ServerStreams: 6,
		Genre:         video.Gaming,
		AuditDir:      dir,
	}
	e, err := emu.New(cfg, nil)
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
	if len(recs) == 0 {
		t.Fatal("audited run produced no records")
	}
	return recs
}

// TestRecoverFromAudit rebuilds a snapshot from a real audit log and
// checks the reconstruction invariants: slot advances past the last
// record, every device carries its last-logged gamma as a concentrated
// posterior, and the result encodes/decodes cleanly.
func TestRecoverFromAudit(t *testing.T) {
	dir := t.TempDir()
	recs := auditedRun(t, dir)
	path := filepath.Join(dir, audit.FileName)
	seen := 0
	snap, err := persist.RecoverFromAudit(path, func(rec *audit.Record) error {
		if rec.Slot != recs[seen].Slot {
			t.Fatalf("record %d visited is slot %d, want %d", seen, rec.Slot, recs[seen].Slot)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(recs) {
		t.Fatalf("visited %d records of %d", seen, len(recs))
	}
	// visit's error stops the fold and is the recovery's.
	stop := errors.New("refused")
	if _, err := persist.RecoverFromAudit(path, func(*audit.Record) error { return stop }); err != stop {
		t.Fatalf("a visit that refuses: error %v, want %v", err, stop)
	}
	last := recs[len(recs)-1]
	if snap.Slot != last.Slot+1 {
		t.Fatalf("recovered slot %d, want %d", snap.Slot, last.Slot+1)
	}
	if len(snap.Devices) == 0 {
		t.Fatal("no devices recovered")
	}
	if len(snap.Pending) != 0 {
		t.Fatal("audit recovery must not invent pending reports")
	}
	lastGamma := make(map[string]float64)
	for _, rec := range recs {
		for i := range rec.Requests {
			lastGamma[rec.Requests[i].Device] = rec.Requests[i].Gamma
		}
	}
	for i, d := range snap.Devices {
		if i > 0 && snap.Devices[i-1].ID >= d.ID {
			t.Fatal("recovered devices not sorted by ID")
		}
		want, ok := lastGamma[d.ID]
		if !ok {
			t.Fatalf("device %s recovered but never logged", d.ID)
		}
		if d.Estimator.Mean != want {
			t.Fatalf("device %s: recovered mean %v, want last-logged gamma %v", d.ID, d.Estimator.Mean, want)
		}
		if d.Estimator.Sigma != bayes.DefaultObsSigma || d.Estimator.Observations != 1 {
			t.Fatalf("device %s: posterior not concentrated (%+v)", d.ID, d.Estimator)
		}
		// The recovered posterior must be a valid estimator.
		if _, err := bayes.FromSnapshot(d.Estimator); err != nil {
			t.Fatalf("device %s: recovered estimator invalid: %v", d.ID, err)
		}
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := persist.DecodeSnapshot(data); err != nil {
		t.Fatalf("recovered snapshot does not round-trip: %v", err)
	}
}

// TestRecoverFromAuditEmpty: no records is an error, not an empty
// snapshot (an empty snapshot would look like a successful recovery),
// and so is no log.
func TestRecoverFromAuditEmpty(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{"empty": "", "blank lines": "\n \n\n"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := persist.RecoverFromAudit(path, nil); err == nil {
			t.Fatalf("%s log recovered", name)
		}
	}
	if _, err := persist.RecoverFromAudit(filepath.Join(dir, "missing"), nil); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing log: error %v, want fs.ErrNotExist", err)
	}
}
