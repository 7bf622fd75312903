package emu

import (
	"path/filepath"
	"reflect"
	"testing"

	"lpvs/internal/obs/slo"
	"lpvs/internal/persist"
)

// normalizeResult zeroes the fields a kill-and-resume legitimately
// changes: wall-clock timings (machine noise either way) and the SLO
// burn-rate windows, which restart with the resuming process
// (observation-only state; documented in DESIGN.md §14). Everything
// else must be bit-identical.
func normalizeResult(r *RunResult) *RunResult {
	c := *r
	c.SchedSeconds = 0
	c.SchedCPUSeconds = 0
	c.SLO = nil
	c.SLOAlarms = 0
	c.Timeline = append([]SlotStat(nil), r.Timeline...)
	for i := range c.Timeline {
		st := &c.Timeline[i]
		st.SchedSec = 0
		st.SchedCPUSec = 0
		st.CompactSec = 0
		st.Phase1Sec = 0
		st.Phase2Sec = 0
		st.PlaySec = 0
	}
	return &c
}

// runInterrupted runs cfg to stopAfter slots, checkpoints, then
// resumes in a brand-new emulator and finishes the run — the in-process
// equivalent of kill -9 between two lpvs-emu invocations, including
// the file round trip.
func runInterrupted(t *testing.T, cfg Config, stopAfter int) *RunResult {
	t.Helper()
	partialCfg := cfg
	partialCfg.StopAfter = stopAfter
	e1, err := New(partialCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if partial.SlotsRun != stopAfter {
		t.Fatalf("partial run did %d slots, want %d", partial.SlotsRun, stopAfter)
	}
	ck, err := e1.Checkpoint(partial)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.lpvs")
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := persist.LoadEmuCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	full, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// TestCheckpointResumeMatchesUninterrupted is the emulator's
// kill-and-restart differential: a run interrupted at any slot and
// resumed through the file round trip must finish with results
// identical (modulo timing/SLO normalization) to the uninterrupted
// run.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	cfg := baseConfig()
	cfg.ServerStreams = 12 // finite capacity exercises Phase-2 swaps
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, stopAfter := range []int{1, 5, cfg.Slots - 1} {
		got := runInterrupted(t, cfg, stopAfter)
		if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
			t.Fatalf("resume after slot %d diverged from the uninterrupted run", stopAfter)
		}
	}
}

// TestRestoreRejectsConfigMismatch: a checkpoint from a different
// workload must be refused, not silently diverge.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	cfg := baseConfig()
	cfg.StopAfter = 2
	e1, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := e1.Checkpoint(partial)
	if err != nil {
		t.Fatal(err)
	}
	other := baseConfig()
	other.Lambda = 2
	e2, err := New(other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(ck); err == nil {
		t.Fatal("restore accepted a checkpoint from a different config")
	}
	// The rejected emulator stays cold-startable.
	if _, err := e2.Run(); err != nil {
		t.Fatalf("emulator unusable after rejected restore: %v", err)
	}
}

// TestRestoreRejectsTamperedCheckpoint: structural damage to the
// device table fails closed.
func TestRestoreRejectsTamperedCheckpoint(t *testing.T) {
	cfg := baseConfig()
	cfg.StopAfter = 2
	e1, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := e1.Checkpoint(partial)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*persist.EmuCheckpoint){
		"slot-out-of-range": func(c *persist.EmuCheckpoint) { c.NextSlot = cfg.Slots + 1 },
		"device-dropped":    func(c *persist.EmuCheckpoint) { c.Devices = c.Devices[1:] },
		"device-renamed":    func(c *persist.EmuCheckpoint) { c.Devices[0].ID = "impostor" },
		"battery-overfull":  func(c *persist.EmuCheckpoint) { c.Devices[0].LevelJ = c.Devices[0].CapacityJ + 1 },
		"bad-estimator":     func(c *persist.EmuCheckpoint) { c.Devices[0].Estimator.Sigma = -1 },
		"result-slot-skew":  func(c *persist.EmuCheckpoint) { c.NextSlot-- },
		"garbage-result":    func(c *persist.EmuCheckpoint) { c.Result = []byte("not json") },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			data := ck.Encode()
			bad, err := persist.DecodeEmuCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			mutate(bad)
			e2, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := e2.Restore(bad); err == nil {
				t.Fatal("tampered checkpoint accepted")
			}
		})
	}
}

// TestCheckpointRefusesLRUModel: the LRU prefetch cache's contents are
// not captured, so checkpointing under that model must refuse.
func TestCheckpointRefusesLRUModel(t *testing.T) {
	cfg := baseConfig()
	cfg.LRUCacheMB = 64
	cfg.PrefetchMBPerSlot = 16
	cfg.StopAfter = 2
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(partial); err == nil {
		t.Fatal("LRU-model checkpoint must refuse")
	}
}

// TestStopAfterValidation: StopAfter outside [0, Slots] is a config
// error, and a finished emulator refuses to run again.
func TestStopAfterValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.StopAfter = cfg.Slots + 1
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("StopAfter beyond Slots accepted")
	}
	cfg.StopAfter = -1
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("negative StopAfter accepted")
	}
	cfg = baseConfig()
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run on a finished emulator must error")
	}
}

// TestPartialRunSLOWindows: a partial run still reports SLO states
// (they restart on resume but must exist in every returned result).
func TestPartialRunSLOWindows(t *testing.T) {
	cfg := baseConfig()
	cfg.StopAfter = 3
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SLO) == 0 {
		t.Fatal("partial run returned no SLO states")
	}
	var _ []slo.State = res.SLO
}
