package emu

import (
	"path/filepath"
	"reflect"
	"testing"

	"lpvs/internal/anxiety"
	"lpvs/internal/edge"
	"lpvs/internal/obs/slo"
	"lpvs/internal/persist"
	"lpvs/internal/video"
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

// configHashRules decides, for every Config field, whether the
// checkpoint hash covers it. A hashed field carries a mutation to
// another valid value; an excluded one carries the reason configHash's
// comment gives.
var configHashRules = map[string]struct {
	mutate   func(*Config)
	excluded string
}{
	"Seed":          {mutate: func(c *Config) { c.Seed++ }},
	"GroupSize":     {mutate: func(c *Config) { c.GroupSize++ }},
	"Slots":         {mutate: func(c *Config) { c.Slots++ }},
	"Lambda":        {mutate: func(c *Config) { c.Lambda += 0.5 }},
	"ServerStreams": {mutate: func(c *Config) { c.ServerStreams = 10 }},
	"Genre":         {mutate: func(c *Config) { c.Genre = video.Music }},
	"Streams":       {mutate: func(c *Config) { c.Streams = 2 }},
	"SlotSec":       {mutate: func(c *Config) { c.SlotSec = 600 }},
	"Anxiety": {mutate: func(c *Config) {
		c.Anxiety = &anxiety.Canonical{AnxietyAtWarning: 0.6, ConvexPower: 2.2, ConcavePower: 1.6}
	}},
	"CacheHitRatio":       {mutate: func(c *Config) { c.CacheHitRatio, c.CacheMinPrefix = 0.9, edge.DefaultCache().MinPrefix }},
	"CacheMinPrefix":      {mutate: func(c *Config) { c.CacheHitRatio, c.CacheMinPrefix = edge.DefaultCache().HitRatio, 0.5 }},
	"DisableSwap":         {mutate: func(c *Config) { c.DisableSwap = true }},
	"FixedGamma":          {mutate: func(c *Config) { c.FixedGamma = 0.3 }},
	"UseFrames":           {mutate: func(c *Config) { c.UseFrames = true }},
	"AutoDimBelow":        {mutate: func(c *Config) { c.AutoDimBelow = 0.2 }},
	"PersonalizedAnxiety": {mutate: func(c *Config) { c.PersonalizedAnxiety = true }},
	"ExactThreshold":      {mutate: func(c *Config) { c.ExactThreshold = 50 }},
	"GiveUpSampler":       {excluded: "the fleet travels inside the checkpoint; a func is unhashable"},
	"Workers":             {excluded: "decisions are bit-identical at any pool width"},
	"SchedDeadline":       {excluded: "degraded slots depend on the wall clock on any machine"},
	"StopAfter":           {excluded: "a checkpoint and its resume differ in exactly this"},
	"Progress":            {excluded: "observation only"},
	"AuditDir":            {excluded: "observation only"},
	"SLOSlotLatency":      {excluded: "observation only"},
	"FlightDir":           {excluded: "observation only"},
}

// TestConfigHashCoversSettings pins the emulator's settings: every
// Config field is either hashed into the checkpoint or excluded for a
// stated reason, and changing any hashed field changes the hash — so a
// new setting must be decided on, and a resume under a different
// workload is refused.
func TestConfigHashCoversSettings(t *testing.T) {
	hashOf := func(cfg Config) string {
		t.Helper()
		e, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.configHash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := hashOf(baseConfig())
	ty := reflect.TypeOf(Config{})
	seen := make(map[string]bool, ty.NumField())
	for i := 0; i < ty.NumField(); i++ {
		name := ty.Field(i).Name
		seen[name] = true
		rule, ok := configHashRules[name]
		switch {
		case !ok:
			t.Errorf("Config.%s is neither hashed nor excluded: decide whether a checkpoint must match it", name)
		case rule.mutate == nil && rule.excluded == "":
			t.Errorf("Config.%s: excluded without a reason", name)
		case rule.mutate != nil:
			cfg := baseConfig()
			rule.mutate(&cfg)
			if hashOf(cfg) == base {
				t.Errorf("changing Config.%s leaves the checkpoint hash unchanged", name)
			}
		}
	}
	for name := range configHashRules {
		if !seen[name] {
			t.Errorf("rule for Config.%s, which does not exist", name)
		}
	}
}
