package emu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"lpvs/internal/bayes"
	"lpvs/internal/device"
	"lpvs/internal/obs/audit"
	"lpvs/internal/persist"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// Checkpoint freezes the emulator after a partial Run (Config.StopAfter)
// into a persistable record (durable state, DESIGN.md §14). The
// checkpoint carries everything the loop threads between slots — the
// fleet's full static and dynamic state, the Bayesian posteriors, the
// edge-cache sampling stream's exact position, and the accumulated
// partial result — so a resuming process finishes with results
// identical to an uninterrupted run (modulo wall-clock timings and the
// restarted SLO windows).
//
// res must be the RunResult the partial Run returned.
func (e *Emulator) Checkpoint(res *RunResult) (*persist.EmuCheckpoint, error) {
	if res == nil || res.SlotsRun != e.nextSlot {
		got := -1
		if res != nil {
			got = res.SlotsRun
		}
		return nil, fmt.Errorf("emu: checkpoint result ran %d slots, emulator is at slot %d", got, e.nextSlot)
	}
	hash, err := e.configHash()
	if err != nil {
		return nil, err
	}
	ck := &persist.EmuCheckpoint{ConfigHash: hash, NextSlot: e.nextSlot}
	for i, d := range e.devices {
		ck.Devices = append(ck.Devices, persist.EmuDevice{
			ID:         d.ID,
			Display:    d.Display,
			CapacityJ:  d.Battery.CapacityJ,
			LevelJ:     d.Battery.LevelJ,
			BasePowerW: d.BasePowerW,
			GiveUpFrac: d.GiveUpFrac,
			State:      int(d.State),
			WatchedSec: d.WatchedSec,
			Estimator:  e.estimators[i].Snapshot(),
		})
	}
	seed, draws := e.cacheRNG.State()
	ck.CacheRNG = persist.RNGState{Seed: seed, Draws: draws}
	blob, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("emu: checkpoint result: %w", err)
	}
	ck.Result = blob
	return ck, nil
}

// Restore rewinds a freshly built emulator to a checkpoint taken by an
// identically configured run (enforced through the config hash), so
// the next Run continues from the checkpointed slot. It must be called
// before Run. Validation is all-or-nothing: nothing is mutated until
// every entry has been checked, so a rejected checkpoint leaves the
// emulator cold-startable.
func (e *Emulator) Restore(ck *persist.EmuCheckpoint) error {
	if e.nextSlot != 0 || e.resume != nil {
		return fmt.Errorf("emu: Restore on an already-run emulator")
	}
	hash, err := e.configHash()
	if err != nil {
		return err
	}
	if ck.ConfigHash != hash {
		return fmt.Errorf("emu: checkpoint config hash %s does not match this run's %s; cold-start instead",
			ck.ConfigHash, hash)
	}
	if ck.NextSlot < 0 || ck.NextSlot > e.cfg.Slots {
		return fmt.Errorf("emu: checkpoint slot %d outside [0, %d]", ck.NextSlot, e.cfg.Slots)
	}
	if len(ck.Devices) != len(e.devices) {
		return fmt.Errorf("emu: checkpoint has %d devices, fleet has %d", len(ck.Devices), len(e.devices))
	}
	ests := make([]*bayes.GammaEstimator, len(ck.Devices))
	for i := range ck.Devices {
		cd := &ck.Devices[i]
		if cd.ID != e.devices[i].ID {
			return fmt.Errorf("emu: checkpoint device %d is %q, fleet has %q", i, cd.ID, e.devices[i].ID)
		}
		if err := cd.Display.Validate(); err != nil {
			return fmt.Errorf("emu: checkpoint device %q: %w", cd.ID, err)
		}
		if cd.State < int(device.Watching) || cd.State > int(device.Finished) {
			return fmt.Errorf("emu: checkpoint device %q state %d", cd.ID, cd.State)
		}
		if cd.CapacityJ <= 0 || cd.LevelJ < 0 || cd.LevelJ > cd.CapacityJ || cd.WatchedSec < 0 {
			return fmt.Errorf("emu: checkpoint device %q battery/watch state", cd.ID)
		}
		ests[i], err = bayes.FromSnapshot(cd.Estimator)
		if err != nil {
			return fmt.Errorf("emu: checkpoint device %q: %w", cd.ID, err)
		}
	}
	var res RunResult
	if err := json.Unmarshal(ck.Result, &res); err != nil {
		return fmt.Errorf("emu: checkpoint result: %w", err)
	}
	if res.SlotsRun != ck.NextSlot {
		return fmt.Errorf("emu: checkpoint result ran %d slots, checkpoint is at slot %d", res.SlotsRun, ck.NextSlot)
	}
	n := len(e.devices)
	if len(res.TPVMin) != n || len(res.LowBatteryStart) != n || len(res.EverServed) != n ||
		len(res.FinalState) != n || len(res.SelectedPerSlot) != ck.NextSlot || len(res.Timeline) != ck.NextSlot {
		return fmt.Errorf("emu: checkpoint result arrays do not match %d devices / %d slots", n, ck.NextSlot)
	}
	for i := range ck.Devices {
		cd := &ck.Devices[i]
		d := e.devices[i]
		d.Display = cd.Display
		d.Battery = device.Battery{CapacityJ: cd.CapacityJ, LevelJ: cd.LevelJ}
		d.BasePowerW = cd.BasePowerW
		d.GiveUpFrac = cd.GiveUpFrac
		d.State = device.State(cd.State)
		d.WatchedSec = cd.WatchedSec
		e.estimators[i] = ests[i]
	}
	e.cacheRNG = stats.RestoreRNG(ck.CacheRNG.Seed, ck.CacheRNG.Draws)
	e.nextSlot = ck.NextSlot
	e.resume = &res
	return nil
}

// configHash fingerprints the workload-defining configuration: every
// field that shapes the generated streams, the per-slot decision
// problems, or the playback physics. Excluded on purpose: GiveUpSampler
// (the fleet travels inside the checkpoint, making resume independent
// of the unhashable sampler func), Workers (proven
// decision-neutral), SchedDeadline (degraded slots are
// wall-clock-dependent on any machine), StopAfter (the whole point of
// a checkpoint is that it differs), and the observation-only knobs
// (Progress, AuditDir, SLOSlotLatency, FlightDir).
func (e *Emulator) configHash() (string, error) {
	c := e.cfg
	anx := audit.NewAnxietyRecord(c.Anxiety)
	if anx.Kind == "custom" {
		return "", fmt.Errorf("emu: anxiety model %T is not checkpointable", c.Anxiety)
	}
	h := struct {
		Seed                int64
		GroupSize           int
		Slots               int
		Lambda              float64
		ServerStreams       int
		Genre               video.Genre
		Streams             int
		SlotSec             float64
		Anxiety             audit.AnxietyRecord
		CacheHitRatio       float64
		CacheMinPrefix      float64
		DisableSwap         bool
		FixedGamma          float64
		UseFrames           bool
		AutoDimBelow        float64
		PersonalizedAnxiety bool
		ExactThreshold      int
	}{
		Seed:                c.Seed,
		GroupSize:           c.GroupSize,
		Slots:               c.Slots,
		Lambda:              c.Lambda,
		ServerStreams:       c.ServerStreams,
		Genre:               c.Genre,
		Streams:             c.Streams,
		SlotSec:             c.SlotSec,
		Anxiety:             anx,
		CacheHitRatio:       c.CacheHitRatio,
		CacheMinPrefix:      c.CacheMinPrefix,
		DisableSwap:         c.DisableSwap,
		FixedGamma:          c.FixedGamma,
		UseFrames:           c.UseFrames,
		AutoDimBelow:        c.AutoDimBelow,
		PersonalizedAnxiety: c.PersonalizedAnxiety,
		ExactThreshold:      c.ExactThreshold,
	}
	b, err := json.Marshal(h)
	if err != nil {
		return "", fmt.Errorf("emu: config hash: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
