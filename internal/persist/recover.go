package persist

import (
	"fmt"
	"sort"

	"lpvs/internal/bayes"
	"lpvs/internal/display"
	"lpvs/internal/obs/audit"
)

// RecoverFromAudit rebuilds a daemon snapshot from the decision audit
// log at path — the fallback recovery path when the snapshot file is
// missing or corrupt (DESIGN.md §14). The log records every decision
// but not the Bayesian updates between them, so the recovery is
// approximate by construction: each device's estimator is rebuilt as a
// posterior concentrated (sigma = DefaultObsSigma) at the last gamma
// the scheduler planned with, which preserves the learned point
// estimate while discarding the exact uncertainty. Pending reports are
// not in the log and come back empty; they regenerate within one slot.
//
// The log is folded one record at a time (audit.EachFile), so recovery
// holds one record and one entry per device, never the log, which at
// 10,000 devices is over a gigabyte of JSON a day. visit, when not nil,
// sees each record first, in log order: callers verify there what they
// want verified (audit.Record.Replay) and keep what they want kept, and
// its error stops the recovery. A log with no record is an error, and a
// file that cannot be opened fails with os.Open's error as it is.
func RecoverFromAudit(path string, visit func(*audit.Record) error) (*Snapshot, error) {
	type devInfo struct {
		slot      int
		gamma     float64
		spec      display.Spec
		transform bool
	}
	devs := make(map[string]*devInfo)
	maxSlot, records := 0, 0
	err := audit.EachFile(path, func(rec *audit.Record) error {
		if visit != nil {
			if err := visit(rec); err != nil {
				return err
			}
		}
		records++
		if rec.Slot > maxSlot {
			maxSlot = rec.Slot
		}
		// Either schema rebuilds through the record, which resolves each
		// request's chunk window (table or inline) before handing it back.
		reqs, err := rec.SchedulerRequests()
		if err != nil {
			return fmt.Errorf("persist: audit slot %d: %w", rec.Slot, err)
		}
		for i := range reqs {
			req := &reqs[i]
			di := devs[req.DeviceID]
			if di == nil {
				di = &devInfo{}
				devs[req.DeviceID] = di
			}
			di.slot = rec.Slot
			di.gamma = req.Gamma
			di.spec = req.Display
		}
		for _, v := range rec.Verdicts {
			if di := devs[v.Device]; di != nil {
				di.transform = v.Selected
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if records == 0 {
		return nil, fmt.Errorf("persist: audit log %s holds no records", path)
	}
	snap := &Snapshot{Slot: maxSlot + 1}
	ids := make([]string, 0, len(devs))
	for id := range devs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		di := devs[id]
		snap.Devices = append(snap.Devices, DeviceState{
			ID: id,
			// The log does not carry channel membership; the restoring
			// server maps an empty channel to its default stream.
			Channel:   "",
			Display:   di.spec,
			Transform: di.transform,
			Slot:      di.slot,
			Estimator: bayes.Snapshot{
				Mean:         di.gamma,
				Sigma:        bayes.DefaultObsSigma,
				ObsSigma:     bayes.DefaultObsSigma,
				Lo:           bayes.DefaultGammaL,
				Hi:           bayes.DefaultGammaU,
				Observations: 1,
			},
		})
	}
	return snap, nil
}
