package persist

import (
	"errors"
	"fmt"
	"sort"

	"lpvs/internal/bayes"
	"lpvs/internal/display"
	"lpvs/internal/obs/audit"
)

// RecoverFromAudit rebuilds a daemon snapshot from a decision audit
// log — the fallback recovery path when the snapshot file is missing
// or corrupt (DESIGN.md §14). The log records every decision but not
// the Bayesian updates between them, so the recovery is approximate by
// construction: each device's estimator is rebuilt as a posterior
// concentrated (sigma = DefaultObsSigma) at the last gamma the
// scheduler planned with, which preserves the learned point estimate
// while discarding the exact uncertainty. Pending reports are not in
// the log and come back empty; they regenerate within one slot. Callers decide how much of the log to
// verify first (audit.Record.Replay) — this function only transforms
// records it is handed.
func RecoverFromAudit(recs []*audit.Record) (*Snapshot, error) {
	if len(recs) == 0 {
		return nil, errors.New("persist: audit log holds no records")
	}
	type devInfo struct {
		slot      int
		gamma     float64
		spec      display.Spec
		transform bool
	}
	devs := make(map[string]*devInfo)
	maxSlot := 0
	for _, rec := range recs {
		if rec == nil {
			return nil, errors.New("persist: nil audit record")
		}
		if rec.Slot > maxSlot {
			maxSlot = rec.Slot
		}
		// Either schema rebuilds through the record, which resolves each
		// request's chunk window (table or inline) before handing it back.
		reqs, err := rec.SchedulerRequests()
		if err != nil {
			return nil, fmt.Errorf("persist: audit slot %d: %w", rec.Slot, err)
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
