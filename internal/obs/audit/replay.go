package audit

import (
	"fmt"

	"lpvs/internal/scheduler"
)

// ReplayResult reports one record's deterministic replay.
type ReplayResult struct {
	// Match is true when the replayed decision's canonical encoding is
	// byte-identical to the logged one AND every per-device reason code
	// agrees.
	Match bool
	// Want and Got are the logged and replayed canonical encodings.
	Want, Got string
	// ReasonDiffs lists devices whose replayed reason code diverged
	// from the logged verdict ("dev-3: phase1-energy != capacity").
	ReasonDiffs []string
}

// Diff renders a human-readable mismatch summary ("" when Match).
func (r *ReplayResult) Diff() string {
	if r.Match {
		return ""
	}
	out := ""
	if r.Got != r.Want {
		out = fmt.Sprintf("canonical decision diverged:\n--- logged ---\n%s--- replayed ---\n%s", r.Want, r.Got)
	}
	for _, d := range r.ReasonDiffs {
		out += "reason diverged: " + d + "\n"
	}
	if r.provenSinceLogged() {
		out += "logged search was node-capped; this build proves the selection\n"
	}
	return out
}

// provenSinceLogged recognises the one divergence a sound scheduler
// change can cause: the logging build's Phase-1 search stopped at its
// node limit (optimal=false), this build's search of the same problem
// finishes, and nothing else moved — same counters, a Phase-1 value no
// lower, every line after the header (the transform vector) and every
// reason code identical. The record still does not Match: where a
// truncated search stops depends on the build's bound as well as on the
// record, so its bytes are not owed across builds, and callers that
// gate on Match (audit recovery) stay on the safe side. This only
// explains the mismatch to whoever reads the diff.
func (r *ReplayResult) provenSinceLogged() bool {
	if len(r.ReasonDiffs) != 0 {
		return false
	}
	want, wantRest, ok := scheduler.ParseCanonicalHeader(r.Want)
	if !ok {
		return false
	}
	got, gotRest, ok := scheduler.ParseCanonicalHeader(r.Got)
	if !ok || gotRest != wantRest {
		return false
	}
	if want.OptimalPhase1 || !got.OptimalPhase1 || got.Phase1Value < want.Phase1Value {
		return false
	}
	got.OptimalPhase1, got.Phase1Value = want.OptimalPhase1, want.Phase1Value
	return got == want
}

// Replay re-runs the record's decision from scratch: rebuild the
// scheduler from the logged configuration, rebuild the request set in
// its logged order, schedule, and byte-compare the canonical encodings
// and reason codes. The scheduler's determinism contract makes any
// divergence a bug (or a tampered record), never noise — except for a
// record whose Phase-1 search the logging build had to truncate, which
// Diff explains (see provenSinceLogged).
func (r *Record) Replay() (*ReplayResult, error) {
	reqs, err := r.SchedulerRequests()
	if err != nil {
		return nil, err
	}
	cfg, err := r.Config.SchedulerConfig()
	if err != nil {
		return nil, err
	}
	s, err := scheduler.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("audit: replay: rebuild scheduler: %w", err)
	}
	var dec scheduler.Decision
	if r.Degraded != nil {
		// A degraded tick replays under the recorded shortcuts, not the
		// wall clock: forcing the same degradation reproduces the logged
		// bytes however fast the machine is. It does not make them
		// portable across CPUs: φ goes through math.Exp, which on
		// amd64 takes an FMA path when the CPU has one (DESIGN.md §10).
		dec, err = s.ScheduleDegraded(reqs, r.Degraded.Degradation())
	} else {
		dec, err = s.Schedule(reqs)
	}
	if err != nil {
		return nil, fmt.Errorf("audit: replay: schedule: %w", err)
	}
	res := &ReplayResult{
		Want: string(r.DecisionCanonical),
		Got:  string(dec.Canonical()),
	}
	// The logged verdicts and the replayed batch are both walked in
	// device-ID order, so each logged device is found by advancing, not
	// by lookup. A logged device the replay has no position for —
	// unknown, or out of order in a hand-edited record — is a diff.
	order := dec.IDOrder()
	at := func(k int) int {
		if order != nil {
			return order[k]
		}
		return k
	}
	k := 0
	for _, v := range r.Verdicts {
		for k < len(reqs) && reqs[at(k)].DeviceID < v.Device {
			k++
		}
		if k == len(reqs) || reqs[at(k)].DeviceID != v.Device {
			res.ReasonDiffs = append(res.ReasonDiffs,
				fmt.Sprintf("%s: missing from replayed verdicts", v.Device))
			continue
		}
		if got := dec.PerDevice[at(k)]; got.Reason != v.Reason {
			res.ReasonDiffs = append(res.ReasonDiffs,
				fmt.Sprintf("%s: replayed %s != logged %s", v.Device, got.Reason, v.Reason))
		}
		k++
	}
	res.Match = res.Got == res.Want && len(res.ReasonDiffs) == 0
	return res, nil
}

// ReplayAll replays recs in order and hands every outcome to visit (nil:
// none) — the loop behind `lpvsctl audit replay`, `lpvsctl audit
// recover`'s verify pass and `lpvsctl flight show`. It returns how many records
// diverged, and stops at the first record that cannot be replayed at
// all (the error names it) or whose visit returns an error.
func ReplayAll(recs []*Record, visit func(i int, res *ReplayResult) error) (int, error) {
	diverged := 0
	for i, rec := range recs {
		res, err := rec.Replay()
		if err != nil {
			return diverged, fmt.Errorf("record %d (slot %d, vc %s): %w", i, rec.Slot, rec.VC, err)
		}
		if !res.Match {
			diverged++
		}
		if visit != nil {
			if err := visit(i, res); err != nil {
				return diverged, err
			}
		}
	}
	return diverged, nil
}
