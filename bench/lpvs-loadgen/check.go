package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"lpvs/internal/bayes"
	"lpvs/internal/edge"
	"lpvs/internal/obs/audit"
	"lpvs/internal/router"
	"lpvs/internal/scheduler"
)

// reference is the cold serial scheduler the daemons' answers are
// compared against: same configuration, incremental caches off.
type reference struct {
	in    *inputs
	sched *scheduler.Scheduler
	gamma float64
}

func newReference(in *inputs) (*reference, error) {
	es, err := edge.NewServer(in.spec.serverStreams)
	if err != nil {
		return nil, err
	}
	s, err := scheduler.New(scheduler.Config{Lambda: 1, Server: es, DisableIncremental: true})
	if err != nil {
		return nil, err
	}
	// No device ever posts /v1/observe, so every report is scheduled
	// with the estimator's prior.
	return &reference{in: in, sched: s, gamma: bayes.NewGammaEstimator().Gamma()}, nil
}

// vcs rebuilds the scheduler input of one slot from the generated fleet
// and stream windows, the way the daemons do from the reports: an edge
// daemon solves the whole fleet as one VC, a shard one VC per channel.
// Devices are generated in ID order, so each VC is already canonical.
func (r *reference) vcs(slot int) ([]scheduler.VC, error) {
	in := r.in
	energy := in.energy[slot%cyclePositions]
	windows := make(map[string][]scheduler.Request, len(in.streams))
	all := make([]scheduler.Request, 0, len(in.fleet))
	for d, rep := range in.fleet {
		disp, err := rep.Spec()
		if err != nil {
			return nil, err
		}
		stream := in.streams[d%in.spec.channels]
		start := (slot % (len(stream.Chunks) / windowChunks)) * windowChunks
		req := scheduler.Request{
			DeviceID:         rep.DeviceID,
			Display:          disp,
			EnergyFrac:       energy[d],
			BatteryCapacityJ: rep.BatteryCapacityJ,
			BasePowerW:       rep.BasePowerW,
			Chunks:           stream.Chunks[start : start+windowChunks],
			Gamma:            r.gamma,
		}
		all = append(all, req)
		windows[stream.ID] = append(windows[stream.ID], req)
	}
	if in.spec.shards == 0 {
		return []scheduler.VC{{ID: fmt.Sprintf("slot-%d", slot), Requests: all}}, nil
	}
	out := make([]scheduler.VC, 0, len(windows))
	for _, s := range in.streams {
		out = append(out, scheduler.VC{ID: s.ID, Requests: windows[s.ID]})
	}
	return out, nil
}

func (r *reference) decide(slot int) ([]scheduler.VC, *scheduler.PoolResult, error) {
	vcs, err := r.vcs(slot)
	if err != nil {
		return nil, nil, err
	}
	res, err := scheduler.DecideSerial(r.sched, vcs)
	return vcs, res, err
}

// slotAnswers is what one slot's replies said, kept for the check.
type slotAnswers struct {
	tick router.TickResponse
	// transform[i] and decSlot[i] answer inputs.readPaths[i].
	transform []bool
	decSlot   []int
}

// check compares one slot's answers with the reference scheduler and
// returns the number of mismatches. On the audit workload it also
// replays the slot's audit record.
func (s *session) check(a *slotAnswers) (mismatches int, err error) {
	slot := a.tick.Slot
	_, ref, err := s.ref.decide(slot)
	if err != nil {
		return 0, err
	}
	fail := func(format string, args ...any) {
		mismatches++
		if mismatches <= 5 {
			fmt.Fprintf(os.Stderr, "%s: slot %d: "+format+"\n", append([]any{s.in.spec.name, slot}, args...)...)
		}
	}
	if s.in.spec.shards > 0 {
		if len(a.tick.VCs) != len(ref.VCs) {
			fail("router merged %d VCs, reference has %d", len(a.tick.VCs), len(ref.VCs))
		}
		for i := 0; i < len(a.tick.VCs) && i < len(ref.VCs); i++ {
			got, want := a.tick.VCs[i], ref.VCs[i]
			if got.VC != want.VC || !bytes.Equal(got.Canonical, want.Decision.Canonical()) {
				fail("VC %s canonical bytes differ from reference VC %s", got.VC, want.VC)
			}
		}
	} else {
		dec := ref.VCs[0].Decision
		if a.tick.Selected != dec.Selected || a.tick.Eligible != dec.Eligible {
			fail("tick selected/eligible %d/%d, reference %d/%d",
				a.tick.Selected, a.tick.Eligible, dec.Selected, dec.Eligible)
		}
	}
	byDevice := map[string]bool{}
	for _, vc := range ref.VCs {
		for id, on := range vc.Decision.Transform {
			byDevice[id] = on
		}
	}
	for i, d := range s.in.readDevice {
		id := s.in.fleet[d].DeviceID
		if a.decSlot[i] != slot {
			fail("decision of %s is from slot %d", id, a.decSlot[i])
		} else if a.transform[i] != byDevice[id] {
			fail("decision of %s: transform=%t, reference %t", id, a.transform[i], byDevice[id])
		}
	}
	if s.cl.auditPath != "" {
		n, err := s.checkAudit(slot)
		if err != nil {
			return mismatches, err
		}
		mismatches += n
	}
	return mismatches, nil
}

// checkAudit replays the slot's audit record, the one the log grew by
// during the slot.
func (s *session) checkAudit(slot int) (mismatches int, err error) {
	f, err := os.Open(s.cl.auditPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(s.auditBefore, io.SeekStart); err != nil {
		return 0, err
	}
	line, err := io.ReadAll(f)
	if err != nil {
		return 0, err
	}
	rec, err := audit.Decode(bytes.TrimRight(line, "\n"))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	res, err := rec.Replay()
	if err != nil {
		return 0, err
	}
	s.probe.add("audit.replay_ms", ms(time.Since(start)))
	if rec.Slot != slot || !res.Match {
		mismatches++
		fmt.Fprintf(os.Stderr, "%s: slot %d: audit record of slot %d replay match=%t\n",
			s.in.spec.name, slot, rec.Slot, res.Match)
	}
	return mismatches, nil
}
