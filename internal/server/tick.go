package server

import (
	"context"
	"fmt"
	"sort"
	"time"

	"lpvs/internal/scheduler"
)

// This file is the daemon's one tick pipeline (DESIGN.md §9, §17):
// sort the pending batch in place, partition it into virtual clusters,
// schedule, publish the verdicts, audit each cluster, fold the stats,
// observe, trade the batch for the one before it, advance the slot. An
// endpoint chooses only the partition; everything else is shared, so a
// standalone tick is the one-partition case of a shard tick and the N=1
// router differential compares one code path with itself.

// partition says how a tick groups its reports into virtual clusters.
type partition int

const (
	// oneVC schedules every pending report as a single cluster — the
	// paper's formulation (PAPER.md §IV) — under the fixed VC ID "edge",
	// so the pool's per-VC stats keep one row across ticks.
	oneVC partition = iota
	// perChannel schedules each channel as its own cluster (VC ID =
	// channel ID) — the unit the consistent-hash shard map distributes.
	perChannel
)

// auditLabel names one cluster's audit record: which cluster of which
// slot it was. The single cluster's record is "slot-N"; a channel's is
// "slot-N/<channel>".
func (p partition) auditLabel(slot int, vcID string) string {
	if p == oneVC {
		return fmt.Sprintf("slot-%d", slot)
	}
	return fmt.Sprintf("slot-%d/%s", slot, vcID)
}

// partitionLocked groups the device-sorted batch into the tick's VCs,
// in VC-ID order — the order Pool.DecideCtx answers in, so VCs and
// decisions pair up by index. Each group inherits the canonical device
// order the scheduler's tie-breaks need. Either partition works in
// server-owned scratch (the VC list, and per channel the group's
// backing array), so at a stable fleet it allocates nothing per
// request; the groups live as long as tickOutcome.vcs. Caller holds
// s.mu.
func (s *Server) partitionLocked(part partition, reqs []scheduler.Request) []scheduler.VC {
	vcs := s.vcScratch[:0]
	if part == oneVC {
		vcs = append(vcs, scheduler.VC{ID: "edge", Requests: reqs})
	} else {
		if s.chScratch == nil {
			s.chScratch = map[string][]scheduler.Request{}
		}
		for ch, group := range s.chScratch {
			s.chScratch[ch] = group[:0]
		}
		for _, r := range reqs {
			ch := s.cfg.Stream.ID
			if st, ok := s.devices[r.DeviceID]; ok {
				ch = st.channel
			}
			s.chScratch[ch] = append(s.chScratch[ch], r)
		}
		for ch, group := range s.chScratch {
			if len(group) == 0 {
				// Nobody reported on it this tick: a channel that emptied
				// for good must not pin its last batch's array.
				delete(s.chScratch, ch)
				continue
			}
			vcs = append(vcs, scheduler.VC{ID: ch, Requests: group})
		}
		sort.Slice(vcs, func(a, b int) bool { return vcs[a].ID < vcs[b].ID })
	}
	s.vcScratch = vcs
	return vcs
}

// tickOutcome is what a finished tick hands its endpoint to shape a
// response from. vcs and decided are parallel, in VC-ID order. Both
// alias server storage a later tick refills — vcs the scheduled batch
// and the per-channel groups, decided the kept scheduler result
// (s.tickRes) — so they are valid only while s.mu is held, and so is
// decided[i].Decision.Canonical(), which reads its device IDs from
// vcs[i].Requests.
type tickOutcome struct {
	stats   TickStats
	vcs     []scheduler.VC
	decided []scheduler.VCDecision
}

// runTickLocked runs one scheduling slot over the given partition of
// the pending reports and advances the slot. On a scheduler error
// nothing is published and the reports stay pending (sorted: a re-report
// still overwrites its own entry). Caller holds s.mu.
func (s *Server) runTickLocked(ctx context.Context, part partition) (tickOutcome, error) {
	start := time.Now()
	if s.cfg.SchedDeadline > 0 {
		// Anytime mode: the scheduler reads the deadline (never the
		// cancellation) and degrades deterministically on expiry.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SchedDeadline)
		defer cancel()
	}
	ctx, sp := s.tracer.Start(ctx, "tick")
	sp.SetInt("slot", s.slot)
	log := s.log
	if s.cfg.NodeID != "" {
		// A federation's spans and tick lines say which member ran them.
		sp.SetStr("node", s.cfg.NodeID)
		log = log.With("node", s.cfg.NodeID)
	}
	// The batch is the pending table itself. Canonicalise it: reports
	// sit in arrival order, and the scheduler's tie-breaks are only
	// deterministic for a fixed input order. Sorting by DeviceID makes
	// every tick reproducible; a fleet that reports in ID order pays one
	// pass that finds nothing to move.
	reqs := s.pending
	scheduler.SortRequests(reqs)
	vcs := s.partitionLocked(part, reqs)
	// Decided into the one result the server keeps (DESIGN.md §9): the
	// previous tick's is dead — everything read from it was copied into
	// device state, the audit line and the response under this lock.
	pres := &s.tickRes
	if err := s.pool.DecideInto(ctx, vcs, pres); err != nil {
		sp.End()
		s.indexPendingLocked() // the sort moved the reports it leaves pending
		log.Error("tick failed", "slot", s.slot, "reports", len(reqs), "err", err)
		return tickOutcome{}, err
	}
	stats := NewTickStats(s.slot)
	for i := range pres.VCs {
		stats.Fold(vcTickStats(&pres.VCs[i], len(vcs[i].Requests)))
	}
	sp.SetInt("reports", stats.Reports)
	sp.SetInt("vcs", len(vcs))
	sp.SetInt("selected", stats.Selected)
	sp.End()

	// Publish: decisions are positional (dec.X[k] and dec.PerDevice[k]
	// belong to vcs[i].Requests[k]), so one pass over the batch with one
	// device lookup each sets the transform bit and the verdict and feeds
	// the per-channel fleet fold.
	fold := fleetFold{}
	for i := range pres.VCs {
		dec := &pres.VCs[i].Decision
		batch := vcs[i].Requests
		for k := range batch {
			st, ok := s.devices[batch[k].DeviceID]
			if !ok {
				continue
			}
			st.transform, st.slot = dec.X[k], s.slot
			st.verdict, st.hasVerdict = dec.PerDevice[k], true
			fold.admit(st.channel, &st.verdict)
		}
		if s.audit != nil {
			// Every record re-solves independently, so a per-channel log
			// replays exactly like a single-VC one.
			s.auditVCLocked(part.auditLabel(s.slot, vcs[i].ID), batch, dec, sp.TraceID())
		}
	}
	stats.DurationSec = time.Since(start).Seconds()
	if stats.Degraded {
		s.degraded.Add(1)
	}
	s.lastTick = stats
	// One walk over the devices feeds the cluster-wide Bayesian gauges
	// and the per-channel gamma means.
	gammaMean, sigmaMean := s.gammaStatsLocked(fold)
	s.observeTick(stats, gammaMean, sigmaMean)
	s.fleetTickLocked(fold)
	log.Info("tick",
		"slot", stats.Slot, "vcs", len(vcs), "reports", stats.Reports,
		"eligible", stats.Eligible, "selected", stats.Selected,
		"swaps", stats.Swaps, "phase1_optimal", stats.Phase1Optimal,
		"duration_ms", stats.DurationSec*1000)
	// The batches trade places (DESIGN.md §16): this one stays as it is
	// until the next tick has been decided — s.tickRes and the outcome
	// alias it — and the one before it, which nothing reads any more,
	// takes the next slot's reports. A fleet that sent n reports sends
	// about n again: a batch too short for them is made to size here,
	// once, rather than by append during ingest, whose 1.25x steps
	// allocate five times what they end up holding.
	next := s.scheduled[:0]
	if cap(next) < len(reqs) {
		next = make([]scheduler.Request, 0, len(reqs))
	}
	s.pending, s.scheduled = next, reqs
	s.slot++
	return tickOutcome{stats: stats, vcs: vcs, decided: pres.VCs}, nil
}

// indexPendingLocked re-establishes every pending report's position in
// its device's state after the batch was reordered or replaced. Caller
// holds s.mu; every pending report's device is known (acceptReportLocked
// and applySnapshot both see to it).
func (s *Server) indexPendingLocked() {
	for i := range s.pending {
		s.devices[s.pending[i].DeviceID].pendingAt = int32(i)
	}
}

// auditVCLocked appends one cluster's replayable audit record. The
// record is encoded once and the same bytes are teed to the audit log
// and the flight recorder's tail ring, so a bundle's embedded records
// are byte-exact copies of the logged ones. The tail mirrors the log —
// a daemon without -audit-dir captures bundles with no audit section,
// and the tick path never pays for encoding a record nobody persists.
// Record and line live in s.auditRec's reused storage and are gone at
// the next cluster's Build: both sinks take their bytes before they
// return (the file write is synchronous, NoteAudit copies). Caller
// holds s.mu and has checked s.audit.
func (s *Server) auditVCLocked(label string, reqs []scheduler.Request, dec *scheduler.Decision, traceID string) {
	rec := s.auditRec.Build(s.slot, label, s.pool.Scheduler().Config(), reqs, *dec)
	rec.UnixSec = float64(time.Now().UnixNano()) / 1e9
	rec.TraceID = traceID
	line, err := s.auditRec.Encode()
	if err != nil {
		s.log.Error("audit encode failed", "slot", s.slot, "vc", label, "err", err)
		return
	}
	if err := s.audit.AppendLine(line); err != nil {
		// Auditing is an observer: a full disk must not take the
		// scheduling path down with it.
		s.log.Error("audit append failed", "slot", s.slot, "vc", label, "err", err)
	}
	if s.flight != nil {
		s.flight.NoteAudit(line)
	}
}

// NewTickStats returns the identity of the TickStats fold for a slot:
// nothing scheduled, and Phase1Optimal true because a conjunction over
// no clusters holds.
func NewTickStats(slot int) TickStats {
	return TickStats{Slot: slot, Phase1Optimal: true}
}

// vcTickStats is one decided cluster as an element of the fold. CPUSec
// is the cluster's solve time on its worker, so the fold sums to the
// pool's CPU-seconds.
func vcTickStats(vc *scheduler.VCDecision, reports int) TickStats {
	dec := &vc.Decision
	return TickStats{
		Reports:        reports,
		Eligible:       dec.Eligible,
		Selected:       dec.Selected,
		Swaps:          dec.Swaps,
		Phase1Optimal:  dec.OptimalPhase1,
		CompactSec:     dec.CompactSeconds,
		Phase1Sec:      dec.Phase1Seconds,
		Phase2Sec:      dec.Phase2Seconds,
		CPUSec:         vc.WallSeconds,
		Phase1Nodes:    dec.Phase1Nodes,
		Degraded:       dec.Degraded.Any(),
		DegradedReason: dec.Degraded.Reason(),
	}
}

// Fold accumulates one element — a cluster of a tick, or a shard's
// tick inside a router tick — into t: counters and stage times sum,
// Phase1Optimal is a conjunction, Degraded is a disjunction. All of
// those are order-independent. DegradedReason is not: it is the reason
// of the last degraded element folded, which is the last in VC-ID order
// within a daemon and the last in shard-map node order within a router.
// Slot and DurationSec belong to the tick doing the folding, not to its
// elements, and are left alone.
func (t *TickStats) Fold(e TickStats) {
	t.Reports += e.Reports
	t.Eligible += e.Eligible
	t.Selected += e.Selected
	t.Swaps += e.Swaps
	t.Phase1Optimal = t.Phase1Optimal && e.Phase1Optimal
	t.CompactSec += e.CompactSec
	t.Phase1Sec += e.Phase1Sec
	t.Phase2Sec += e.Phase2Sec
	t.CPUSec += e.CPUSec
	t.Phase1Nodes += e.Phase1Nodes
	if e.Degraded {
		t.Degraded = true
		t.DegradedReason = e.DegradedReason
	}
}
