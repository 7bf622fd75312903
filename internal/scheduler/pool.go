package scheduler

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lpvs/internal/bufpool"
	"lpvs/internal/obs/span"
)

// This file implements the sharded scheduling engine: the paper's edge
// server solves problem (8) independently per virtual cluster every
// slot, so a tick over many VCs is embarrassingly parallel at the VC
// level, and the per-device information-compacting step parallelises
// inside each VC (Scheduler.buildPlans). The Pool fans VCs out across a
// fixed worker set and merges the results deterministically: output
// order is by VC ID, every per-VC decision is a pure function of that
// VC's requests, and no map iteration feeds scheduling order anywhere
// on the path. DecideSerial is the cold reference the differential
// tests compare against byte for byte.

// VC is one virtual cluster's slot input: the audience of one edge
// scheduling domain (a Twitch channel's viewers in the paper).
type VC struct {
	// ID identifies the cluster; IDs must be unique within one
	// DecideInto call and define the deterministic output order.
	ID string
	// Requests is the cluster's information-gathering output.
	Requests []Request
}

// VCDecision is one cluster's outcome within a pool tick.
type VCDecision struct {
	// VC echoes the cluster ID.
	VC string
	// Decision is the per-cluster scheduling outcome.
	Decision Decision
	// WallSeconds is the wall time this VC's solve took on its worker.
	WallSeconds float64
}

// PoolResult is the merged outcome of one pool tick. Whoever holds it
// owns it, slices included: the pool keeps no reference, and a result
// changes only when its holder hands it to DecideInto again.
type PoolResult struct {
	// VCs holds every cluster's decision, sorted by VC ID.
	VCs []VCDecision
	// WallSeconds is the end-to-end wall time of the tick — the
	// scheduler-overhead metric of the paper's Fig. 10. With more than
	// one worker this is what a viewer actually waits, not the CPU-sum.
	WallSeconds float64
	// CPUSeconds sums the per-VC solve times across workers; the ratio
	// CPUSeconds/WallSeconds approximates the achieved parallelism.
	CPUSeconds float64
}

// Decision reports the single-VC decision of a one-cluster tick —
// the common case for callers that wrapped an existing serial path.
func (r *PoolResult) Decision() Decision {
	if len(r.VCs) != 1 {
		panic(fmt.Sprintf("scheduler: PoolResult.Decision on %d VCs", len(r.VCs)))
	}
	return r.VCs[0].Decision
}

// PoolConfig parameterises the sharded engine.
type PoolConfig struct {
	// Workers is the VC-level fan-out. Zero means runtime.GOMAXPROCS(0).
	Workers int
}

// Pool schedules many virtual clusters per tick across a bounded worker
// set, and compacts a VC of more than one chunk across the same number
// of goroutines. Every VC is solved cold, exactly as Schedule solves
// it; what the pool keeps between ticks is working memory, not
// decisions — at most one planScratch per worker, on a free list, so a
// slot reuses the slabs an earlier one grew. It is safe for concurrent
// use: every DecideInto call allocates its own job state, and a
// scratch — its Phase-1 ilp.Solver included — belongs to one solve at
// a time.
type Pool struct {
	sched   *Scheduler
	workers int

	// free holds the scratch no solve holds, the warmest on top, so a
	// one-VC caller reuses a single scratch, and the pool keeps at most
	// workers of them however many VC IDs it sees.
	free *bufpool.FreeList[planScratch]
}

// NewPool builds the sharded engine. The scheduler config is validated
// exactly as in New.
func NewPool(cfg Config, pc PoolConfig) (*Pool, error) {
	workers := pc.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return nil, fmt.Errorf("scheduler: pool workers %d", pc.Workers)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Pool{sched: s, workers: workers, free: bufpool.NewFreeList[planScratch](workers)}, nil
}

// Scheduler exposes the pool's underlying per-VC scheduler (e.g. for
// policies that need plan-level access with the same configuration).
func (p *Pool) Scheduler() *Scheduler { return p.sched }

// Workers reports the configured fan-out.
func (p *Pool) Workers() int { return p.workers }

// DecideInto schedules every VC for one slot and merges the outcomes
// into res. Decisions are byte-identical to DecideSerial on the same
// input: each VC is solved independently by the same deterministic
// solve as Schedule, and the merge orders by VC ID regardless of which
// worker finished first.
//
// res is a result the caller keeps; a fresh one is a zero PoolResult
// passed in once. Whatever res held is overwritten — its VCs slice and
// every decision's X and PerDevice are reused where their capacity
// allows, with lengths set exactly — so a caller that is done with one
// tick's result before it asks for the next (the daemon, the emulator)
// allocates nothing per device. res owns all of its memory: nothing in
// it aliases the pool's scratch, and it stays valid until the caller
// passes it in again. It must not be shared between concurrent calls.
// On error res is unspecified.
//
// Tracing: when ctx carries an active span (internal/obs/span), each
// VC's solve opens a "vc" child, with the compact / phase1 / phase2
// stage spans nested under it, whose durations match the Decision's
// timing fields. Workers create children of the same parent
// concurrently — the tracer is built for that — and decisions are
// identical with tracing on or off.
//
// Deadline: when ctx carries a deadline, the call runs in anytime mode
// (DESIGN.md §12): the Phase-1 branch-and-bound is wall-clock-bounded
// and falls back to the deterministic greedy solution on expiry, and an
// already-expired deadline skips the Phase-2 swap pass. The resulting
// decision is always feasible and capacity-respecting; the shortcuts
// taken are recorded in Decision.Degraded so audit replay
// (Scheduler.ScheduleDegraded) can apply exactly the same ones. A ctx
// without a deadline, or one generous enough that no stage expires,
// yields bytes identical to Schedule. Context cancellation is
// deliberately ignored: a half-honoured cancel would produce
// timing-dependent decisions.
func (p *Pool) DecideInto(ctx context.Context, vcs []VC, res *PoolResult) error {
	ordered, err := orderVCs(vcs)
	if err != nil {
		return err
	}
	start := time.Now()
	*res = PoolResult{VCs: grown(res.VCs, len(ordered))}
	if len(ordered) == 0 {
		return nil
	}

	workers := p.workers
	if workers > len(ordered) {
		workers = len(ordered)
	}
	errs := make([]error, len(ordered))
	if workers == 1 {
		for i := range ordered {
			errs[i] = p.solveVC(ctx, &ordered[i], 0, &res.VCs[i])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ordered) {
						return
					}
					errs[i] = p.solveVC(ctx, &ordered[i], w, &res.VCs[i])
				}
			}(w)
		}
		wg.Wait()
	}
	// Deterministic error selection: the first failing VC in ID order,
	// matching what the serial loop would have reported.
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("scheduler: vc %s: %w", ordered[i].ID, err)
		}
	}
	for i := range res.VCs {
		res.CPUSeconds += res.VCs[i].WallSeconds
	}
	res.WallSeconds = time.Since(start).Seconds()
	return nil
}

// DecideSerial is the reference engine: the plain one-goroutine loop
// of cold Schedule calls over the same ID-ordered VC list the pool
// uses. Kept as a first-class API (not a test helper) so the
// differential harness always compares against the exact code path
// production would fall back to.
func DecideSerial(s *Scheduler, vcs []VC) (*PoolResult, error) {
	ordered, err := orderVCs(vcs)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &PoolResult{VCs: make([]VCDecision, len(ordered))}
	for i := range ordered {
		vcStart := time.Now()
		dec, err := s.Schedule(ordered[i].Requests)
		if err != nil {
			return nil, fmt.Errorf("scheduler: vc %s: %w", ordered[i].ID, err)
		}
		wall := time.Since(vcStart).Seconds()
		res.VCs[i] = VCDecision{VC: ordered[i].ID, Decision: dec, WallSeconds: wall}
		res.CPUSeconds += wall
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// solveVC decides one cluster into out, reusing out.Decision's storage,
// in a scratch it takes from the free list (or builds, when every kept
// one is in use) and gives back; concurrent DecideInto calls can have
// more than workers in flight, and the list drops the surplus.
func (p *Pool) solveVC(ctx context.Context, vc *VC, worker int, out *VCDecision) error {
	vcCtx, sp := span.Child(ctx, "vc")
	sp.SetStr("vc", vc.ID)
	sp.SetInt("worker", worker)
	start := time.Now()
	sc := p.free.Get()
	if sc == nil {
		sc = new(planScratch)
	}
	err := p.sched.scheduleWith(vcCtx, vc.Requests, sc, p.workers, nil, &out.Decision)
	p.free.Put(sc)
	sp.End()
	if err != nil {
		return err
	}
	out.VC = vc.ID
	out.WallSeconds = time.Since(start).Seconds()
	return nil
}

// orderVCs returns the VCs sorted by ID (a copy; the caller's slice is
// untouched) and rejects duplicate IDs, which would make the merge
// ambiguous.
func orderVCs(vcs []VC) ([]VC, error) {
	ordered := make([]VC, len(vcs))
	copy(ordered, vcs)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].ID < ordered[b].ID })
	for i := 1; i < len(ordered); i++ {
		if ordered[i].ID == ordered[i-1].ID {
			return nil, fmt.Errorf("scheduler: duplicate VC ID %q", ordered[i].ID)
		}
	}
	return ordered, nil
}

// Canonical returns a deterministic byte encoding of the decision's
// outcome: the scheduling counters and objective values plus the
// transform vector sorted by device ID. Wall-clock timing fields are
// deliberately excluded — they differ run to run — so two decisions
// from different engines (pool vs serial, different worker counts) can
// be compared byte for byte. It reads the positional view, so it is
// valid as long as the batch the decision was made for.
func (d Decision) Canonical() []byte { return d.AppendCanonical(nil) }

// AppendCanonical appends Canonical's encoding to dst and returns the
// extended slice, so a caller that encodes every tick (the audit log,
// a shard's tick reply) can keep one buffer. The header's floats are
// fmt's %.17g, which is strconv's 'g' at precision 17, NaN and the
// infinities included.
func (d Decision) AppendCanonical(dst []byte) []byte {
	size := 192 // the header and degradation lines
	for i := range d.X {
		size += len(d.batch[i].DeviceID) + len("=false\n")
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, "selected="...)
	dst = strconv.AppendInt(dst, int64(d.Selected), 10)
	dst = append(dst, " eligible="...)
	dst = strconv.AppendInt(dst, int64(d.Eligible), 10)
	dst = append(dst, " swaps="...)
	dst = strconv.AppendInt(dst, int64(d.Swaps), 10)
	dst = append(dst, " optimal="...)
	dst = strconv.AppendBool(dst, d.OptimalPhase1)
	dst = append(dst, " phase1="...)
	dst = strconv.AppendFloat(dst, d.Phase1Value, 'g', 17, 64)
	dst = append(dst, " objective="...)
	dst = strconv.AppendFloat(dst, d.Objective, 'g', 17, 64)
	dst = append(dst, '\n')
	// Appended only for degraded decisions so the historical encoding —
	// and every audit record written before anytime mode existed — is
	// byte-preserved.
	if d.Degraded.Any() {
		dst = append(dst, "degraded=phase1:"...)
		dst = strconv.AppendBool(dst, d.Degraded.Phase1Greedy)
		dst = append(dst, " phase2:"...)
		dst = strconv.AppendBool(dst, d.Degraded.Phase2Skipped)
		dst = append(dst, '\n')
	}
	order := d.IDOrder()
	for k := range d.X {
		i := k
		if order != nil {
			i = order[k]
		}
		dst = append(dst, d.batch[i].DeviceID...)
		if d.X[i] {
			dst = append(dst, "=true\n"...)
		} else {
			dst = append(dst, "=false\n"...)
		}
	}
	return dst
}

// IDOrder returns the batch positions in ascending device-ID order —
// the order Canonical and the audit record list devices in — or nil
// when the batch already is in that order, as the daemon's always is
// (SortRequests), so the common case is one pass and no allocation.
// Positions sharing an ID keep their batch order.
func (d Decision) IDOrder() []int {
	sorted := true
	for i := 1; i < len(d.batch) && sorted; i++ {
		sorted = d.batch[i-1].DeviceID <= d.batch[i].DeviceID
	}
	if sorted {
		return nil
	}
	order := make([]int, len(d.batch))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return strings.Compare(d.batch[a].DeviceID, d.batch[b].DeviceID)
	})
	return order
}

// CanonicalHeader is the first line of Decision.Canonical read back:
// the counters and objective values, without the transform vector.
type CanonicalHeader struct {
	Selected, Eligible, Swaps int
	OptimalPhase1             bool
	Phase1Value, Objective    float64
}

// ParseCanonicalHeader splits a Decision.Canonical encoding into its
// header and everything after the header line (the degradation marker,
// if any, and the transform vector). It lives beside Canonical so the
// line's format is known in one place; %.17g round-trips, so the floats
// come back bit for bit. ok is false when the first line is not a
// canonical header.
func ParseCanonicalHeader(canonical string) (h CanonicalHeader, rest string, ok bool) {
	line, rest, found := strings.Cut(canonical, "\n")
	if !found {
		return h, "", false
	}
	n, err := fmt.Sscanf(line, "selected=%d eligible=%d swaps=%d optimal=%t phase1=%g objective=%g",
		&h.Selected, &h.Eligible, &h.Swaps, &h.OptimalPhase1, &h.Phase1Value, &h.Objective)
	return h, rest, err == nil && n == 6
}

// ReadCanonical reads canon, the Canonical encoding of a decision over n
// devices (degraded as the decision was), back into the devices' IDs
// and verdicts in line order, calling fn with each line's index. It
// reports false unless canon holds exactly n device lines after its
// header — a device ID holding a newline shifts them, and then fn is
// not called — each one "<id>=<verdict>", the verdict true or false.
// A line it cannot read stops it there, fn having been called for the
// lines before.
func ReadCanonical(canon []byte, degraded bool, n int, fn func(k int, id []byte, x bool)) bool {
	header := 1
	if degraded {
		header = 2
	}
	if bytes.Count(canon, newline) != header+n {
		return false
	}
	lines := canon
	for ; header > 0; header-- {
		_, lines, _ = bytes.Cut(lines, newline)
	}
	for k := 0; k < n; k++ {
		var line []byte
		line, lines, _ = bytes.Cut(lines, newline)
		eq := bytes.LastIndexByte(line, '=')
		if eq < 0 {
			return false
		}
		x := string(line[eq+1:]) == "true"
		if !x && string(line[eq+1:]) != "false" {
			return false
		}
		fn(k, line[:eq], x)
	}
	return true
}

var newline = []byte{'\n'}
