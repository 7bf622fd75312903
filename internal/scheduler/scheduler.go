// Package scheduler implements the LPVS core: the per-slot decision of
// which devices in a virtual cluster receive server-side video
// transforming (paper sections IV-V).
//
// The joint optimisation problem (8) minimises, over the binary vector
// x, the sum over devices and chunks of the display energy plus
// lambda times the anxiety degree, under the edge server's compute (6)
// and storage (7) capacities and the per-device energy-feasibility
// constraint (4)-(5). Following the paper, the problem is first
// *information-compacted*: the chunk-by-chunk energy recursion (5) is
// eliminated, turning (4) into the closed-form constraint (11) and the
// objective into the closed form (13). The compacted problem is solved
// with the paper's two-phase heuristic:
//
//   - Phase-1 ignores the nonlinear anxiety term and maximises energy
//     saving — a 2-constraint 0/1 knapsack solved exactly by branch and
//     bound (the paper uses CPLEX) or greedily for very large clusters;
//   - Phase-2 ranks users by anxiety degree and swaps selected devices
//     for anxious unselected ones whenever the full objective (13)
//     improves and capacity still holds.
//
// Energies inside the scheduler are normalised to battery fractions so
// that the energy and anxiety terms of the objective are commensurate
// and lambda stays an O(1) policy knob.
//
// A Scheduler solves one cluster cold, as a pure function; a Pool
// (pool.go) solves many per tick, cold too, into working memory it
// reuses from slot to slot. A result belongs to whoever holds it.
// Pool.Decide and DecideCtx hand out a fresh PoolResult that no later
// call touches; Pool.DecideInto — the one engine under both — decides
// into a result its caller keeps, overwriting it and reusing its
// slices, which is how the daemon's tick allocates nothing per device.
// Either way a Decision's X and PerDevice are its own: nothing is ever
// lent from a pool's scratch.
package scheduler

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lpvs/internal/anxiety"
	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/ilp"
	"lpvs/internal/obs/span"
	"lpvs/internal/video"
)

// DefaultSlotSeconds is the paper's scheduling period: 5 minutes.
const DefaultSlotSeconds = 300.0

// Request is one device's slot request, carrying everything the LPVS
// information-gathering step collects at the scheduling point (Fig. 6):
// display specification, energy status, the available chunk window, and
// the current Bayesian estimate of the device's power-reduction ratio.
type Request struct {
	DeviceID string
	Display  display.Spec
	// EnergyFrac is e_{n,m}(1), the battery fraction at the slot start.
	EnergyFrac float64
	// BatteryCapacityJ converts absolute chunk energies to fractions.
	BatteryCapacityJ float64
	// BasePowerW is the device's non-display playback draw, included in
	// the energy forecast (it drains the battery even though the
	// transform cannot reduce it).
	BasePowerW float64
	// Chunks is the available chunk window d_n(t).
	Chunks []video.Chunk
	// Gamma is the current estimate of the power-reduction ratio.
	Gamma float64
	// Anxiety optionally personalises the phi model for this user (nil
	// means the scheduler's population model). Devices that report their
	// own worry threshold get scheduled against their own curve.
	Anxiety anxiety.Model
}

// Validate reports whether the request is usable.
func (r *Request) Validate() error {
	if r.DeviceID == "" {
		return fmt.Errorf("scheduler: request with empty device ID")
	}
	if err := r.Display.Validate(); err != nil {
		return fmt.Errorf("scheduler: request %s: %w", r.DeviceID, err)
	}
	if r.EnergyFrac < 0 || r.EnergyFrac > 1 {
		return fmt.Errorf("scheduler: request %s: energy %v outside [0, 1]", r.DeviceID, r.EnergyFrac)
	}
	if r.BatteryCapacityJ <= 0 {
		return fmt.Errorf("scheduler: request %s: non-positive battery capacity", r.DeviceID)
	}
	if r.BasePowerW < 0 {
		return fmt.Errorf("scheduler: request %s: negative base power", r.DeviceID)
	}
	if len(r.Chunks) == 0 {
		return fmt.Errorf("scheduler: request %s: no available chunks", r.DeviceID)
	}
	if r.Gamma <= 0 || r.Gamma >= 1 {
		return fmt.Errorf("scheduler: request %s: gamma %v outside (0, 1)", r.DeviceID, r.Gamma)
	}
	return nil
}

// SortRequests puts a request batch in canonical (DeviceID) order, in
// place. Schedule's tie-breaks are deterministic for a given input
// order, so callers that accumulate requests in an order that means
// nothing (the edge daemon's pending batch: arrival order) must
// canonicalise before scheduling to get run-to-run reproducible
// decisions. A batch already in order costs one pass of about n
// comparisons: pdqsort checks before it moves anything.
//
// The DeviceIDs must be distinct — they are in the daemon's batch, which
// holds one report per device — because the sort is not stable: a
// stable one buys nothing without equal keys and costs 2.5x under the
// daemon's mutex (sort.SliceStable swaps 128-byte Requests through
// reflection). Requests sharing an ID may come out in either order.
func SortRequests(reqs []Request) {
	slices.SortFunc(reqs, func(a, b Request) int { return strings.Compare(a.DeviceID, b.DeviceID) })
}

// Reason is a per-device decision explanation code: why a device did
// or did not receive the transform this slot. The codes are part of
// the audit-log schema (internal/obs/audit) — add new ones rather than
// renaming existing ones.
type Reason string

// Decision reason codes.
const (
	// ReasonIneligible: the device failed the energy-feasibility
	// constraint (11) — transforming could not carry it through the
	// slot.
	ReasonIneligible Reason = "ineligible"
	// ReasonCapacity: eligible, but the edge server's compute/storage
	// capacities (6)-(7) were exhausted by devices with higher energy
	// saving.
	ReasonCapacity Reason = "capacity"
	// ReasonPhase1: selected by the Phase-1 energy-saving knapsack and
	// kept through Phase-2.
	ReasonPhase1 Reason = "phase1-energy"
	// ReasonSwappedIn: not picked by Phase-1, but swapped in by the
	// Phase-2 anxiety pass.
	ReasonSwappedIn Reason = "swapped-in-anxiety"
	// ReasonSwappedOut: picked by Phase-1, then displaced by a
	// higher-anxiety device in Phase-2.
	ReasonSwappedOut Reason = "swapped-out-by-higher-anxiety"
	// ReasonAdmitted: selected by a baseline policy's greedy capacity
	// filter (random, greedy-battery).
	ReasonAdmitted Reason = "admitted"
	// ReasonJoint: selected by the joint-knapsack policy.
	ReasonJoint Reason = "joint-knapsack"
	// ReasonNoTransform: the no-transform baseline never selects.
	ReasonNoTransform Reason = "no-transform"
)

// Detail spells out the constraint or phase behind the code — the
// prose half of /v1/explain and `lpvsctl audit explain`.
func (r Reason) Detail() string {
	switch r {
	case ReasonIneligible:
		return "failed the energy-feasibility constraint (11): even transformed, the forecast drains the battery before the slot ends, so transforming cannot carry the device through"
	case ReasonCapacity:
		return "eligible, but the edge server's compute/storage capacities (6)-(7) were exhausted by devices with higher energy saving"
	case ReasonPhase1:
		return "selected by the Phase-1 knapsack for its energy saving and kept through the Phase-2 anxiety pass"
	case ReasonSwappedIn:
		return "not a Phase-1 pick, but its higher anxiety degree won a Phase-2 swap against a Phase-1 selection"
	case ReasonSwappedOut:
		return "selected by Phase-1, then displaced in Phase-2 by a device with a higher anxiety degree"
	case ReasonAdmitted:
		return "admitted by the baseline policy's greedy capacity filter"
	case ReasonJoint:
		return "selected by the joint two-constraint knapsack over the full objective"
	case ReasonNoTransform:
		return "the no-transform baseline never selects devices"
	default:
		return string(r)
	}
}

// Verdict explains one device's outcome within a Decision: the binding
// reason plus the quantities the decision weighed. It is what the
// audit log records and the /v1/explain endpoint serves.
type Verdict struct {
	// Selected is x_n.
	Selected bool `json:"selected"`
	// Eligible is the constraint-(11) feasibility flag.
	Eligible bool `json:"eligible"`
	// Reason is the binding explanation code.
	Reason Reason `json:"reason"`
	// AnxietyBefore is phi(e) at the slot start; AnxietyAfter is phi at
	// the predicted end-of-slot energy under the final decision.
	AnxietyBefore float64 `json:"anxiety_before"`
	AnxietyAfter  float64 `json:"anxiety_after"`
	// Gamma is the power-reduction estimate the decision planned with.
	Gamma float64 `json:"gamma_est"`
	// SavingFrac is the battery fraction transforming would save this
	// slot — the device's Phase-1 knapsack value.
	SavingFrac float64 `json:"saving_frac"`
}

// Degradation records which anytime-mode shortcuts a decision was
// produced under (DESIGN.md §12). The zero value means none: the
// decision is exactly what the unbounded cold path computes. Each flag
// names a deterministic divergence, so a decision plus its Degradation
// replays byte-for-byte: Phase1Greedy forces the Phase-1 knapsack to the
// greedy solution (what the deadline-expired branch-and-bound returns),
// Phase2Skipped omits the anxiety-swapping pass entirely.
type Degradation struct {
	Phase1Greedy  bool `json:"phase1_greedy,omitempty"`
	Phase2Skipped bool `json:"phase2_skipped,omitempty"`
}

// Any reports whether any degradation applies.
func (d Degradation) Any() bool { return d.Phase1Greedy || d.Phase2Skipped }

// Reason renders the degradation as a stable machine-readable string
// ("" when none) — the value surfaced in TickResponse and /v1/status.
func (d Degradation) Reason() string {
	switch {
	case d.Phase1Greedy && d.Phase2Skipped:
		return "deadline:phase1-greedy+phase2-skipped"
	case d.Phase1Greedy:
		return "deadline:phase1-greedy"
	case d.Phase2Skipped:
		return "deadline:phase2-skipped"
	default:
		return ""
	}
}

// Decision is the scheduling outcome for one slot.
//
// The outcome is positional: X[i] and PerDevice[i] belong to the i-th
// request of the batch the decision was made for, and every consumer on
// the daemon's tick path (publish, audit, fleet telemetry, Canonical)
// reads positions. The decision owns both slices; the device IDs stay
// in the batch, which the decision aliases, so Canonical and IDOrder
// are valid only as long as the caller keeps that batch intact (the
// daemon reuses its request slice tick to tick, and is done with a
// decision before the next tick starts).
type Decision struct {
	// Transform maps device ID to x_n: X keyed by ID, for callers that
	// hold IDs rather than positions. It is built only at the library
	// boundary — Schedule, ScheduleCtx, ScheduleDegraded, DecideSerial
	// and the baseline policies; Pool.Decide leaves it nil. A device ID
	// the batch names twice keeps its last position's entry.
	Transform map[string]bool
	// X[i] is x_n of the batch's i-th request; PerDevice[i] is that
	// device's verdict (PerDevice[i].Selected == X[i]). Verdicts are
	// excluded from Canonical(), which predates them; the audit log
	// encodes them separately and deterministically.
	X         []bool
	PerDevice []Verdict
	// batch is the request batch the decision was made for — where the
	// positional view's device IDs live.
	batch []Request
	// Selected is the number of devices receiving transforming.
	Selected int
	// Eligible counts devices passing the energy-feasibility check (11).
	Eligible int
	// Phase1Value is the energy-saving objective value after Phase-1
	// (battery fractions).
	Phase1Value float64
	// Objective is the compacted joint objective (13) of the final
	// decision.
	Objective float64
	// Swaps counts accepted Phase-2 swaps.
	Swaps int
	// OptimalPhase1 reports whether Phase-1 was solved to proven
	// optimality.
	OptimalPhase1 bool
	// CompactSeconds, Phase1Seconds and Phase2Seconds break down the
	// scheduling wall time: information compacting (plan building), the
	// Phase-1 knapsack solve, and the Phase-2 anxiety swapping — the
	// paper's §VI scheduler-overhead metric, measured per slot.
	CompactSeconds float64
	Phase1Seconds  float64
	Phase2Seconds  float64
	// Phase1Nodes is the branch-and-bound node count behind this
	// decision (0 for the greedy fallback). Like the timing fields it is
	// excluded from Canonical().
	Phase1Nodes int
	// Degraded records the anytime-mode shortcuts this decision was
	// produced under (zero value: none). Unlike the fields above it IS
	// part of Canonical() — a degraded decision has different bytes by
	// construction — but only when set, so undegraded decisions keep
	// their historical encoding and the existing audit corpus replays
	// unchanged.
	Degraded Degradation
}

// Config parameterises the scheduler: what a decision depends on, and
// nothing about how it is computed. A Pool compacts a large cluster
// across as many goroutines as it has workers; a Scheduler's own solves
// compact serially. Both give the same bytes.
type Config struct {
	// SlotSec is the scheduling period.
	SlotSec float64
	// Lambda is the regularisation weight between energy saving and
	// anxiety reduction (Remark 3 of the paper).
	Lambda float64
	// Anxiety is the phi(.) model; nil means the canonical curve.
	Anxiety anxiety.Model
	// Server provides the capacity constraints; nil means an unbounded
	// server.
	Server *edge.Server
	// ExactThreshold is the largest cluster solved with exact branch and
	// bound; larger clusters fall back to the greedy knapsack (keeping
	// runtime linear as in Fig. 10). Zero means the default.
	ExactThreshold int
	// MaxNodes caps the branch-and-bound search. Zero means the default.
	MaxNodes int
	// DisableSwap turns off Phase-2 (ablation).
	DisableSwap bool
	// MaxSwapPasses bounds Phase-2 sweeps. Zero means the default (2).
	MaxSwapPasses int
	// DisableIncremental does nothing. It switched off the cross-slot
	// plan cache, which is gone (DESIGN.md §9): every slot is solved
	// cold. It stays so that configurations that set it still compile.
	DisableIncremental bool
}

// compactChunk is how many devices one compacting goroutine claims at
// a time; a cluster of at most one chunk is compacted serially. Chunks
// this size keep goroutine bookkeeping far below the per-device plan
// cost while still splitting paper-scale clusters.
const compactChunk = 64

// DefaultExactThreshold keeps exact Phase-1 for clusters up to this many
// devices.
const DefaultExactThreshold = 220

// Scheduler is the LPVS request scheduler: a configuration and the
// algorithm, nothing else. Every Schedule call solves its batch cold, as
// a pure function of (configuration, request batch), and no field is
// written after New, so any number of goroutines may share one. Nothing
// about a decision carries over from slot to slot; gamma learning lives
// with the caller.
type Scheduler struct {
	cfg Config
}

// New validates the configuration and builds a scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.SlotSec == 0 {
		cfg.SlotSec = DefaultSlotSeconds
	}
	if cfg.SlotSec < 0 {
		return nil, fmt.Errorf("scheduler: negative slot length")
	}
	if cfg.Lambda < 0 {
		return nil, fmt.Errorf("scheduler: negative lambda")
	}
	if cfg.Anxiety == nil {
		cfg.Anxiety = anxiety.NewCanonical()
	}
	if cfg.ExactThreshold == 0 {
		cfg.ExactThreshold = DefaultExactThreshold
	}
	if cfg.ExactThreshold < 0 {
		return nil, fmt.Errorf("scheduler: negative exact threshold")
	}
	if cfg.MaxSwapPasses == 0 {
		cfg.MaxSwapPasses = 2
	}
	if cfg.MaxSwapPasses < 0 {
		return nil, fmt.Errorf("scheduler: negative swap passes")
	}
	return &Scheduler{cfg: cfg}, nil
}

// Config returns the scheduler's effective configuration — the caller's
// config with defaults applied. The audit log records it so a replayed
// scheduler is rebuilt from exactly the values this one runs with.
func (s *Scheduler) Config() Config { return s.cfg }

// plan is the per-device precomputation derived from a request: resource
// costs, the objective value under both decisions, and the eligibility
// flag from constraint (11) — the handful of scalars information
// compacting (paper section V) reduces a device to. It holds no
// per-chunk data and is stored by value, in the call's slab.
type plan struct {
	req      *Request
	g, h     float64 // compute and storage costs
	eligible bool
	obj0     float64 // objective contribution with x_n = 0
	obj1     float64 // objective contribution with x_n = 1
	saving   float64 // display energy saved by transforming (fractions)
	anx      float64 // anxiety degree at slot start (for Phase-2 rank)
	end0     float64 // predicted end-of-slot energy with x_n = 0
	end1     float64 // predicted end-of-slot energy with x_n = 1
}

// placed is an eligible device's plan with its position in the request
// batch — where its x_n, verdict and swap flags live.
type placed struct {
	p *plan
	i int
}

// planScratch is the working memory of one scheduling call: everything
// a call needs that is sized by the batch and dead when it returns. A
// Pool keeps one per worker and reuses it from slot to slot; a bare
// Scheduler uses a fresh one per call, so either way a call makes O(1)
// allocations however many devices it schedules. Nothing in it outlives
// the call: the solver copies nothing out of the knapsack rows, its
// Solution.X is copied into the Decision's X before the next solve, and a
// Decision carries its own X and PerDevice.
type planScratch struct {
	slab     []plan   // slab[i] is the plan of reqs[i]
	eligible []placed // the plans passing constraint (11), in batch order

	// The chunk windows validate checked this call, by slice identity.
	windows map[chunkRef]struct{}

	// Phase-1: the knapsack over eligible (values, the two capacity rows
	// and the Problem that points at them) and the Solver that solves it,
	// whose search scratch and Solution.X outlive the call like the rest.
	values, gRow, hRow []float64
	cons               [2]ilp.Constraint
	prob               ilp.Problem
	solver             ilp.Solver

	// Phase-2: the two swap populations, their positional swapped flags,
	// what swapping each insider out adds to the objective, and the swap
	// events indexed like the batch.
	in, out         []placed
	candIn, curOut  []bool
	gain            []float64
	swapIn, swapOut []bool
}

// chunkRef identifies a chunk-window slice by backing-array identity.
// Every device in a virtual cluster shares one chunk slice, so
// validate checks a window once per distinct slice, not once per
// request. Sound within a call because request storage is read-only
// while the scheduler runs.
type chunkRef struct {
	ptr *video.Chunk
	n   int
}

// refOf identifies a chunk window by slice identity.
func refOf(chunks []video.Chunk) chunkRef {
	if len(chunks) == 0 {
		return chunkRef{}
	}
	return chunkRef{ptr: &chunks[0], n: len(chunks)}
}

// grown returns s with length n, reallocating only when its capacity is
// short. The contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// buildPlan validates one request and compacts it into p — the entry for
// callers holding a single request. A batch is validated whole first
// (planScratch.validate) and then compacted (buildPlansInto).
func (s *Scheduler) buildPlan(r *Request, p *plan) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if i, err := video.ValidateChunks(r.Chunks); err != nil {
		return chunkError(r, i, err)
	}
	s.compact(r, p)
	return nil
}

// chunkError is the error of a request whose window holds an invalid
// chunk.
func chunkError(r *Request, chunk int, err error) error {
	return fmt.Errorf("scheduler: request %s chunk %d: %w", r.DeviceID, chunk, err)
}

// model is the request's phi: its own, or the population model.
func (s *Scheduler) model(r *Request) anxiety.Model {
	if r.Anxiety != nil {
		return r.Anxiety
	}
	return s.cfg.Anxiety
}

// compact runs information gathering + compacting for one request whose
// fields and chunk window the caller has validated, filling p in place.
// It reads only the request and the (immutable) scheduler config, so
// plans for different devices can be built concurrently. Nothing is
// validated per chunk: the display is reduced to a display.Panel once
// and each chunk is priced with Panel.Power, the same expression
// video.PowerRate evaluates after its checks.
//
// The derived quantities — the eligibility inequality (11), the
// objective contributions (13) under both decisions, the Phase-1
// saving, and the end-of-slot energy projections — are all walks over
// the same per-chunk energies, so they are computed in a single fused
// pass that never materialises the per-chunk vectors. Each accumulator
// keeps the exact per-element expression and accumulation order of the
// original separate walks, so the fused pass is bit-identical to them
// (pinned by TestBuildPlanFusedBitIdentical).
//
// Constraint (11), for x_n = 1, with psi the transformed per-chunk
// energy (display scaled by gamma, base unchanged), everything in
// battery fractions:
//
//	K*e(1) - sum_k (K-k)*psi(k) >= gamma * sum_k p(k)
func (s *Scheduler) compact(r *Request, p *plan) {
	panel, err := r.Display.Panel()
	if err != nil {
		// Request.Validate checks the display spec first.
		panic(fmt.Sprintf("scheduler: compacting an unvalidated request: %v", err))
	}
	*p = plan{req: r}
	k := len(r.Chunks)
	phi := s.model(r)

	gamma := r.Gamma
	lambda := s.cfg.Lambda
	// Constraint (11) accumulators.
	lhs := float64(k) * r.EnergyFrac
	rhs := 0.0
	// Objective-(13) energy recursions under x_n = 0 and x_n = 1.
	e0, e1 := r.EnergyFrac, r.EnergyFrac
	// End-of-slot energy projections.
	end0, end1 := r.EnergyFrac, r.EnergyFrac
	// φ at e0 and e1, which both start at EnergyFrac: evaluated there
	// once, for the first chunk's two terms and for p.anx.
	p.anx = phi.Anxiety(r.EnergyFrac)
	phi0, phi1 := p.anx, p.anx
	for i := range r.Chunks {
		if i > 0 {
			phi0, phi1 = phi.Anxiety(e0), phi.Anxiety(e1)
		}
		c := &r.Chunks[i]
		watts := panel.Power(c.Stats)
		// The chunk's display and base (non-display) energy as battery
		// fractions.
		d := watts * c.DurationSec / r.BatteryCapacityJ
		b := r.BasePowerW * c.DurationSec / r.BatteryCapacityJ
		psi1 := float64(gamma*d) + b
		lhs -= float64(float64(k-i-1) * psi1)
		rhs += float64(gamma * d)
		psi0 := d + b
		p.obj0 += psi0 + float64(lambda*phi0)
		e0 -= psi0
		if e0 < 0 {
			e0 = 0
		}
		p.obj1 += psi1 + float64(lambda*phi1)
		e1 -= psi1
		if e1 < 0 {
			e1 = 0
		}
		p.saving += float64((1 - gamma) * d)
		end0 -= psi0
		end1 -= psi1
	}
	p.g = edge.ComputeCost(r.Display.Resolution, r.Chunks, s.cfg.SlotSec)
	p.h = edge.StorageCost(r.Chunks)
	p.eligible = lhs >= rhs
	if end0 < 0 {
		end0 = 0
	}
	if end1 < 0 {
		end1 = 0
	}
	p.end0, p.end1 = end0, end1
}

// validate checks a batch before anything is built — each request's
// fields, then its chunk window — and returns the first failure in
// batch order, the error a serial build would stop at. A distinct
// window is checked once per call, by slice identity: a channel's
// viewers share one chunk slice, so a 10,000-viewer tick checks 30
// chunks, not 300,000.
func (sc *planScratch) validate(reqs []Request) error {
	if sc.windows == nil {
		sc.windows = make(map[chunkRef]struct{})
	}
	clear(sc.windows)
	var last chunkRef
	for i := range reqs {
		r := &reqs[i]
		if err := r.Validate(); err != nil {
			return err
		}
		ref := refOf(r.Chunks)
		if _, seen := sc.windows[ref]; ref != last && !seen {
			if c, err := video.ValidateChunks(r.Chunks); err != nil {
				return chunkError(r, c, err)
			}
			sc.windows[ref] = struct{}{}
		}
		last = ref
	}
	return nil
}

// buildPlans runs information gathering + compacting for all requests
// into a fresh slab (baseline policies, tests).
func (s *Scheduler) buildPlans(reqs []Request) ([]plan, error) {
	var sc planScratch
	if err := sc.validate(reqs); err != nil {
		return nil, err
	}
	s.buildPlansInto(reqs, &sc, 1)
	return sc.slab, nil
}

// buildPlansInto compacts every request of a validated batch into
// sc.slab, resized to len(reqs) plans, fanning a cluster of more than
// one chunk out across up to workers goroutines. Request i is compacted
// into sc.slab[i] and nothing else, so parallel workers write disjoint
// plans and the parallel path is bit-identical to the serial one: each
// plan is a pure function of its request.
func (s *Scheduler) buildPlansInto(reqs []Request, sc *planScratch, workers int) {
	n := len(reqs)
	sc.slab = grown(sc.slab, n)
	build := func(i int) { s.compact(&reqs[i], &sc.slab[i]) }
	if workers <= 1 || n <= compactChunk {
		for i := 0; i < n; i++ {
			build(i)
		}
		return
	}

	var next atomic.Int64
	workers = min(workers, (n+compactChunk-1)/compactChunk)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(compactChunk)) - compactChunk
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+compactChunk, n); i++ {
					build(i)
				}
			}
		}()
	}
	wg.Wait()
}

// placeEligible fills sc.eligible with the slab's plans passing
// constraint (11), in batch order, and returns it.
func (sc *planScratch) placeEligible() []placed {
	eligible := grown(sc.eligible, len(sc.slab))[:0]
	for i := range sc.slab {
		if p := &sc.slab[i]; p.eligible {
			eligible = append(eligible, placed{p: p, i: i})
		}
	}
	sc.eligible = eligible
	return eligible
}

// Schedule makes the slot decision for one virtual cluster, cold: two
// calls with the same batch do the same work and return the same bytes.
func (s *Scheduler) Schedule(reqs []Request) (Decision, error) {
	return s.ScheduleCtx(context.Background(), reqs)
}

// ScheduleCtx is Schedule with span tracing and deadline awareness.
//
// Tracing: when ctx carries an active span (internal/obs/span), each
// stage — information compacting, the Phase-1 knapsack, Phase-2
// swapping — opens a child span whose duration matches the Decision's
// timing fields. With no active span the only cost is three context
// lookups; decisions are identical either way.
//
// Deadline: when ctx carries a deadline, the call runs in anytime mode
// (DESIGN.md §12): the Phase-1 branch-and-bound is wall-clock-bounded
// and falls back to the deterministic greedy solution on expiry, and an
// already-expired deadline skips the Phase-2 swap pass. The resulting
// decision is always feasible and capacity-respecting; the shortcuts
// taken are recorded in Decision.Degraded so audit replay can apply
// exactly the same ones. A ctx without a deadline (or one generous
// enough that no stage expires) yields bytes identical to Schedule.
// Context *cancellation* is deliberately ignored: a half-honoured
// cancel would produce timing-dependent decisions.
func (s *Scheduler) ScheduleCtx(ctx context.Context, reqs []Request) (Decision, error) {
	return s.scheduleCold(ctx, reqs, nil)
}

// ScheduleDegraded is Schedule with the given degradations forced,
// regardless of wall clock. It exists for audit replay: a record of a
// deadline-degraded tick carries its Degradation, and replaying under
// the same forced shortcuts reproduces the logged bytes
// deterministically — the degraded paths themselves are pure functions
// of (config, requests, degradation).
func (s *Scheduler) ScheduleDegraded(reqs []Request, deg Degradation) (Decision, error) {
	return s.scheduleCold(context.Background(), reqs, &deg)
}

// scheduleCold is the library boundary's solve: stateless and serial,
// into a decision of its own, with the ID-keyed map.
func (s *Scheduler) scheduleCold(ctx context.Context, reqs []Request, forced *Degradation) (Decision, error) {
	var dec Decision
	var sc planScratch
	if err := s.scheduleWith(ctx, reqs, &sc, 1, forced, &dec); err != nil {
		return Decision{}, err
	}
	return withMaps(dec, nil)
}

// withMaps is the one place Decision.Transform is built: the library
// boundary wraps its positional result in it. The map exists because
// callers outside the daemon's tick (the harness's reference check, the
// examples, tests) hold device IDs, not batch positions.
func withMaps(d Decision, err error) (Decision, error) {
	if err != nil {
		return d, err
	}
	d.Transform = make(map[string]bool, len(d.X))
	for i := range d.X {
		d.Transform[d.batch[i].DeviceID] = d.X[i]
	}
	return d, nil
}

// scheduleWith is the scheduling engine: a cold solve of reqs in the
// working memory sc — a pool worker's, reused slot to slot, or a fresh
// one — compacting across up to workers goroutines, with an optional
// forced Degradation (audit replay of a degraded tick; disables live
// deadline checks). Whatever sc held from an earlier call is
// overwritten before it is read.
//
// The decision is written into dec, positional only, and owns its X and
// PerDevice: what capacity dec brought for them is reused — every
// element up to len(reqs) overwritten, the length set exactly — and
// anything else dec held is gone. Nothing in it aliases sc. On error
// dec is unspecified.
func (s *Scheduler) scheduleWith(ctx context.Context, reqs []Request, sc *planScratch, workers int, forced *Degradation, dec *Decision) error {
	if len(reqs) == 0 {
		*dec = Decision{}
		return nil
	}
	deadline, hasDeadline := ctx.Deadline()
	if forced != nil {
		// Replay mode: degradations come from the record, never the clock.
		hasDeadline = false
	}
	if err := sc.validate(reqs); err != nil {
		return err
	}

	_, csp := span.Child(ctx, "compact")
	compactStart := time.Now()
	s.buildPlansInto(reqs, sc, workers)
	plans := sc.slab
	compactSec := time.Since(compactStart).Seconds()
	csp.SetInt("devices", len(reqs))
	csp.End()

	x, per := grown(dec.X, len(reqs)), dec.PerDevice
	clear(x)
	*dec = Decision{batch: reqs, X: x, CompactSeconds: compactSec}
	eligible := sc.placeEligible()
	dec.Eligible = len(eligible)
	if len(eligible) == 0 {
		dec.Objective = totalObjective(plans, dec.X)
		dec.PerDevice = s.verdicts(per, plans, dec.X, nil, nil)
		return nil
	}

	_, p1sp := span.Child(ctx, "phase1")
	phase1Start := time.Now()
	var p1deadline time.Time
	if hasDeadline {
		p1deadline = deadline
	}
	forceGreedy := forced != nil && forced.Phase1Greedy
	picks, phase1Val, optimal, p1 := s.phase1(sc, p1deadline, forceGreedy)
	dec.Phase1Seconds = time.Since(phase1Start).Seconds()
	dec.Phase1Value = phase1Val
	dec.OptimalPhase1 = optimal
	dec.Phase1Nodes = p1.nodes
	dec.Degraded.Phase1Greedy = p1.degraded
	for k, on := range picks {
		if on {
			dec.X[eligible[k].i] = true
			dec.Selected++
		}
	}
	p1sp.SetInt("eligible", len(eligible))
	p1sp.SetInt("selected", dec.Selected)
	p1sp.End()

	var swapIn, swapOut []bool
	if !s.cfg.DisableSwap && s.cfg.Lambda > 0 {
		// Anytime mode: a spent deadline skips the swap pass outright —
		// running a partial number of passes would be timing-dependent,
		// whereas "skipped entirely" is a replayable degradation.
		switch {
		case forced != nil && forced.Phase2Skipped:
			dec.Degraded.Phase2Skipped = true
		case hasDeadline && !time.Now().Before(deadline):
			dec.Degraded.Phase2Skipped = true
		default:
			_, p2sp := span.Child(ctx, "phase2")
			phase2Start := time.Now()
			dec.Swaps = s.phase2(sc, dec.X)
			swapIn, swapOut = sc.swapIn, sc.swapOut
			dec.Phase2Seconds = time.Since(phase2Start).Seconds()
			p2sp.SetInt("swaps", dec.Swaps)
			p2sp.End()
		}
	}

	// A swap moves one device in and one out, so Phase-2 leaves the
	// Phase-1 count standing.
	dec.Objective = totalObjective(plans, dec.X)
	dec.PerDevice = s.verdicts(per, plans, dec.X, swapIn, swapOut)
	return nil
}

// verdicts derives the per-device explanation of a finished decision,
// indexed like plans and x: the binding reason code plus the anxiety
// trajectory the decision implies. swapIn/swapOut are the Phase-2 swap
// events by batch position (nil when Phase-2 did not run). The result
// is dst's storage when that is large enough, every element rewritten.
func (s *Scheduler) verdicts(dst []Verdict, plans []plan, x, swapIn, swapOut []bool) []Verdict {
	out := grown(dst, len(plans))
	for i := range plans {
		p, v := &plans[i], &out[i]
		*v = Verdict{
			Selected:      x[i],
			Eligible:      p.eligible,
			AnxietyBefore: p.anx,
			Gamma:         p.req.Gamma,
			SavingFrac:    p.saving,
		}
		switch {
		case !p.eligible:
			v.Reason = ReasonIneligible
		case v.Selected && swapIn != nil && swapIn[i]:
			v.Reason = ReasonSwappedIn
		case v.Selected:
			v.Reason = ReasonPhase1
		case swapOut != nil && swapOut[i]:
			v.Reason = ReasonSwappedOut
		default:
			v.Reason = ReasonCapacity
		}
		end := p.end0
		if v.Selected {
			end = p.end1
		}
		v.AnxietyAfter = s.model(p.req).Anxiety(end)
	}
	return out
}

// phase1Info reports how the Phase-1 solve went, for observability
// only (none of it feeds the decision bytes).
type phase1Info struct {
	nodes    int  // branch-and-bound nodes (0: greedy)
	degraded bool // deadline expired: greedy returned instead of the search result
}

// phase1 solves the energy-only selection (14) as a 0/1 knapsack over
// sc.eligible and returns the picks indexed like it, in sc.solver's
// storage: valid until its next solve.
//
// A non-zero deadline puts the branch-and-bound in anytime mode: on
// expiry the always-feasible greedy solution is adopted and the result
// is flagged degraded. forceGreedy reproduces that outcome
// unconditionally (audit replay of a degraded decision).
func (s *Scheduler) phase1(sc *planScratch, deadline time.Time, forceGreedy bool) (picks []bool, value float64, optimal bool, info phase1Info) {
	eligible := sc.eligible
	sc.values = grown(sc.values, len(eligible))
	for k, e := range eligible {
		sc.values[k] = e.p.saving
	}

	var sol ilp.Solution
	prob := s.knapsack(sc)
	switch {
	case forceGreedy:
		sol = sc.solver.Greedy(prob)
		sol.Degraded = true
	case len(eligible) <= s.cfg.ExactThreshold:
		var err error
		sol, err = sc.solver.BranchBound(prob, ilp.BBConfig{MaxNodes: s.cfg.MaxNodes, Deadline: deadline})
		if err != nil {
			// The problem was validated during plan building; a solver
			// error here indicates a programming bug.
			panic(fmt.Sprintf("scheduler: phase-1 solver: %v", err))
		}
	default:
		sol = sc.solver.Greedy(prob)
	}
	return sol.X, sol.Value, sol.Optimal, phase1Info{nodes: sol.Nodes, degraded: sol.Degraded}
}

// knapsack frames sc.values over sc.eligible as a 0/1 knapsack under
// the server's compute (6) and storage (7) rows. The Problem and its
// rows live in the scratch and are valid until the next call.
func (s *Scheduler) knapsack(sc *planScratch) *ilp.Problem {
	sc.prob = ilp.Problem{Values: sc.values}
	if s.cfg.Server != nil {
		sc.gRow = grown(sc.gRow, len(sc.eligible))
		sc.hRow = grown(sc.hRow, len(sc.eligible))
		for k, e := range sc.eligible {
			sc.gRow[k] = e.p.g
			sc.hRow[k] = e.p.h
		}
		sc.cons = [2]ilp.Constraint{
			{Weights: sc.gRow, Capacity: s.cfg.Server.ComputeCapacity},
			{Weights: sc.hRow, Capacity: s.cfg.Server.StorageCapacityMB},
		}
		sc.prob.Constraints = sc.cons[:]
	}
	return &sc.prob
}

// lessAnxiousFirst orders Phase-2's insiders, moreAnxiousFirst its
// outsiders. Anxiety ties break on DeviceID (ascending in both) so the
// swap order never depends on the caller's request ordering (e.g. a
// map-fed request batch); anxieties that do not compare (NaN from a
// custom model) are left in place.
func lessAnxiousFirst(a, b placed) int {
	switch {
	case a.p.anx < b.p.anx:
		return -1
	case a.p.anx > b.p.anx:
		return 1
	case a.p.anx != b.p.anx:
		return 0
	}
	return strings.Compare(a.p.req.DeviceID, b.p.req.DeviceID)
}

func moreAnxiousFirst(a, b placed) int {
	if a.p.anx == b.p.anx {
		return strings.Compare(a.p.req.DeviceID, b.p.req.DeviceID)
	}
	return lessAnxiousFirst(b, a)
}

// phase2 implements the anxiety-driven swapping over sc.eligible:
// unselected devices ranked by anxiety degree are swapped in for
// selected ones whenever the joint objective (13) decreases and the
// capacities still hold. It updates x in place, returns the number of
// accepted swaps and leaves each accepted swap's two sides in
// sc.swapIn / sc.swapOut, indexed like x (a device appears in at most
// one: original outsiders can only swap in, original insiders only out).
func (s *Scheduler) phase2(sc *planScratch, x []bool) int {
	in, out := grown(sc.in, len(sc.eligible))[:0], grown(sc.out, len(sc.eligible))[:0]
	usedG, usedH := 0.0, 0.0
	for _, e := range sc.eligible {
		if x[e.i] {
			in = append(in, e)
			usedG += e.p.g
			usedH += e.p.h
		} else {
			out = append(out, e)
		}
	}
	sc.in, sc.out = in, out
	// Most anxious outsiders first; least anxious insiders first.
	slices.SortStableFunc(out, moreAnxiousFirst)
	slices.SortStableFunc(in, lessAnxiousFirst)

	// An outsider can only swap in once and an insider only out once, so
	// two flags per population, indexed like out and in, let the
	// O(|out| x |in|) probe loop skip the settled ones without touching x.
	candIn := grown(sc.candIn, len(out)) // out[i] swapped in
	curOut := grown(sc.curOut, len(in))  // in[j] swapped out
	swapIn := grown(sc.swapIn, len(x))
	swapOut := grown(sc.swapOut, len(x))
	sc.candIn, sc.curOut, sc.swapIn, sc.swapOut = candIn, curOut, swapIn, swapOut
	clear(candIn)
	clear(curOut)
	clear(swapIn)
	clear(swapOut)

	// The objective delta of swapping cand in and cur out is the sum of
	// two terms, one per side. The insiders' term is computed once, and
	// its minimum over the insiders still in lets a candidate that cannot
	// win against any of them skip the probe.
	gain := grown(sc.gain, len(in))
	sc.gain = gain
	for cj, cur := range in {
		gain[cj] = cur.p.obj0 - cur.p.obj1
	}
	floor, prune := minLiveGain(gain, curOut)

	swaps := 0
	for pass := 0; pass < s.cfg.MaxSwapPasses; pass++ {
		improved := false
		for ci, cand := range out {
			if candIn[ci] {
				continue // swapped in on an earlier pass
			}
			cost := cand.p.obj1 - cand.p.obj0
			// Float addition is monotone in each operand: if the smallest
			// gain leaves the delta at or above the threshold, every
			// insider's does. (A NaN cost compares false and probes.)
			if prune && cost+floor >= -1e-12 {
				continue
			}
			for cj, cur := range in {
				if curOut[cj] {
					continue // swapped out already
				}
				if delta := cost + gain[cj]; delta >= -1e-12 {
					continue
				}
				if s.cfg.Server != nil {
					ng := usedG - cur.p.g + cand.p.g
					nh := usedH - cur.p.h + cand.p.h
					if !s.cfg.Server.Fits(ng, nh) {
						continue
					}
					usedG, usedH = usedG-cur.p.g+cand.p.g, usedH-cur.p.h+cand.p.h
				}
				candIn[ci], curOut[cj] = true, true
				x[cand.i], x[cur.i] = true, false
				swapIn[cand.i], swapOut[cur.i] = true, true
				swaps++
				improved = true
				floor, prune = minLiveGain(gain, curOut)
				break
			}
		}
		if !improved {
			break
		}
	}
	return swaps
}

// minLiveGain returns the smallest gain among the insiders not yet
// swapped out (+Inf when none is left). ok is false when one of them is
// NaN: a NaN delta is not ">= -1e-12", so it takes the probe's other
// branch, and no bound over the rest can speak for it.
func minLiveGain(gain []float64, swappedOut []bool) (floor float64, ok bool) {
	floor = math.Inf(1)
	for cj, g := range gain {
		if swappedOut[cj] {
			continue
		}
		if math.IsNaN(g) {
			return 0, false
		}
		floor = min(floor, g)
	}
	return floor, true
}

// totalObjective sums the compacted objective (13) over all devices
// under the decision x (indexed like plans).
func totalObjective(plans []plan, x []bool) float64 {
	sum := 0.0
	for i := range plans {
		if x[i] {
			sum += plans[i].obj1
		} else {
			sum += plans[i].obj0
		}
	}
	return sum
}

// CompactedVsSimulated exposes, for testing and documentation, the two
// ways of computing a device's slot objective: the closed form (13) used
// by the scheduler, and a chunk-by-chunk simulation of recursion (5).
// Information compacting is exact, so both must agree.
func CompactedVsSimulated(s *Scheduler, r Request, transformed bool) (compacted, simulated float64, err error) {
	var p plan
	if err := s.buildPlan(&r, &p); err != nil {
		return 0, 0, err
	}
	compacted = p.obj0
	if transformed {
		compacted = p.obj1
	}

	// Chunk-by-chunk simulation of (3)+(5).
	e := r.EnergyFrac
	for _, c := range r.Chunks {
		watts, werr := video.PowerRate(r.Display, c)
		if werr != nil {
			return 0, 0, werr
		}
		psi := (watts*c.DurationSec + r.BasePowerW*c.DurationSec) / r.BatteryCapacityJ
		if transformed {
			psi = (r.Gamma*watts*c.DurationSec + r.BasePowerW*c.DurationSec) / r.BatteryCapacityJ
		}
		simulated += psi + s.cfg.Lambda*s.model(&r).Anxiety(e)
		e -= psi
		if e < 0 {
			e = 0
		}
	}
	return compacted, simulated, nil
}
