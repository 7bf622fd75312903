package scheduler

import (
	"fmt"
	"sort"

	"lpvs/internal/ilp"
	"lpvs/internal/stats"
)

// Policy is anything that can make the per-slot transform decision for a
// virtual cluster. The LPVS scheduler and all the evaluation baselines
// implement it.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Schedule decides x_n for every request: Decision.X[i] for reqs[i]
	// (the emulator reads the decision by position).
	Schedule(reqs []Request) (Decision, error)
}

// Name implements Policy.
func (s *Scheduler) Name() string { return "lpvs" }

// NoTransform is the do-nothing baseline: the conventional streaming
// service without LPVS.
type NoTransform struct{}

// Name implements Policy.
func (NoTransform) Name() string { return "no-transform" }

// Schedule implements Policy.
func (NoTransform) Schedule(reqs []Request) (Decision, error) {
	d := Decision{
		batch:     reqs,
		X:         make([]bool, len(reqs)),
		PerDevice: make([]Verdict, len(reqs)),
	}
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return Decision{}, err
		}
		d.PerDevice[i] = Verdict{Reason: ReasonNoTransform, Gamma: reqs[i].Gamma}
	}
	return withMaps(d, nil)
}

// capacityFilter greedily admits plans in the given order until the edge
// capacities are exhausted, honouring eligibility. Verdicts carry the
// same ineligible/capacity reason codes as the LPVS path, with
// ReasonAdmitted marking greedy admission.
func (s *Scheduler) capacityFilter(reqs []Request, plans []plan, order []int) Decision {
	d := Decision{batch: reqs, X: make([]bool, len(plans))}
	usedG, usedH := 0.0, 0.0
	for _, idx := range order {
		p := &plans[idx]
		if !p.eligible {
			continue
		}
		d.Eligible++
		if s.cfg.Server != nil && !s.cfg.Server.Fits(usedG+p.g, usedH+p.h) {
			continue
		}
		usedG += p.g
		usedH += p.h
		d.X[idx] = true
		d.Selected++
	}
	d.Objective = totalObjective(plans, d.X)
	d.PerDevice = s.verdicts(nil, plans, d.X, nil, nil)
	markSelected(d.PerDevice, ReasonAdmitted)
	return d
}

// markSelected gives every selected device the baseline policy's own
// reason code in place of the LPVS path's phase1-energy.
func markSelected(per []Verdict, reason Reason) {
	for i := range per {
		if per[i].Selected {
			per[i].Reason = reason
		}
	}
}

// RandomPolicy admits a uniformly random subset of the eligible devices
// under the capacity constraints — the strawman the paper argues against
// in section III-C.
type RandomPolicy struct {
	inner *Scheduler
	rng   *stats.RNG
}

// NewRandomPolicy builds the random baseline sharing the scheduler's
// capacity and eligibility machinery.
func NewRandomPolicy(cfg Config, seed int64) (*RandomPolicy, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &RandomPolicy{inner: s, rng: stats.NewRNG(seed)}, nil
}

// Name implements Policy.
func (p *RandomPolicy) Name() string { return "random" }

// Schedule implements Policy.
func (p *RandomPolicy) Schedule(reqs []Request) (Decision, error) {
	if len(reqs) == 0 {
		return withMaps(Decision{}, nil)
	}
	plans, err := p.inner.buildPlans(reqs)
	if err != nil {
		return Decision{}, err
	}
	order := p.rng.Perm(len(plans))
	return withMaps(p.inner.capacityFilter(reqs, plans, order), nil)
}

// GreedyBatteryPolicy admits the lowest-battery (most anxious) devices
// first under the capacity constraints — a natural heuristic that tracks
// anxiety but ignores how much energy a transform actually saves.
type GreedyBatteryPolicy struct {
	inner *Scheduler
}

// NewGreedyBatteryPolicy builds the battery-greedy baseline.
func NewGreedyBatteryPolicy(cfg Config) (*GreedyBatteryPolicy, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &GreedyBatteryPolicy{inner: s}, nil
}

// Name implements Policy.
func (p *GreedyBatteryPolicy) Name() string { return "greedy-battery" }

// Schedule implements Policy.
func (p *GreedyBatteryPolicy) Schedule(reqs []Request) (Decision, error) {
	if len(reqs) == 0 {
		return withMaps(Decision{}, nil)
	}
	plans, err := p.inner.buildPlans(reqs)
	if err != nil {
		return Decision{}, err
	}
	order := make([]int, len(plans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := plans[order[a]].req, plans[order[b]].req
		// Equal-battery ties break on DeviceID: admission order must not
		// depend on how the caller happened to order the requests.
		if ra.EnergyFrac != rb.EnergyFrac {
			return ra.EnergyFrac < rb.EnergyFrac
		}
		return ra.DeviceID < rb.DeviceID
	})
	return withMaps(p.inner.capacityFilter(reqs, plans, order), nil)
}

// JointKnapsackPolicy is this reproduction's extension: because the
// compacted objective (13) is separable per device, the *entire* joint
// problem (8) — not just Phase-1 — is a 2-constraint knapsack with item
// value obj0-obj1. Solving it directly subsumes both phases; the
// two-phase-vs-joint gap is reported in the ablation benchmarks.
type JointKnapsackPolicy struct {
	inner *Scheduler
}

// NewJointKnapsackPolicy builds the joint solver with the same
// configuration surface as the LPVS scheduler.
func NewJointKnapsackPolicy(cfg Config) (*JointKnapsackPolicy, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &JointKnapsackPolicy{inner: s}, nil
}

// Name implements Policy.
func (p *JointKnapsackPolicy) Name() string { return "joint-knapsack" }

// Schedule implements Policy.
func (p *JointKnapsackPolicy) Schedule(reqs []Request) (Decision, error) {
	if len(reqs) == 0 {
		return withMaps(Decision{}, nil)
	}
	s := p.inner
	plans, err := s.buildPlans(reqs)
	if err != nil {
		return Decision{}, err
	}
	d := Decision{batch: reqs, X: make([]bool, len(plans))}
	sc := planScratch{slab: plans}
	d.Eligible = len(sc.placeEligible())
	if d.Eligible > 0 {
		sol := s.jointKnapsack(&sc)
		d.Phase1Value = sol.Value
		d.OptimalPhase1 = sol.Optimal
		for k, on := range sol.X {
			if on {
				d.X[sc.eligible[k].i] = true
				d.Selected++
			}
		}
	}
	d.Objective = totalObjective(plans, d.X)
	d.PerDevice = s.verdicts(nil, plans, d.X, nil, nil)
	markSelected(d.PerDevice, ReasonJoint)
	return withMaps(d, nil)
}

// jointKnapsack maximises the total objective decrease obj0-obj1 over
// sc.eligible under the capacity rows.
func (s *Scheduler) jointKnapsack(sc *planScratch) ilp.Solution {
	sc.values = grown(sc.values, len(sc.eligible))
	for k, e := range sc.eligible {
		benefit := e.p.obj0 - e.p.obj1
		if benefit < 0 {
			benefit = 0 // transforming never hurts, but guard the solver precondition
		}
		sc.values[k] = benefit
	}
	prob := s.knapsack(sc)
	if len(sc.eligible) > s.cfg.ExactThreshold {
		return ilp.Greedy(prob)
	}
	sol, err := ilp.BranchBound(prob, ilp.BBConfig{MaxNodes: s.cfg.MaxNodes})
	if err != nil {
		panic(fmt.Sprintf("scheduler: joint solver: %v", err))
	}
	return sol
}
