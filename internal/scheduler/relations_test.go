package scheduler

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/stats"
)

// relationTol is the float slack of every relation below. A proven
// optimum is optimal only up to the branch and bound's boundTol (1e-9)
// in value, so two solves compared across a capacity step may differ by
// up to 2e-9 against the relation, and across a λ step of 0.5 the
// anxiety term by up to 2e-9/0.5 = 4e-9. The objectives are sums over
// at most 60 devices of terms below 40, whose rounding is under 1e-12.
// 1e-8 covers both; a Phase-2 swap that worsens the objective moves it
// by a device's share, 1e-4 and more.
const relationTol = 1e-8

// relationCluster is one random instance of the relations: a cluster of
// mixed resolutions and chunk-window lengths drawn from base, a λ, and
// the totals of its compute and storage costs, which the capacity sweeps
// scale.
type relationCluster struct {
	reqs             []Request
	lambda           float64
	compute, storage float64
}

func randomRelationCluster(rng *stats.RNG, base []Request, inst int) relationCluster {
	resolutions := []display.Resolution{display.Res480p, display.Res720p, display.Res1080p, display.Res1440p}
	n := 4 + rng.Intn(57)
	reqs := make([]Request, n)
	c := relationCluster{reqs: reqs, lambda: rng.Uniform(0.1, 5)}
	for i := range reqs {
		r := base[rng.Intn(len(base))]
		r.DeviceID = fmt.Sprintf("r%02d-d%02d", inst, i)
		r.Display.Resolution = resolutions[rng.Intn(len(resolutions))]
		r.Chunks = r.Chunks[:4+rng.Intn(len(r.Chunks)-3)]
		r.EnergyFrac = rng.Uniform(0.02, 1)
		r.Gamma = rng.Uniform(0.15, 0.6)
		reqs[i] = r
		c.compute += edge.ComputeCost(r.Display.Resolution, r.Chunks, DefaultSlotSeconds)
		c.storage += edge.StorageCost(r.Chunks)
	}
	return c
}

// capacitySteps are the fractions of a cluster's total cost the
// capacity sweeps step through, from a server that fits nobody to one
// that fits everybody.
var capacitySteps = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1, 1.2}

// anxietyTerm is the anxiety term of objective (13) under x: the sum of
// φ over every device's chunk trajectory, without λ. It is the
// difference of the compacted objective at λ = 1 and at λ = 0.
func anxietyTerm(t *testing.T, cfg Config, reqs []Request, x []bool) float64 {
	t.Helper()
	cfg.Lambda = 1
	with, err := mustScheduler(t, cfg).buildPlans(reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Lambda = 0
	without, err := mustScheduler(t, cfg).buildPlans(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return totalObjective(with, x) - totalObjective(without, x)
}

// TestScheduleRelations checks relations between decisions that hold
// whatever the exact figures, so they survive any re-pin of the
// goldens. Over random clusters of mixed resolutions and window
// lengths, each up to relationTol:
//   - Phase1Value is non-decreasing in C and in S between two solves
//     that are both OptimalPhase1 (a larger server only adds feasible
//     sets);
//   - Objective is non-increasing in C and in S for JointKnapsackPolicy
//     between two proven-optimal solves;
//   - Phase-2 never ends above Phase-1's objective, which is the
//     objective of the same solve with DisableSwap;
//   - a permuted batch decides the same: identical Canonical bytes but
//     for the objective's last bits, which sums in batch order (the
//     reason SortRequests exists), and identical bytes once SortRequests
//     has put it back in order;
//   - for JointKnapsackPolicy, the anxiety term of objective (13) is
//     non-increasing in λ between two proven-optimal solves.
//
// The two-phase heuristic is exempt from the λ relation and from the
// Objective relation: its Phase-2 is a first-improvement local search.
// Raising λ raises its anxiety term in 7 to 23 of 60 λ-steps on Fig. 8's
// requests (ROADMAP.md, re-anchor finding 1), and on these clusters
// raising C raises its Objective in a quarter of the instances; the
// test logs on how many C-steps it does.
func TestScheduleRelations(t *testing.T) {
	base := makeCluster(t, 32, 777)
	rng := stats.NewRNG(20261019)
	lambdas := []float64{0, 0.5, 1, 2, 5, 10}
	const instances = 24
	var optimalSteps, lambdaSteps, heuristicRises int
	for inst := 0; inst < instances; inst++ {
		c := randomRelationCluster(rng, base, inst)
		decide := func(cfg Config) Decision {
			t.Helper()
			d, err := mustScheduler(t, cfg).Schedule(c.reqs)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		sweep := func(name string, server func(step float64) *edge.Server) {
			var prev, prevJoint Decision
			for k, step := range capacitySteps {
				cfg := Config{Lambda: c.lambda, Server: server(step)}
				d := decide(cfg)
				joint, err := NewJointKnapsackPolicy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				j, err := joint.Schedule(c.reqs)
				if err != nil {
					t.Fatal(err)
				}
				cfg.DisableSwap = true
				if p1 := decide(cfg); d.Objective > p1.Objective+relationTol {
					t.Errorf("instance %d, %s at %.2f: Phase-2 ends at objective %.17g, above Phase-1's %.17g",
						inst, name, step, d.Objective, p1.Objective)
				}
				if k > 0 && prev.OptimalPhase1 && d.OptimalPhase1 {
					optimalSteps++
					if d.Phase1Value < prev.Phase1Value-relationTol {
						t.Errorf("instance %d, %s %.2f -> %.2f: Phase1Value falls from %.17g to %.17g",
							inst, name, capacitySteps[k-1], step, prev.Phase1Value, d.Phase1Value)
					}
				}
				if k > 0 && prevJoint.OptimalPhase1 && j.OptimalPhase1 && j.Objective > prevJoint.Objective+relationTol {
					t.Errorf("instance %d, %s %.2f -> %.2f: the joint solve's Objective rises from %.17g to %.17g",
						inst, name, capacitySteps[k-1], step, prevJoint.Objective, j.Objective)
				}
				if k > 0 && name == "C" && d.Objective > prev.Objective+relationTol {
					heuristicRises++
				}
				prev, prevJoint = d, j
			}
		}
		// Each sweep holds the other capacity at a random share of its
		// total, so both rows of the knapsack bind somewhere.
		fixedS := c.storage * rng.Uniform(0.2, 1.2)
		fixedC := c.compute * rng.Uniform(0.2, 1.2)
		sweep("C", func(step float64) *edge.Server {
			return &edge.Server{ComputeCapacity: step * c.compute, StorageCapacityMB: fixedS}
		})
		sweep("S", func(step float64) *edge.Server {
			return &edge.Server{ComputeCapacity: fixedC, StorageCapacityMB: step * c.storage}
		})

		cfg := Config{Lambda: c.lambda, Server: &edge.Server{ComputeCapacity: fixedC, StorageCapacityMB: fixedS}}
		want := decide(cfg)
		perm := make([]Request, len(c.reqs))
		for i, j := range rng.Perm(len(c.reqs)) {
			perm[i] = c.reqs[j]
		}
		got, err := mustScheduler(t, cfg).Schedule(perm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Objective-want.Objective) <= relationTol {
			got.Objective = want.Objective
		}
		if !bytes.Equal(got.Canonical(), want.Canonical()) {
			t.Errorf("instance %d: a permuted batch decides\n%s\nthe batch in order\n%s", inst, got.Canonical(), want.Canonical())
		}
		SortRequests(perm)
		if got, err = mustScheduler(t, cfg).Schedule(perm); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Canonical(), want.Canonical()) {
			t.Errorf("instance %d: a permuted batch put back in order decides\n%s\nthe batch in order\n%s",
				inst, got.Canonical(), want.Canonical())
		}

		prevA, prevOptimal := math.Inf(1), false
		for k, lambda := range lambdas {
			cfg.Lambda = lambda
			joint, err := NewJointKnapsackPolicy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d, err := joint.Schedule(c.reqs)
			if err != nil {
				t.Fatal(err)
			}
			a := anxietyTerm(t, cfg, c.reqs, d.X)
			if k > 0 && prevOptimal && d.OptimalPhase1 {
				lambdaSteps++
				if a > prevA+relationTol {
					t.Errorf("instance %d, λ %v -> %v: the joint solve's anxiety term rises from %.17g to %.17g",
						inst, lambdas[k-1], lambda, prevA, a)
				}
			}
			prevA, prevOptimal = a, d.OptimalPhase1
		}
	}
	t.Logf("%d instances: %d capacity steps and %d λ-steps between proven optima; the two-phase Objective rose on %d of %d C-steps",
		instances, optimalSteps, lambdaSteps, heuristicRises, instances*(len(capacitySteps)-1))
	if optimalSteps == 0 || lambdaSteps == 0 {
		t.Fatal("no step between two proven optima: the optimality relations compared nothing")
	}
}
