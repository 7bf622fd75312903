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

// relationDraws is what randomRelationCluster draws from: a *stats.RNG
// in TestScheduleRelations, the fuzz input in FuzzScheduleRelations.
type relationDraws interface {
	Intn(n int) int
	Uniform(lo, hi float64) float64
}

// byteDraws draws from fuzz input, one byte a draw, and draws zeros
// once the input runs out. Uniform bytes draw randomRelationCluster's
// own distribution, up to the rounding of Uniform to 256 steps.
type byteDraws []byte

func (b *byteDraws) next() int {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int(x)
}

func (b *byteDraws) Intn(n int) int { return b.next() % n }

func (b *byteDraws) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*float64(b.next())/256 }

// randomRelationCluster draws a cluster of 4 to maxDevices devices.
func randomRelationCluster(rng relationDraws, base []Request, inst, maxDevices int) relationCluster {
	resolutions := []display.Resolution{display.Res480p, display.Res720p, display.Res1080p, display.Res1440p}
	n := 4 + rng.Intn(maxDevices-3)
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

// scheduleOrFatal is one cold two-phase solve of reqs under cfg.
func scheduleOrFatal(t *testing.T, cfg Config, reqs []Request) Decision {
	t.Helper()
	d, err := mustScheduler(t, cfg).Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkSwapNotAbove: Phase-2 never ends above Phase-1's objective,
// which is the objective of the same solve with DisableSwap.
func checkSwapNotAbove(t *testing.T, where string, cfg Config, reqs []Request, d Decision) {
	t.Helper()
	cfg.DisableSwap = true
	if p1 := scheduleOrFatal(t, cfg, reqs); d.Objective > p1.Objective+relationTol {
		t.Errorf("%s: Phase-2 ends at objective %.17g, above Phase-1's %.17g", where, d.Objective, p1.Objective)
	}
}

// checkPhase1Step: Phase1Value is non-decreasing from prev to d, a
// solve under a capacity no smaller in C and in S, when both are
// OptimalPhase1 (a larger server only adds feasible sets). It reports
// whether the two were both proven optima.
func checkPhase1Step(t *testing.T, where string, prev, d Decision) bool {
	t.Helper()
	if !prev.OptimalPhase1 || !d.OptimalPhase1 {
		return false
	}
	if d.Phase1Value < prev.Phase1Value-relationTol {
		t.Errorf("%s: Phase1Value falls from %.17g to %.17g", where, prev.Phase1Value, d.Phase1Value)
	}
	return true
}

// checkPermuted: perm, a permutation of the sorted batch want was
// decided for under cfg, decides the same — identical Canonical bytes
// but for the objective's last bits, which sums in batch order (the
// reason SortRequests exists). It holds only while no two devices tie:
// between two identical devices the solve picks by batch order.
func checkPermuted(t *testing.T, where string, cfg Config, perm []Request, want Decision) {
	t.Helper()
	got := scheduleOrFatal(t, cfg, perm)
	if math.Abs(got.Objective-want.Objective) <= relationTol {
		got.Objective = want.Objective
	}
	if !bytes.Equal(got.Canonical(), want.Canonical()) {
		t.Errorf("%s: a permuted batch decides\n%s\nthe batch in order\n%s", where, got.Canonical(), want.Canonical())
	}
}

// checkSortedBack: perm, a permutation of the sorted batch want was
// decided for under cfg, decides byte for byte the same once
// SortRequests has put it back in order, which it does to perm.
func checkSortedBack(t *testing.T, where string, cfg Config, perm []Request, want Decision) {
	t.Helper()
	SortRequests(perm)
	if got := scheduleOrFatal(t, cfg, perm); !bytes.Equal(got.Canonical(), want.Canonical()) {
		t.Errorf("%s: a permuted batch put back in order decides\n%s\nthe batch in order\n%s",
			where, got.Canonical(), want.Canonical())
	}
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
		c := randomRelationCluster(rng, base, inst, 60)
		sweep := func(name string, server func(step float64) *edge.Server) {
			var prev, prevJoint Decision
			for k, step := range capacitySteps {
				cfg := Config{Lambda: c.lambda, Server: server(step)}
				d := scheduleOrFatal(t, cfg, c.reqs)
				joint, err := NewJointKnapsackPolicy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				j, err := joint.Schedule(c.reqs)
				if err != nil {
					t.Fatal(err)
				}
				checkSwapNotAbove(t, fmt.Sprintf("instance %d, %s at %.2f", inst, name, step), cfg, c.reqs, d)
				if k > 0 && checkPhase1Step(t, fmt.Sprintf("instance %d, %s %.2f -> %.2f", inst, name, capacitySteps[k-1], step), prev, d) {
					optimalSteps++
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
		perm := make([]Request, len(c.reqs))
		for i, j := range rng.Perm(len(c.reqs)) {
			perm[i] = c.reqs[j]
		}
		want := scheduleOrFatal(t, cfg, c.reqs)
		checkPermuted(t, fmt.Sprintf("instance %d", inst), cfg, perm, want)
		checkSortedBack(t, fmt.Sprintf("instance %d", inst), cfg, perm, want)

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

// FuzzScheduleRelations holds the two-phase solve to TestScheduleRelations'
// relations on clusters decoded from the fuzz input: a cluster of 4 to
// 16 devices drawn by randomRelationCluster, capacities C and S of 0 to
// 120% of its total costs, a step up in each, and a permutation. Under
// (C, S) Phase-2 must not end above the same solve with DisableSwap;
// Phase1Value must not fall from (C, S) to the larger C or the larger
// S when both solves are proven optima; and the permuted batch must
// decide byte for byte the same once SortRequests has put it back in
// order. Before that sort it may not: byte draws make identical
// devices, which the solve tells apart by batch order, so
// checkPermuted's relation is TestScheduleRelations' alone. The seeds
// are uniform bytes, which decode to the generator's own distribution.
func FuzzScheduleRelations(f *testing.F) {
	rng := stats.NewRNG(20261019)
	for seed := 0; seed < 8; seed++ {
		data := make([]byte, 96)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		draws := byteDraws(data)
		c := randomRelationCluster(&draws, fuzzBaseCluster(t), 0, 16)
		at := func(cf, sf float64) Config {
			return Config{Lambda: c.lambda, Server: &edge.Server{ComputeCapacity: cf * c.compute, StorageCapacityMB: sf * c.storage}}
		}
		cf, sf := draws.Uniform(0, 1.2), draws.Uniform(0, 1.2)
		cfg := at(cf, sf)
		d := scheduleOrFatal(t, cfg, c.reqs)
		checkSwapNotAbove(t, "at (C, S)", cfg, c.reqs, d)
		checkPhase1Step(t, "C step", d, scheduleOrFatal(t, at(cf+draws.Uniform(0, 0.5), sf), c.reqs))
		checkPhase1Step(t, "S step", d, scheduleOrFatal(t, at(cf, sf+draws.Uniform(0, 0.5)), c.reqs))
		perm := append([]Request(nil), c.reqs...)
		for i := len(perm) - 1; i > 0; i-- {
			j := draws.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		checkSortedBack(t, "permuted", cfg, perm, d)
	})
}
