package ilp

import (
	"testing"

	"lpvs/internal/stats"
)

// Compute weights of the four display resolutions relative to 720p
// (edge.ComputeCost) and the storage weight of one 2.5 Mbps stream
// window (edge.StorageCost): the only weights a Phase-1 problem holds.
var resolutionWeights = []float64{854.0 * 480 / (1280 * 720), 1, 2.25, 4}

const windowWeight = 94.0

// phase1Shaped builds an n-device Phase-1 problem as the scheduler
// states it for one VC on a 60-stream edge server: a compute row with
// one weight per display resolution (drawn from classes), a storage row
// with the same weight for every device.
func phase1Shaped(rng *stats.RNG, n int, classes []float64) *Problem {
	p := &Problem{
		Values: make([]float64, n),
		Constraints: []Constraint{
			{Weights: make([]float64, n), Capacity: 60},
			{Weights: make([]float64, n), Capacity: 60 * 140},
		},
	}
	for i := range p.Values {
		p.Values[i] = rng.Uniform(0.1, 10)
		p.Constraints[0].Weights[i] = classes[rng.Intn(len(classes))]
		p.Constraints[1].Weights[i] = windowWeight
	}
	return p
}

// An all-1080p VC of 200 devices — the shape the end-to-end benchmark's
// exact workload schedules — is a pure cardinality problem: greedy's
// 26 best devices are optimal and the bound must say so at once. With
// the Dantzig bound alone this search ran to the 200,001-node cap.
func TestBranchBoundTiedWeightsProvesAtRoot(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := phase1Shaped(stats.NewRNG(seed), 200, resolutionWeights[2:3])
		sol, err := new(Solver).BranchBound(p, BBConfig{})
		if err != nil {
			t.Fatal(err)
		}
		g := new(Solver).Greedy(p)
		if !sol.Optimal || sol.Nodes > 8 {
			t.Fatalf("seed %d: optimal=%t after %d nodes, want a proof within 8", seed, sol.Optimal, sol.Nodes)
		}
		if sol.Value != g.Value {
			t.Fatalf("seed %d: value %v, greedy %v: want bit-equal", seed, sol.Value, g.Value)
		}
		for i := range sol.X {
			if sol.X[i] != g.X[i] {
				t.Fatalf("seed %d: assignment differs from greedy at item %d", seed, i)
			}
		}
	}
}

// A mixed VC (four resolutions, 200 devices) makes the search do real
// work. Each instance's node count is pinned as a ceiling; parent is
// what commit 5d6406f (Dantzig bound alone) needed for the same
// instance, which a ceiling may never exceed.
func TestBranchBoundFourClassNodeCeilings(t *testing.T) {
	cases := []struct {
		seed            int64
		parent, ceiling int
		value           float64 // the optimum, identical in both builds
	}{
		{1, 7667, 3234, 486.71937825938676},
		{2, 815, 398, 507.88590934790113},
		{3, 3823, 1082, 506.4268849115463},
		{4, 3356, 1256, 530.8870229618907},
		{5, 1754, 780, 529.7968379458657},
		{6, 34733, 7579, 522.2028397654951},
		{7, 1374, 928, 504.25790899637616},
		{8, 22946, 9875, 518.7162704940798},
		{9, 11021, 4169, 529.693077659347},
		{10, 915, 422, 497.0501568487729},
		{11, 465, 248, 498.50125564309496},
		{12, 1522, 355, 498.1468706285289},
	}
	for _, tc := range cases {
		p := phase1Shaped(stats.NewRNG(tc.seed), 200, resolutionWeights)
		sol, err := new(Solver).BranchBound(p, BBConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if tc.ceiling > tc.parent {
			t.Fatalf("seed %d: ceiling %d above the parent's %d nodes", tc.seed, tc.ceiling, tc.parent)
		}
		if sol.Nodes > tc.ceiling {
			t.Errorf("seed %d: %d nodes, ceiling %d (parent %d)", tc.seed, sol.Nodes, tc.ceiling, tc.parent)
		}
		if !sol.Optimal || sol.Value != tc.value {
			t.Errorf("seed %d: optimal=%t value %v, want the proven optimum %v", tc.seed, sol.Optimal, sol.Value, tc.value)
		}
	}
}
