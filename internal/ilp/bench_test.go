package ilp

import (
	"fmt"
	"testing"

	"lpvs/internal/stats"
)

func benchProblem(n int) *Problem {
	return randomProblem(stats.NewRNG(42), n, 2)
}

// BenchmarkBranchBound reports nodes/op beside the time, so a bound
// change shows as search effort and a per-node cost change as ns per
// node. tied and mixed4 are the Phase-1 shapes (one and four display
// resolutions in a 200-device VC); the n= cases have distinct weights,
// where the cardinality bound is pure per-node overhead.
func BenchmarkBranchBound(b *testing.B) {
	cases := []struct {
		name string
		p    *Problem
	}{
		{"n=20", benchProblem(20)},
		{"n=50", benchProblem(50)},
		{"n=100", benchProblem(100)},
		{"n=200", benchProblem(200)},
		{"tied/n=200", phase1Shaped(stats.NewRNG(42), 200, resolutionWeights[2:3])},
		{"mixed4/n=200", phase1Shaped(stats.NewRNG(42), 200, resolutionWeights)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			nodes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := new(Solver).BranchBound(tc.p, BBConfig{MaxNodes: 50_000})
				if err != nil {
					b.Fatal(err)
				}
				nodes += sol.Nodes
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

func BenchmarkGreedy(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := benchProblem(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				new(Solver).Greedy(p)
			}
		})
	}
}
