package ilp

import (
	"math"
	"slices"
	"testing"
	"time"

	"lpvs/internal/stats"
	"lpvs/internal/testenv"
)

// sameSolution reports whether two solutions agree in every field,
// values by bit pattern.
func sameSolution(a, b Solution) bool {
	return slices.Equal(a.X, b.X) && math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.Optimal == b.Optimal && a.Nodes == b.Nodes && a.Degraded == b.Degraded
}

// TestSolverReuseMatchesFresh drives one Solver through problems that
// grow, shrink, change their constraint count and alternate between
// the two solvers, the way a pool worker's Solver sees one VC after
// another, and demands each time the Solution a fresh Solver returns.
// A Solver that let anything of an earlier solve through — a stale X,
// a bound order sized for a larger problem — fails here.
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(7)
	var s Solver
	for trial := 0; trial < 300; trial++ {
		var p *Problem
		switch n := 1 + rng.Intn(40); trial % 4 {
		case 0:
			p = phase1Shaped(rng, n, resolutionWeights)
		default:
			p = randomProblem(rng, n, trial%4-1)
		}
		if trial%3 == 0 {
			want := new(Solver).Greedy(p)
			if got := s.Greedy(p); !sameSolution(got, want) {
				t.Fatalf("trial %d (n=%d): reused Greedy %+v, fresh %+v", trial, p.N(), got, want)
			}
			continue
		}
		cfg := BBConfig{MaxNodes: 1 + rng.Intn(400)}
		if trial%7 == 0 {
			cfg.Deadline = time.Unix(1, 0) // long expired: the greedy fallback
		}
		want, err := new(Solver).BranchBound(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.BranchBound(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(got, want) {
			t.Fatalf("trial %d (n=%d, m=%d): reused BranchBound %+v, fresh %+v", trial, p.N(), len(p.Constraints), got, want)
		}
	}
}

// TestSolverAllocs pins what a warm Solver costs: nothing. A Phase-1
// solve each slot on a pool worker's Solver allocates no search scratch
// and no X, where a fresh Solver each solve pays for both.
func TestSolverAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := phase1Shaped(stats.NewRNG(3), 200, resolutionWeights)
	var s Solver
	solve := func() {
		if _, err := s.BranchBound(p, BBConfig{}); err != nil {
			t.Fatal(err)
		}
		s.Greedy(p)
	}
	solve()
	if allocs := testing.AllocsPerRun(20, solve); allocs != 0 {
		t.Fatalf("a warm Solver's BranchBound + Greedy allocate %.1f times, want 0", allocs)
	}
}
