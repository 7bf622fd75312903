package ilp

import (
	"testing"
	"time"

	"lpvs/internal/stats"
)

// An already-expired deadline must degrade immediately: the solver
// returns exactly the greedy solution (never a partial incumbent),
// flagged Degraded, and re-running reproduces it bit for bit.
func TestBranchBoundExpiredDeadlineIsGreedy(t *testing.T) {
	rng := stats.NewRNG(7)
	past := time.Now().Add(-time.Hour)
	for i := 0; i < 60; i++ {
		p := randomProblem(rng, 2+rng.Intn(40), 1+rng.Intn(2))
		sol, err := new(Solver).BranchBound(p, BBConfig{Deadline: past})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !sol.Degraded {
			t.Fatalf("instance %d: expired deadline not flagged degraded", i)
		}
		if sol.Optimal {
			t.Fatalf("instance %d: degraded solution claims optimality", i)
		}
		if !p.Feasible(sol.X) {
			t.Fatalf("instance %d: degraded solution infeasible", i)
		}
		g := new(Solver).Greedy(p)
		if sol.Value != g.Value {
			t.Fatalf("instance %d: degraded value %v != greedy %v", i, sol.Value, g.Value)
		}
		for j := range sol.X {
			if sol.X[j] != g.X[j] {
				t.Fatalf("instance %d: degraded assignment differs from greedy at item %d", i, j)
			}
		}
		again, err := new(Solver).BranchBound(p, BBConfig{Deadline: past})
		if err != nil {
			t.Fatal(err)
		}
		for j := range sol.X {
			if sol.X[j] != again.X[j] {
				t.Fatalf("instance %d: degraded solve not deterministic at item %d", i, j)
			}
		}
	}
}

// A deadline generous enough for the search to finish must change
// nothing: same assignment, same value, same optimality as the
// unbounded solve, and no degradation flag.
func TestBranchBoundGenerousDeadlineUnchanged(t *testing.T) {
	rng := stats.NewRNG(11)
	for i := 0; i < 60; i++ {
		p := randomProblem(rng, 2+rng.Intn(30), 1+rng.Intn(2))
		plain, err := new(Solver).BranchBound(p, BBConfig{})
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := new(Solver).BranchBound(p, BBConfig{Deadline: time.Now().Add(time.Hour)})
		if err != nil {
			t.Fatal(err)
		}
		if bounded.Degraded {
			t.Fatalf("instance %d: generous deadline degraded", i)
		}
		if bounded.Value != plain.Value || bounded.Optimal != plain.Optimal {
			t.Fatalf("instance %d: deadline changed outcome: %+v vs %+v", i, bounded, plain)
		}
		for j := range plain.X {
			if plain.X[j] != bounded.X[j] {
				t.Fatalf("instance %d: deadline changed assignment at item %d", i, j)
			}
		}
	}
}
