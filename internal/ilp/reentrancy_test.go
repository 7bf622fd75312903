package ilp

import (
	"math"
	"sync"
	"testing"
)

// TestSolversReentrant pins the reentrancy contract the scheduler's
// worker pool depends on: many goroutines solving the *same* Problem
// value concurrently must race-cleanly produce identical results. Run
// under -race (make check does) this fails on any shared mutable state
// sneaking into the solvers.
func TestSolversReentrant(t *testing.T) {
	p := &Problem{
		Values: []float64{9, 7, 6, 5, 4, 3, 2.5, 2, 1.5, 1, 0.5, 0.25},
		Constraints: []Constraint{
			{Weights: []float64{3, 2, 4, 1, 3, 2, 1, 2, 1, 3, 1, 2}, Capacity: 9},
			{Weights: []float64{1, 4, 2, 3, 1, 2, 3, 1, 2, 1, 1, 1}, Capacity: 8},
		},
	}
	ref, err := new(Solver).BranchBound(p, BBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	refGreedy := new(Solver).Greedy(p)

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				sol, err := new(Solver).BranchBound(p, BBConfig{})
				if err != nil {
					errs[g] = err
					return
				}
				if math.Abs(sol.Value-ref.Value) > 1e-12 || !sol.Optimal {
					t.Errorf("goroutine %d: value %v optimal=%t, want %v optimal=true",
						g, sol.Value, sol.Optimal, ref.Value)
					return
				}
				gr := new(Solver).Greedy(p)
				if math.Abs(gr.Value-refGreedy.Value) > 1e-12 {
					t.Errorf("goroutine %d: greedy value %v, want %v", g, gr.Value, refGreedy.Value)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
