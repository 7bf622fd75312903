// Package ilp provides the optimisation substrate for LPVS Phase-1
// scheduling: an exact branch-and-bound solver for 0/1 integer programs
// (the role CPLEX/Gurobi play in the paper), a linear-time greedy
// heuristic used as its first incumbent, as the large-cluster and
// anytime fallback and as an ablation baseline, and the exhaustive
// BruteForce the tests hold both to.
//
// All problems are stated in maximisation knapsack form:
//
//	maximise   Values . x
//	subject to Weights_j . x <= Capacity_j   for every constraint j
//	           x binary
//
// Phase-1 of the paper's two-phase heuristic ("which devices get video
// transforming") is exactly this shape: maximising total energy saving
// under the edge server's compute and storage capacities.
//
// BranchBound prunes a subtree when an upper bound on it is within
// boundTol of the incumbent. The bound is the minimum of three valid
// relaxations: the sum of the undecided values, each constraint's
// Dantzig bound (its own LP optimum), and the cardinality bound — the
// largest values of as many undecided items as fit any constraint when
// taken lightest first. The last one is what closes Phase-1 problems,
// whose rows hold one weight per stream window or display resolution:
// with tied weights the Dantzig bound never rounds capacity/weight down
// to a whole item and cannot separate an optimal selection from its
// ties. The search admits an item that overshoots the remaining
// capacity by at most boundTol (absorbing rounding when a selection
// fills a capacity exactly); the cardinality count applies the same
// slack, so it never counts fewer items than the search can take and
// the bound stays valid for exactly the solutions the search explores.
package ilp

import (
	"errors"
	"fmt"
	"math"
)

// Constraint is one knapsack row: Weights . x <= Capacity.
type Constraint struct {
	Weights  []float64
	Capacity float64
}

// Problem is a 0/1 maximisation problem.
type Problem struct {
	Values      []float64
	Constraints []Constraint
}

// Validate reports whether the problem is well-formed: at least one
// item, consistent row lengths, non-negative values, weights, and
// capacities. Negative weights would break the knapsack bounds used by
// the branch-and-bound solver.
func (p *Problem) Validate() error {
	n := len(p.Values)
	if n == 0 {
		return errors.New("ilp: empty problem")
	}
	for i, v := range p.Values {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ilp: value %d is %v; must be finite and non-negative", i, v)
		}
	}
	for j, c := range p.Constraints {
		if len(c.Weights) != n {
			return fmt.Errorf("ilp: constraint %d has %d weights, want %d", j, len(c.Weights), n)
		}
		if c.Capacity < 0 || math.IsNaN(c.Capacity) {
			return fmt.Errorf("ilp: constraint %d capacity %v", j, c.Capacity)
		}
		for i, w := range c.Weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("ilp: constraint %d weight %d is %v; must be finite and non-negative", j, i, w)
			}
		}
	}
	return nil
}

// N returns the number of decision variables.
func (p *Problem) N() int { return len(p.Values) }

// Feasible reports whether a binary assignment satisfies every
// constraint.
func (p *Problem) Feasible(x []bool) bool {
	for _, c := range p.Constraints {
		sum := 0.0
		for i, on := range x {
			if on {
				sum += c.Weights[i]
			}
		}
		if sum > c.Capacity+1e-9 {
			return false
		}
	}
	return true
}

// Value returns the objective of a binary assignment.
func (p *Problem) Value(x []bool) float64 {
	sum := 0.0
	for i, on := range x {
		if on {
			sum += p.Values[i]
		}
	}
	return sum
}
