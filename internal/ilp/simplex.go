// Package ilp provides the optimisation substrate for LPVS Phase-1
// scheduling: a dense simplex solver for linear-programming relaxations,
// an exact branch-and-bound solver for 0/1 integer programs (the role
// CPLEX/Gurobi play in the paper), and a linear-time greedy heuristic
// used both as a warm start and as an ablation baseline.
//
// All problems are stated in maximisation knapsack form:
//
//	maximise   Values . x
//	subject to Weights_j . x <= Capacity_j   for every constraint j
//	           x binary (ILP) or 0 <= x <= 1 (LP relaxation)
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

// ErrUnbounded is returned by the simplex solver when the LP has no
// finite optimum.
var ErrUnbounded = errors.New("ilp: linear program is unbounded")

// ErrInfeasible is returned when no assignment satisfies the
// constraints.
var ErrInfeasible = errors.New("ilp: problem is infeasible")

// SimplexResult carries an LP optimum.
type SimplexResult struct {
	X     []float64
	Value float64
}

// Simplex maximises c.x subject to A x <= b and x >= 0 using the
// standard primal simplex method on a dense tableau with Bland's rule
// (guaranteeing termination). Problems arising from LPVS relaxations
// always have b >= 0, so a Phase-I procedure is unnecessary; a negative
// entry in b is rejected.
func Simplex(c []float64, a [][]float64, b []float64) (SimplexResult, error) {
	n := len(c)
	m := len(a)
	if n == 0 {
		return SimplexResult{}, errors.New("ilp: simplex with no variables")
	}
	if len(b) != m {
		return SimplexResult{}, fmt.Errorf("ilp: %d rows but %d right-hand sides", m, len(b))
	}
	for i, bi := range b {
		if bi < 0 {
			return SimplexResult{}, fmt.Errorf("ilp: negative right-hand side b[%d]=%v not supported", i, bi)
		}
		if len(a[i]) != n {
			return SimplexResult{}, fmt.Errorf("ilp: row %d has %d coefficients, want %d", i, len(a[i]), n)
		}
	}

	// Tableau: m rows x (n + m + 1) columns (variables, slacks, rhs),
	// plus the objective row.
	cols := n + m + 1
	tab := make([][]float64, m+1)
	for i := 0; i < m; i++ {
		tab[i] = make([]float64, cols)
		copy(tab[i], a[i])
		tab[i][n+i] = 1
		tab[i][cols-1] = b[i]
	}
	obj := make([]float64, cols)
	for j := 0; j < n; j++ {
		obj[j] = -c[j] // maximisation: negate into the canonical row
	}
	tab[m] = obj

	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}

	const eps = 1e-9
	for iter := 0; iter < 10000*(m+n); iter++ {
		// Bland's rule: entering variable = lowest index with a negative
		// reduced cost.
		pivotCol := -1
		for j := 0; j < cols-1; j++ {
			if tab[m][j] < -eps {
				pivotCol = j
				break
			}
		}
		if pivotCol < 0 {
			return extractSolution(tab, basis, n, cols), nil
		}
		// Ratio test, ties broken by lowest basis index (Bland).
		pivotRow := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][pivotCol] > eps {
				ratio := tab[i][cols-1] / tab[i][pivotCol]
				if ratio < bestRatio-eps ||
					(math.Abs(ratio-bestRatio) <= eps && pivotRow >= 0 && basis[i] < basis[pivotRow]) {
					bestRatio = ratio
					pivotRow = i
				}
			}
		}
		if pivotRow < 0 {
			return SimplexResult{}, ErrUnbounded
		}
		pivot(tab, pivotRow, pivotCol)
		basis[pivotRow] = pivotCol
	}
	return SimplexResult{}, errors.New("ilp: simplex iteration limit exceeded")
}

func pivot(tab [][]float64, row, col int) {
	p := tab[row][col]
	for j := range tab[row] {
		tab[row][j] /= p
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		for j := range tab[i] {
			tab[i][j] -= f * tab[row][j]
		}
	}
}

func extractSolution(tab [][]float64, basis []int, n, cols int) SimplexResult {
	res := SimplexResult{X: make([]float64, n)}
	for i, bv := range basis {
		if bv < n {
			res.X[bv] = tab[i][cols-1]
		}
	}
	res.Value = tab[len(tab)-1][cols-1]
	return res
}

// Relax01 solves the LP relaxation of a 0/1 problem (variables bounded
// by [0, 1]) with the simplex method, returning an upper bound on the
// integer optimum. The x <= 1 bounds are materialised as explicit rows,
// so this is intended for the moderate problem sizes where exact
// branch-and-bound runs; large instances use the knapsack bounds.
func Relax01(p *Problem) (SimplexResult, error) {
	if err := p.Validate(); err != nil {
		return SimplexResult{}, err
	}
	n := p.N()
	m := len(p.Constraints)
	a := make([][]float64, 0, m+n)
	b := make([]float64, 0, m+n)
	for _, c := range p.Constraints {
		row := make([]float64, n)
		copy(row, c.Weights)
		a = append(a, row)
		b = append(b, c.Capacity)
	}
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		row[i] = 1
		a = append(a, row)
		b = append(b, 1)
	}
	return Simplex(p.Values, a, b)
}
