package ilp

import (
	"math"
	"slices"
	"time"
)

// Solution is the result of a 0/1 solver.
type Solution struct {
	X     []bool
	Value float64
	// Optimal reports whether the solver proved optimality (branch-and-
	// bound without hitting its node limit).
	Optimal bool
	// Nodes counts branch-and-bound nodes explored (0 for greedy).
	Nodes int
	// Degraded reports that the Deadline expired before the search could
	// finish and the always-feasible greedy solution was returned instead
	// of the (timing-dependent, hence non-deterministic) search incumbent.
	// A degraded solution is a pure function of the problem: re-running
	// Greedy on the same problem reproduces it bit for bit.
	Degraded bool
}

// BBConfig tunes the branch-and-bound solver.
type BBConfig struct {
	// MaxNodes caps the search; when exceeded the best incumbent is
	// returned with Optimal=false. Zero means the default.
	MaxNodes int
	// Deadline, when non-zero, bounds the search wall clock (the anytime
	// mode): if it expires mid-search the solver abandons the tree and
	// returns the deterministic greedy solution with Solution.Degraded
	// set, never the partial incumbent — a timing-dependent incumbent
	// would make equal problems yield unequal solutions, breaking the
	// audit-replay contract. A search that completes before the deadline
	// returns exactly what an unbounded search would.
	Deadline time.Time
}

// DefaultMaxNodes bounds the search effort. It is a backstop, not a
// typical cost: instances with distinct weights close the gap within a
// few thousand nodes, and the tied-weight shapes Phase-1 produces (one
// storage weight per VC, one compute weight per display resolution) are
// closed by the cardinality bound, usually at the root. A search that
// does reach the cap returns its incumbent with Optimal=false.
const DefaultMaxNodes = 200_000

// boundTol is the search's one numeric slack. A subtree is abandoned
// when its upper bound does not beat the incumbent by more than this,
// and an item is admitted when it overshoots the remaining capacity by
// no more than this (the overshoot does not accumulate: remaining never
// drops below -boundTol). The cardinality bound counts fitting items
// under the same admission rule, so it never counts fewer items than
// the search itself could take.
const boundTol = 1e-9

// deadlineCheckMask throttles the wall-clock polling of the anytime
// mode: an armed deadline is checked once every deadlineCheckMask+1
// nodes, so the per-node overhead is a mask-and-branch.
const deadlineCheckMask = 0x3FF

// Solver is the working memory of Greedy and BranchBound: the
// branching and bound orders, the per-constraint capacity left, the
// search's current assignment and its greedy incumbent, and the X of
// the Solution it returns. A caller that solves every slot keeps one
// (the scheduler: one per pool worker) and reuses it, so a warm solve
// allocates nothing; every slice is resized to the problem and
// overwritten before it is read. The price is a lifetime rule: a
// Solution's X is the Solver's and valid until its next solve. The
// zero value is ready; a Solver is not safe for concurrent use, but a
// solve only reads its Problem, so solvers may solve the same Problem
// value at once (reentrancy_test.go pins it under the race detector).
type Solver struct {
	// Shared by Greedy and BranchBound (grow).
	order     []int // branching order: decreasing value density
	density   []float64
	remaining []float64
	x         []bool // the returned Solution.X

	// BranchBound only (growSearch). Every index order is sorted once
	// per solve, so a bound evaluation is a linear scan that skips the
	// items the current branch has already decided (pos[item] < k).
	pos         []int   // pos[item] = its index in the branching order
	consOrder   [][]int // per constraint: decreasing value/weight (Dantzig bound)
	weightOrder [][]int // per constraint: increasing weight (cardinality bound)
	valueOrder  []int   // decreasing value, ties in branching order (cardinality bound)
	suffix      []float64
	cur         []bool
	greedyX     []bool

	// The search in progress; p is cleared when it returns.
	p                 *Problem
	best              float64
	nodes, maxNodes   int
	deadline          time.Time
	hasDeadline       bool
	hitLimit, expired bool
}

// grow resizes the slices both solvers use for an n-item, m-constraint
// problem.
func (s *Solver) grow(n, m int) {
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.density = make([]float64, n)
		s.x = make([]bool, n)
	}
	s.order = s.order[:n]
	s.density = s.density[:n]
	s.x = s.x[:n]
	if cap(s.remaining) < m {
		s.remaining = make([]float64, m)
	}
	s.remaining = s.remaining[:m]
}

// growSearch resizes the slices only the branch-and-bound search uses;
// Greedy never calls it, so it pays for none of the bound orders.
func (s *Solver) growSearch(n, m int) {
	if cap(s.pos) < n {
		s.pos = make([]int, n)
		s.valueOrder = make([]int, n)
		s.cur = make([]bool, n)
		s.greedyX = make([]bool, n)
		s.suffix = make([]float64, n+1)
	}
	s.pos = s.pos[:n]
	s.valueOrder = s.valueOrder[:n]
	s.cur = s.cur[:n]
	s.greedyX = s.greedyX[:n]
	s.suffix = s.suffix[:n+1]
	s.consOrder = growOrders(s.consOrder, n, m)
	s.weightOrder = growOrders(s.weightOrder, n, m)
}

// growOrders resizes a per-constraint family of index orders to m rows
// of n entries, reusing whatever capacity the rows already have.
func growOrders(orders [][]int, n, m int) [][]int {
	for cap(orders) < m {
		orders = append(orders[:cap(orders)], nil)
	}
	orders = orders[:m]
	for j := range orders {
		if cap(orders[j]) < n {
			orders[j] = make([]int, n)
		}
		orders[j] = orders[j][:n]
	}
	return orders
}

// BranchBound solves the 0/1 problem exactly (up to the node limit) by
// depth-first branch and bound. Items are explored in value-density
// order; the upper bound at each node is the tightest of the suffix
// sum, the per-constraint fractional (Dantzig) knapsack bounds and the
// cardinality bound (see cardinalityBound), each of which is a valid
// relaxation of the multi-constraint problem. The greedy solution
// primes the incumbent so pruning is effective immediately. The
// Solution's X is valid until s solves again.
func (s *Solver) BranchBound(p *Problem, cfg BBConfig) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	n := p.N()
	s.grow(n, len(p.Constraints))
	s.growSearch(n, len(p.Constraints))

	// Density order: value per unit of normalised weight across
	// constraints. Items that fit nowhere sort last.
	order := s.order
	densityOrderInto(p, order, s.density)
	for k, item := range order {
		s.pos[item] = k
	}
	s.sortBoundOrders(p)

	// Greedy incumbent, computed over the shared density order with the
	// exact admission rule of Greedy().
	greedyValue := greedyInto(p, order, s.remaining, s.greedyX)

	// suffix[k] = total value of items order[k:] — a cheap extra bound
	// component.
	suffix := s.suffix
	suffix[n] = 0
	for k := n - 1; k >= 0; k-- {
		suffix[k] = suffix[k+1] + p.Values[order[k]]
	}

	// One depth-first search from the greedy incumbent. s.x holds the
	// incumbent assignment (meaningless once expired: the greedy
	// solution replaces it).
	copy(s.x, s.greedyX)
	s.p, s.best = p, greedyValue
	s.nodes, s.maxNodes = 0, maxNodes
	s.deadline, s.hasDeadline = cfg.Deadline, !cfg.Deadline.IsZero()
	s.hitLimit, s.expired = false, false
	defer func() { s.p = nil }()
	// An expired deadline abandons the search for the deterministic
	// greedy solution — the anytime fallback.
	if s.hasDeadline && !time.Now().Before(cfg.Deadline) {
		return Solution{X: s.x, Value: greedyValue, Nodes: 0, Degraded: true}, nil
	}
	for j, c := range p.Constraints {
		s.remaining[j] = c.Capacity
	}
	clear(s.cur)
	s.dfs(0, 0)
	if s.expired {
		copy(s.x, s.greedyX)
		return Solution{X: s.x, Value: greedyValue, Nodes: s.nodes, Degraded: true}, nil
	}
	return Solution{X: s.x, Value: s.best, Optimal: !s.hitLimit, Nodes: s.nodes}, nil
}

// dfs explores the subtree below branching position k, the items
// before it decided as s.cur holds them, for a selection worth value.
func (s *Solver) dfs(k int, value float64) {
	if s.hitLimit || s.expired {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.hitLimit = true
		return
	}
	if s.hasDeadline && s.nodes&deadlineCheckMask == 0 && time.Now().After(s.deadline) {
		s.expired = true
		return
	}
	if value > s.best {
		s.best = value
		copy(s.x, s.cur)
	}
	if k == len(s.order) {
		return
	}
	p := s.p
	// Bound: the integer optimum of the subtree cannot exceed the
	// fractional knapsack optimum of any one constraint over the
	// remaining items, nor the best values of as many items as can
	// still fit. The cardinality term is evaluated only when the
	// cheaper ones fail to prune; the node is cut exactly when the
	// minimum of all three is within boundTol of the incumbent.
	ub := value + s.suffix[k]
	for j := range p.Constraints {
		b := value + s.fractionalBound(p, j, k)
		if b < ub {
			ub = b
		}
	}
	if ub <= s.best+boundTol || value+s.cardinalityBound(p, k) <= s.best+boundTol {
		return
	}

	item := s.order[k]
	// Branch 1: take the item if it fits.
	fits := true
	for j, c := range p.Constraints {
		if c.Weights[item] > s.remaining[j]+boundTol {
			fits = false
			break
		}
	}
	if fits {
		for j, c := range p.Constraints {
			s.remaining[j] -= c.Weights[item]
		}
		s.cur[item] = true
		s.dfs(k+1, value+p.Values[item])
		s.cur[item] = false
		for j, c := range p.Constraints {
			s.remaining[j] += c.Weights[item]
		}
	}
	// Branch 2: skip the item.
	s.dfs(k+1, value)
}

// sortBoundOrders fills the index orders the bounds scan; order must
// already hold the branching order.
func (s *Solver) sortBoundOrders(p *Problem) {
	for j, c := range p.Constraints {
		idx := s.consOrder[j]
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(ia, ib int) int {
			wa, wb := c.Weights[ia], c.Weights[ib]
			// Zero-weight items are free under this constraint: first.
			if wa == 0 || wb == 0 {
				return before(wa == 0 && wb != 0)
			}
			return before(p.Values[ia]*wb > p.Values[ib]*wa)
		})
		byWeight := s.weightOrder[j]
		for i := range byWeight {
			byWeight[i] = i
		}
		slices.SortStableFunc(byWeight, func(a, b int) int { return before(c.Weights[a] < c.Weights[b]) })
	}
	// Stable over the branching order, so equal values keep it.
	byValue := s.valueOrder
	copy(byValue, s.order)
	slices.SortStableFunc(byValue, func(a, b int) int { return before(p.Values[a] > p.Values[b]) })
}

// before is a stable sort's comparison for a strict "a sorts before b".
// slices.SortStableFunc only ever asks whether the result is below
// zero, in the same sequence as sort.SliceStable asks its less
// function (both are one generated merge sort), so sorting with it
// reproduces sort.SliceStable's order exactly — ties, and products
// whose rounding makes them intransitive, included — without
// sort.SliceStable's reflection and allocations.
func before(first bool) int {
	if first {
		return -1
	}
	return 0
}

// fractionalBound computes the Dantzig bound for constraint j over the
// still-undecided items (branching position >= k): fill greedily in the
// constraint's pre-sorted density order, taking the last item
// fractionally. Items with zero weight in the constraint are free under
// it and contribute fully. The result is the LP optimum of the single-
// constraint relaxation, hence a valid upper bound for the subtree.
func (s *Solver) fractionalBound(p *Problem, j, k int) float64 {
	c := p.Constraints[j]
	bound := 0.0
	remaining := s.remaining[j]
	for _, idx := range s.consOrder[j] {
		if s.pos[idx] < k {
			continue // already decided on this branch
		}
		w := c.Weights[idx]
		if w == 0 {
			bound += p.Values[idx]
			continue
		}
		if w <= remaining {
			bound += p.Values[idx]
			remaining -= w
		} else {
			bound += p.Values[idx] * remaining / w
			break
		}
	}
	return bound
}

// cardinalityBound bounds the subtree below branching position k by
// how many more items can be taken at all. Under constraint j no
// selection of undecided items outnumbers the lightest-first fill of
// the remaining capacity — any other selection of that size weighs at
// least as much — and the fill uses the search's own admission rule
// (overshoot up to boundTol allowed, zero-weight items free), so it
// counts every item the search could admit. With m the smallest such
// count over the constraints, the subtree adds at most the m largest
// undecided values.
//
// The Dantzig bound cannot see this when weights tie: it spends the
// capacity left after the last whole item on a fraction of the next
// one, so with equal weights it sits frac*value above a selection that
// is already optimal and the search enumerates ties until the node
// cap. Phase-1 rows are exactly that shape — the storage row has one
// weight per VC, the compute row one per display resolution.
func (s *Solver) cardinalityBound(p *Problem, k int) float64 {
	m := len(s.order) - k
	for j, c := range p.Constraints {
		remaining := s.remaining[j]
		fit := 0
		for _, idx := range s.weightOrder[j] {
			if fit == m {
				break // this constraint cannot lower the count further
			}
			if s.pos[idx] < k {
				continue
			}
			if w := c.Weights[idx]; w > 0 {
				if w > remaining+boundTol {
					break
				}
				remaining -= w
			}
			fit++
		}
		m = fit
	}
	bound := 0.0
	for _, idx := range s.valueOrder {
		if m == 0 {
			break
		}
		if s.pos[idx] < k {
			continue
		}
		bound += p.Values[idx]
		m--
	}
	return bound
}

// densityOrderInto sorts item indices by decreasing value density into
// order, where an item's weight is its maximum capacity-normalised
// weight across constraints (the binding dimension). density is scratch
// of the same length.
func densityOrderInto(p *Problem, order []int, density []float64) {
	n := p.N()
	for i := 0; i < n; i++ {
		w := 0.0
		for _, c := range p.Constraints {
			if c.Capacity > 0 {
				nw := c.Weights[i] / c.Capacity
				if nw > w {
					w = nw
				}
			} else if c.Weights[i] > 0 {
				w = math.Inf(1)
			}
		}
		if w <= 0 {
			density[i] = math.Inf(1) // free item: always first
		} else {
			density[i] = p.Values[i] / w
		}
	}
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return before(density[a] > density[b]) })
}

// greedyInto runs the greedy admission scan over a precomputed density
// order: take each item that fits. remaining is constraint scratch; x
// receives the assignment. Returns the accumulated value. This is the
// exact algorithm of Greedy, shared so BranchBound's incumbent is
// bit-identical to a standalone Greedy call.
func greedyInto(p *Problem, order []int, remaining []float64, x []bool) float64 {
	for j, c := range p.Constraints {
		remaining[j] = c.Capacity
	}
	for i := range x {
		x[i] = false
	}
	value := 0.0
	for _, i := range order {
		fits := true
		for j, c := range p.Constraints {
			if c.Weights[i] > remaining[j]+1e-12 {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for j, c := range p.Constraints {
			remaining[j] -= c.Weights[i]
		}
		x[i] = true
		value += p.Values[i]
	}
	return value
}

// Greedy builds a feasible solution in O(n log n): scan items in density
// order, taking each one that fits. It is the paper-agnostic baseline
// for the ablation study and the first incumbent of branch and bound.
// The Solution's X is valid until s solves again.
func (s *Solver) Greedy(p *Problem) Solution {
	s.grow(p.N(), len(p.Constraints))
	densityOrderInto(p, s.order, s.density)
	value := greedyInto(p, s.order, s.remaining, s.x)
	return Solution{X: s.x, Value: value, Optimal: false}
}

// BruteForce enumerates all assignments; usable only for tests with
// n <= 24.
func BruteForce(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	n := p.N()
	if n > 24 {
		return Solution{}, errors24
	}
	bestX := make([]bool, n)
	best := 0.0
	x := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			x[i] = mask&(1<<i) != 0
		}
		if !p.Feasible(x) {
			continue
		}
		if v := p.Value(x); v > best {
			best = v
			copy(bestX, x)
		}
	}
	return Solution{X: bestX, Value: best, Optimal: true}, nil
}

var errors24 = errBrute{}

type errBrute struct{}

func (errBrute) Error() string { return "ilp: brute force limited to 24 variables" }
