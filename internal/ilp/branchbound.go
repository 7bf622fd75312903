package ilp

import (
	"math"
	"sort"
	"sync"
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

// bbScratch is the per-call search state of BranchBound and Greedy,
// recycled through a sync.Pool so hot schedulers (one Phase-1 solve per
// virtual cluster per slot) do not re-allocate it every call. Only
// state that never escapes into a Solution lives here; incumbent X
// vectors are still allocated per call.
type bbScratch struct {
	// Shared by Greedy and BranchBound (grow).
	order     []int // branching order: decreasing value density
	density   []float64
	remaining []float64

	// BranchBound only (growSearch). Every index order is sorted once
	// per call, so a bound evaluation is a linear scan that skips the
	// items the current branch has already decided (pos[item] < k).
	pos         []int   // pos[item] = its index in the branching order
	consOrder   [][]int // per constraint: decreasing value/weight (Dantzig bound)
	weightOrder [][]int // per constraint: increasing weight (cardinality bound)
	valueOrder  []int   // decreasing value, ties in branching order (cardinality bound)
	suffix      []float64
	cur         []bool
	greedyX     []bool
}

var bbScratchPool = sync.Pool{New: func() any { return new(bbScratch) }}

// grow resizes the slices both solvers use for an n-item, m-constraint
// problem.
func (sc *bbScratch) grow(n, m int) {
	if cap(sc.order) < n {
		sc.order = make([]int, n)
		sc.density = make([]float64, n)
	}
	sc.order = sc.order[:n]
	sc.density = sc.density[:n]
	if cap(sc.remaining) < m {
		sc.remaining = make([]float64, m)
	}
	sc.remaining = sc.remaining[:m]
}

// growSearch resizes the slices only the branch-and-bound search uses;
// Greedy never calls it, so it pays for none of the bound orders.
func (sc *bbScratch) growSearch(n, m int) {
	if cap(sc.pos) < n {
		sc.pos = make([]int, n)
		sc.valueOrder = make([]int, n)
		sc.cur = make([]bool, n)
		sc.greedyX = make([]bool, n)
		sc.suffix = make([]float64, n+1)
	}
	sc.pos = sc.pos[:n]
	sc.valueOrder = sc.valueOrder[:n]
	sc.cur = sc.cur[:n]
	sc.greedyX = sc.greedyX[:n]
	sc.suffix = sc.suffix[:n+1]
	sc.consOrder = growOrders(sc.consOrder, n, m)
	sc.weightOrder = growOrders(sc.weightOrder, n, m)
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
// primes the incumbent so pruning is effective immediately.
//
// BranchBound is reentrant: it only reads the Problem, and all search
// state is per call (recycled through an internal sync.Pool, never
// shared between live calls), so concurrent solves — including of the
// same Problem value — are safe. The scheduler's worker pool relies on
// this; reentrancy_test.go pins it under the race detector.
func BranchBound(p *Problem, cfg BBConfig) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	n := p.N()

	sc := bbScratchPool.Get().(*bbScratch)
	defer bbScratchPool.Put(sc)
	sc.grow(n, len(p.Constraints))
	sc.growSearch(n, len(p.Constraints))

	// Density order: value per unit of normalised weight across
	// constraints. Items that fit nowhere sort last.
	order := sc.order
	densityOrderInto(p, order, sc.density)
	for k, item := range order {
		sc.pos[item] = k
	}
	sc.sortBoundOrders(p)

	// Greedy incumbent, computed over the shared density order with the
	// exact admission rule of Greedy().
	greedyX := sc.greedyX
	greedyValue := greedyInto(p, order, sc.remaining, greedyX)

	remaining := sc.remaining
	cur := sc.cur
	bestX := make([]bool, n)

	// suffix[k] = total value of items order[k:] — a cheap extra bound
	// component.
	suffix := sc.suffix
	suffix[n] = 0
	for k := n - 1; k >= 0; k-- {
		suffix[k] = suffix[k+1] + p.Values[order[k]]
	}

	hasDeadline := !cfg.Deadline.IsZero()

	// degrade abandons the search for the deterministic greedy solution —
	// the anytime fallback. bestX is recycled as the result buffer.
	degrade := func(nodes int) (Solution, error) {
		copy(bestX, greedyX)
		return Solution{X: bestX, Value: greedyValue, Optimal: false, Nodes: nodes, Degraded: true}, nil
	}
	if hasDeadline && !time.Now().Before(cfg.Deadline) {
		return degrade(0)
	}

	// One depth-first search from the greedy incumbent. bestX holds the
	// incumbent assignment (meaningless once expired: degrade replaces
	// it).
	copy(bestX, greedyX)
	best := greedyValue
	for j, c := range p.Constraints {
		remaining[j] = c.Capacity
	}
	clear(cur)
	nodes := 0
	hitLimit, expired := false, false
	var dfs func(k int, value float64)
	dfs = func(k int, value float64) {
		if hitLimit || expired {
			return
		}
		nodes++
		if nodes > maxNodes {
			hitLimit = true
			return
		}
		if hasDeadline && nodes&deadlineCheckMask == 0 && time.Now().After(cfg.Deadline) {
			expired = true
			return
		}
		if value > best {
			best = value
			copy(bestX, cur)
		}
		if k == n {
			return
		}
		// Bound: the integer optimum of the subtree cannot exceed the
		// fractional knapsack optimum of any one constraint over the
		// remaining items, nor the best values of as many items as
		// can still fit. The cardinality term is evaluated only when
		// the cheaper ones fail to prune; the node is cut exactly when
		// the minimum of all three is within boundTol of the incumbent.
		ub := value + suffix[k]
		for j := range p.Constraints {
			b := value + sc.fractionalBound(p, j, k)
			if b < ub {
				ub = b
			}
		}
		if ub <= best+boundTol || value+sc.cardinalityBound(p, k) <= best+boundTol {
			return
		}

		item := order[k]
		// Branch 1: take the item if it fits.
		fits := true
		for j, c := range p.Constraints {
			if c.Weights[item] > remaining[j]+boundTol {
				fits = false
				break
			}
		}
		if fits {
			for j, c := range p.Constraints {
				remaining[j] -= c.Weights[item]
			}
			cur[item] = true
			dfs(k+1, value+p.Values[item])
			cur[item] = false
			for j, c := range p.Constraints {
				remaining[j] += c.Weights[item]
			}
		}
		// Branch 2: skip the item.
		dfs(k+1, value)
	}
	dfs(0, 0)
	if expired {
		return degrade(nodes)
	}
	return Solution{X: bestX, Value: best, Optimal: !hitLimit, Nodes: nodes}, nil
}

// sortBoundOrders fills the index orders the bounds scan; order must
// already hold the branching order.
func (sc *bbScratch) sortBoundOrders(p *Problem) {
	for j, c := range p.Constraints {
		idx := sc.consOrder[j]
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ia, ib := idx[a], idx[b]
			wa, wb := c.Weights[ia], c.Weights[ib]
			// Zero-weight items are free under this constraint: first.
			if wa == 0 || wb == 0 {
				return wa == 0 && wb != 0
			}
			return p.Values[ia]*wb > p.Values[ib]*wa
		})
		byWeight := sc.weightOrder[j]
		for i := range byWeight {
			byWeight[i] = i
		}
		sort.SliceStable(byWeight, func(a, b int) bool { return c.Weights[byWeight[a]] < c.Weights[byWeight[b]] })
	}
	// Stable over the branching order, so equal values keep it.
	byValue := sc.valueOrder
	copy(byValue, sc.order)
	sort.SliceStable(byValue, func(a, b int) bool { return p.Values[byValue[a]] > p.Values[byValue[b]] })
}

// fractionalBound computes the Dantzig bound for constraint j over the
// still-undecided items (branching position >= k): fill greedily in the
// constraint's pre-sorted density order, taking the last item
// fractionally. Items with zero weight in the constraint are free under
// it and contribute fully. The result is the LP optimum of the single-
// constraint relaxation, hence a valid upper bound for the subtree.
func (sc *bbScratch) fractionalBound(p *Problem, j, k int) float64 {
	c := p.Constraints[j]
	bound := 0.0
	remaining := sc.remaining[j]
	for _, idx := range sc.consOrder[j] {
		if sc.pos[idx] < k {
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
func (sc *bbScratch) cardinalityBound(p *Problem, k int) float64 {
	m := len(sc.order) - k
	for j, c := range p.Constraints {
		remaining := sc.remaining[j]
		fit := 0
		for _, idx := range sc.weightOrder[j] {
			if fit == m {
				break // this constraint cannot lower the count further
			}
			if sc.pos[idx] < k {
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
	for _, idx := range sc.valueOrder {
		if m == 0 {
			break
		}
		if sc.pos[idx] < k {
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
	sort.SliceStable(order, func(a, b int) bool { return density[order[a]] > density[order[b]] })
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
// Like BranchBound it is reentrant: read-only on the Problem, all
// mutable state per call.
func Greedy(p *Problem) Solution {
	n := p.N()
	sc := bbScratchPool.Get().(*bbScratch)
	defer bbScratchPool.Put(sc)
	sc.grow(n, len(p.Constraints))
	densityOrderInto(p, sc.order, sc.density)
	x := make([]bool, n)
	value := greedyInto(p, sc.order, sc.remaining, x)
	return Solution{X: x, Value: value, Optimal: false}
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
