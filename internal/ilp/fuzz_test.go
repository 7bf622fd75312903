package ilp

import (
	"math"
	"testing"
)

// fuzzProblem decodes fuzz bytes into a problem of at most 16 items and
// 3 constraints. Every number is a small multiple of a per-row unit, so
// ties — equal weights, equal values, capacity an exact multiple of the
// weight, zero weights, zero capacity — are the common case rather than
// a measure-zero accident. Missing bytes read as zero.
func fuzzProblem(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%16
	m := 1 + next()%3
	// Quarters sum exactly; sevenths round, so equal selections can
	// differ in the last bits.
	valueUnit := []float64{0.25, 1.0 / 7}[next()%2]
	p := &Problem{Values: make([]float64, n)}
	for i := range p.Values {
		p.Values[i] = float64(next()%32) * valueUnit
	}
	for j := 0; j < m; j++ {
		// Multiples of 1, 2.25, 0.1 and 94, each correctly rounded on
		// its own: with tenths, weights that add up to the capacity on
		// paper miss it by a few ulps either way, the case the search's
		// admission slack exists for.
		unit := [][2]float64{{1, 1}, {9, 4}, {1, 10}, {94, 1}}[next()%4]
		multiple := func(k int) float64 { return float64(k) * unit[0] / unit[1] }
		c := Constraint{Weights: make([]float64, n), Capacity: multiple(next() % 40)}
		if next()%4 == 0 {
			c.Capacity += multiple(1) / 2
		}
		levels := 1 + next()%5
		for i := range c.Weights {
			c.Weights[i] = multiple(next() % levels)
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// FuzzBranchBound checks the exact search against full enumeration on
// small tie-heavy problems: proven optimal, the enumerated optimum's
// value, a feasible assignment whose value is the one reported.
func FuzzBranchBound(f *testing.F) {
	f.Add([]byte{}) // one free zero-value item; the shaped seeds are in testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		got, err := new(Solver).BranchBound(p, BBConfig{})
		if err != nil {
			t.Fatalf("generated problem rejected: %v", err)
		}
		want, err := BruteForce(p)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Optimal {
			t.Fatalf("not proven optimal after %d nodes on %d items", got.Nodes, p.N())
		}
		if math.Abs(got.Value-want.Value) > 1e-9 {
			t.Fatalf("value %v, enumerated optimum %v\n%+v", got.Value, want.Value, p)
		}
		if !p.Feasible(got.X) {
			t.Fatalf("infeasible assignment %v\n%+v", got.X, p)
		}
		if math.Abs(p.Value(got.X)-got.Value) > 1e-9 {
			t.Fatalf("reported value %v, assignment is worth %v", got.Value, p.Value(got.X))
		}
	})
}
