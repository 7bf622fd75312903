package ilp

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpvs/internal/stats"
)

// pinnedGolden holds what BranchBound returned for every pinnedFamily
// instance at commit 5d6406f, the last build whose bound was the
// Dantzig bound alone. It is the reference the cardinality bound is
// held to: a search that build completed must return the same bits.
// RECORD_PARENT_GOLDEN=1 rewrites the file from the build under test —
// only meaningful from a checkout of the commit being pinned, with this
// file copied in.
const pinnedGolden = "branchbound_parent.golden"

type pinnedInstance struct {
	name string
	p    *Problem
}

// pinnedFamily is the fixed-seed differential corpus: two-constraint
// problems in the shapes where the cardinality bound acts (tied
// weights, a few weight classes, capacity an exact multiple of the
// weight, zero-weight items, zero capacity) next to plain random ones
// where it should change nothing. Values are continuous except in the
// "tiedvalues" kind, where sums are exact and many selections tie.
func pinnedFamily() []pinnedInstance {
	rng := stats.NewRNG(20261001)
	var out []pinnedInstance
	add := func(kind string, p *Problem) {
		out = append(out, pinnedInstance{fmt.Sprintf("%s/%03d/n=%d", kind, len(out), p.N()), p})
	}
	values := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Uniform(0.1, 10)
		}
		return v
	}
	// classRow draws each weight from `classes` distinct levels and a
	// capacity admitting between a fifth and two thirds of the total.
	classRow := func(n, classes int) Constraint {
		levels := make([]float64, classes)
		for i := range levels {
			levels[i] = rng.Uniform(0.5, 5)
		}
		c := Constraint{Weights: make([]float64, n)}
		total := 0.0
		for i := range c.Weights {
			c.Weights[i] = levels[rng.Intn(classes)]
			total += c.Weights[i]
		}
		c.Capacity = total * rng.Uniform(0.2, 0.66)
		return c
	}
	size := func() int { return 8 + rng.Intn(53) } // 8..60

	for i := 0; i < 60; i++ {
		n := size()
		add("tied", &Problem{Values: values(n), Constraints: []Constraint{classRow(n, 1), classRow(n, 1)}})
	}
	for classes := 2; classes <= 4; classes++ {
		for i := 0; i < 40; i++ {
			n := size()
			add(fmt.Sprintf("classes%d", classes),
				&Problem{Values: values(n), Constraints: []Constraint{classRow(n, classes), classRow(n, 1)}})
		}
	}
	// Capacity exactly k*w: the fill lands on the boundary the admission
	// slack exists for. 0.1 and 0.7 are not binary fractions, so k*w and
	// k subtractions of w disagree in the last bits.
	for i := 0; i < 40; i++ {
		n := size()
		w := []float64{2.25, 0.1, 94, 0.7}[i%4]
		g := Constraint{Weights: make([]float64, n), Capacity: float64(1+rng.Intn(n)) * w}
		for j := range g.Weights {
			g.Weights[j] = w
		}
		add("exact", &Problem{Values: values(n), Constraints: []Constraint{g, classRow(n, 1+i%2)}})
	}
	for i := 0; i < 40; i++ {
		n := size()
		p := &Problem{Values: values(n), Constraints: []Constraint{classRow(n, 1+i%3), classRow(n, 1)}}
		for j := 0; j < n; j++ {
			if rng.Intn(5) == 0 {
				p.Constraints[rng.Intn(2)].Weights[j] = 0
			}
		}
		add("zeroweight", p)
	}
	for i := 0; i < 20; i++ {
		n := size()
		p := &Problem{Values: values(n), Constraints: []Constraint{classRow(n, 2), classRow(n, 1)}}
		p.Constraints[i%2].Capacity = 0
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				p.Constraints[i%2].Weights[j] = 0
			}
		}
		add("zerocapacity", p)
	}
	for i := 0; i < 30; i++ {
		n := size()
		p := &Problem{Values: make([]float64, n), Constraints: []Constraint{classRow(n, 1+i%3), classRow(n, 1)}}
		for j := range p.Values {
			p.Values[j] = 0.5 * float64(1+rng.Intn(5))
		}
		add("tiedvalues", p)
	}
	for i := 0; i < 40; i++ {
		add("random", randomProblem(rng, size(), 2))
	}
	for i := 0; i < 3; i++ {
		add("tied", &Problem{Values: values(200), Constraints: []Constraint{classRow(200, 1), classRow(200, 1)}})
		add("classes4", &Problem{Values: values(200), Constraints: []Constraint{classRow(200, 4), classRow(200, 1)}})
		add("random", randomProblem(rng, 200, 2))
	}
	return out
}

// pinnedResult is one golden line.
type pinnedResult struct {
	x       string // one '0'/'1' per item
	value   uint64 // math.Float64bits
	optimal bool
	nodes   int
}

func pinnedResultOf(sol Solution) pinnedResult {
	var x strings.Builder
	for _, on := range sol.X {
		if on {
			x.WriteByte('1')
		} else {
			x.WriteByte('0')
		}
	}
	return pinnedResult{x: x.String(), value: math.Float64bits(sol.Value), optimal: sol.Optimal, nodes: sol.Nodes}
}

func (r pinnedResult) line(name string) string {
	return fmt.Sprintf("%s x=%s value=%016x optimal=%t nodes=%d\n", name, r.x, r.value, r.optimal, r.nodes)
}

func readPinnedGolden(t *testing.T) map[string]pinnedResult {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", pinnedGolden))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]pinnedResult)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var name string
		var r pinnedResult
		if _, err := fmt.Sscanf(sc.Text(), "%s x=%s value=%x optimal=%t nodes=%d", &name, &r.x, &r.value, &r.optimal, &r.nodes); err != nil {
			t.Fatalf("golden line %q: %v", sc.Text(), err)
		}
		out[name] = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBranchBoundParentPinned holds the search to the recorded parent:
// wherever the parent proved optimality the assignment and the value
// bits are identical and the proof still stands; where the parent
// stopped at the node cap the value may only rise, and the instance is
// listed. Nowhere does the search take more nodes than the parent did.
func TestBranchBoundParentPinned(t *testing.T) {
	family := pinnedFamily()
	if len(family) < 300 {
		t.Fatalf("family has %d instances, want at least 300", len(family))
	}
	if os.Getenv("RECORD_PARENT_GOLDEN") != "" {
		var b strings.Builder
		for _, inst := range family {
			sol, err := new(Solver).BranchBound(inst.p, BBConfig{})
			if err != nil {
				t.Fatalf("%s: %v", inst.name, err)
			}
			b.WriteString(pinnedResultOf(sol).line(inst.name))
		}
		if err := os.WriteFile(filepath.Join("testdata", pinnedGolden), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readPinnedGolden(t)
	if len(golden) != len(family) {
		t.Fatalf("golden has %d instances, family %d", len(golden), len(family))
	}
	capped, nowProven := 0, 0
	for _, inst := range family {
		want, ok := golden[inst.name]
		if !ok {
			t.Fatalf("%s: not in the golden", inst.name)
		}
		sol, err := new(Solver).BranchBound(inst.p, BBConfig{})
		if err != nil {
			t.Fatalf("%s: %v", inst.name, err)
		}
		got := pinnedResultOf(sol)
		if got.nodes > want.nodes {
			t.Errorf("%s: %d nodes, parent took %d", inst.name, got.nodes, want.nodes)
		}
		if want.optimal {
			if got.x != want.x || got.value != want.value || !got.optimal {
				t.Errorf("%s: diverged from a search the parent completed:\n got  %s want %s",
					inst.name, got.line(inst.name), want.line(inst.name))
			}
			continue
		}
		capped++
		if sol.Value < math.Float64frombits(want.value) {
			t.Errorf("%s: value %v below the parent's capped incumbent %v",
				inst.name, sol.Value, math.Float64frombits(want.value))
		}
		if !inst.p.Feasible(sol.X) {
			t.Errorf("%s: infeasible", inst.name)
		}
		if got.optimal {
			nowProven++
		}
		t.Logf("%s: parent node-capped at value %v; now optimal=%t value %v (%+.3g) x %s in %d nodes",
			inst.name, math.Float64frombits(want.value), got.optimal, sol.Value,
			sol.Value-math.Float64frombits(want.value), sameOrChanged(got.x == want.x), got.nodes)
	}
	t.Logf("%d instances; parent proved %d, node-capped %d of which %d are now proven",
		len(family), len(family)-capped, capped, nowProven)
}

func sameOrChanged(same bool) string {
	if same {
		return "unchanged"
	}
	return "changed"
}
