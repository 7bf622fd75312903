package scheduler

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lpvs/internal/edge"
	"lpvs/internal/stats"
	"lpvs/internal/testenv"
)

// phase2FullProbe is Phase-2 as it was before candidates were pruned:
// every outsider probes every insider, the delta written out in full.
// It is the reference TestPhase2PruneMatchesFullProbe holds phase2 to.
func phase2FullProbe(s *Scheduler, eligible []placed, x []bool) (swaps int, swapIn, swapOut []bool) {
	var in, out []placed
	usedG, usedH := 0.0, 0.0
	for _, e := range eligible {
		if x[e.i] {
			in = append(in, e)
			usedG += e.p.g
			usedH += e.p.h
		} else {
			out = append(out, e)
		}
	}
	slices.SortStableFunc(out, moreAnxiousFirst)
	slices.SortStableFunc(in, lessAnxiousFirst)
	candIn, curOut := make([]bool, len(out)), make([]bool, len(in))
	swapIn, swapOut = make([]bool, len(x)), make([]bool, len(x))
	for pass := 0; pass < s.cfg.MaxSwapPasses; pass++ {
		improved := false
		for ci, cand := range out {
			if candIn[ci] {
				continue
			}
			for cj, cur := range in {
				if curOut[cj] {
					continue
				}
				delta := (cand.p.obj1 - cand.p.obj0) + (cur.p.obj0 - cur.p.obj1)
				if delta >= -1e-12 {
					continue
				}
				if s.cfg.Server != nil {
					ng := usedG - cur.p.g + cand.p.g
					nh := usedH - cur.p.h + cand.p.h
					if !s.cfg.Server.Fits(ng, nh) {
						continue
					}
					usedG, usedH = usedG-cur.p.g+cand.p.g, usedH-cur.p.h+cand.p.h
				}
				candIn[ci], curOut[cj] = true, true
				x[cand.i], x[cur.i] = true, false
				swapIn[cand.i], swapOut[cur.i] = true, true
				swaps++
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return swaps, swapIn, swapOut
}

// nanAnxiety is a user-supplied phi that answers NaN: every objective
// term of its device is NaN, and so is every delta it takes part in.
type nanAnxiety struct{}

func (nanAnxiety) Anxiety(float64) float64 { return math.NaN() }

// TestPhase2PruneMatchesFullProbe: skipping a candidate whose cost plus
// the smallest live gain cannot pass the improvement test changes
// nothing — selection, swap count and both swap-event vectors equal the
// full probe's on instances with many swaps, deltas sitting exactly on
// and one ulp either side of the -1e-12 threshold, a capacity that
// refuses most swaps the objective would take, and NaN objectives from
// a custom anxiety model (which fail ">= -1e-12" and go on to Fits).
func TestPhase2PruneMatchesFullProbe(t *testing.T) {
	type instance struct {
		name    string
		cfg     Config
		plans   []plan
		x       []bool
		minSwap int
	}
	// synthetic builds n eligible devices, the first half selected, with
	// objective terms drawn by draw(i, selected).
	synthetic := func(n int, draw func(p *plan, i int, selected bool)) ([]plan, []bool) {
		reqs := make([]Request, n)
		plans := make([]plan, n)
		x := make([]bool, n)
		for i := range plans {
			reqs[i].DeviceID = fmt.Sprintf("d%04d", i)
			x[i] = i < n/2
			plans[i] = plan{req: &reqs[i], eligible: true}
			draw(&plans[i], i, x[i])
		}
		return plans, x
	}
	var cases []instance

	for seed := int64(1); seed <= 5; seed++ {
		rng := stats.NewRNG(seed)
		plans, x := synthetic(400, func(p *plan, _ int, _ bool) {
			p.anx = float64(rng.Intn(50)) / 50
			p.obj0 = rng.Uniform(0, 2)
			p.obj1 = p.obj0 + rng.Uniform(-1, 0.2)
		})
		cases = append(cases, instance{
			name: fmt.Sprintf("swaps/seed=%d", seed), cfg: Config{Lambda: 1, MaxSwapPasses: 3},
			plans: plans, x: x, minSwap: 20,
		})
	}

	// Costs and gains from a set whose pairwise sums land on the
	// threshold, one ulp below it (a swap) and one ulp above (none).
	const thr = -1e-12
	edgeVals := []float64{
		0, math.Copysign(0, -1), thr, math.Nextafter(thr, -1), math.Nextafter(thr, 0),
		thr / 2, math.Nextafter(thr/2, -1), math.Nextafter(thr/2, 0), -thr, 1e-12 + 1e-28,
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := stats.NewRNG(100 + seed)
		plans, x := synthetic(200, func(p *plan, _ int, selected bool) {
			p.anx = float64(rng.Intn(4))
			v := edgeVals[rng.Intn(len(edgeVals))]
			if selected {
				p.obj0, p.obj1 = v, 0 // gain = v
			} else {
				p.obj0, p.obj1 = 0, v // cost = v
			}
		})
		cases = append(cases, instance{
			name: fmt.Sprintf("threshold-ties/seed=%d", seed), cfg: Config{Lambda: 1, MaxSwapPasses: 4},
			plans: plans, x: x, minSwap: 1,
		})
	}

	for seed := int64(1); seed <= 5; seed++ {
		rng := stats.NewRNG(200 + seed)
		// The selected half fills the server exactly; a swap fits only
		// when the candidate is no dearer than the insider it replaces.
		plans, x := synthetic(300, func(p *plan, _ int, selected bool) {
			p.anx = rng.Uniform(0, 1)
			p.obj0 = rng.Uniform(0, 2)
			p.obj1 = p.obj0 + rng.Uniform(-1, 0.1)
			p.g = float64(1 + rng.Intn(4))
			p.h = 100 * p.g
		})
		used := 0.0
		for i := range plans {
			if x[i] {
				used += plans[i].g
			}
		}
		cases = append(cases, instance{
			name: fmt.Sprintf("capacity-binding/seed=%d", seed),
			cfg: Config{Lambda: 1, MaxSwapPasses: 3,
				Server: &edge.Server{ComputeCapacity: used, StorageCapacityMB: 100 * used}},
			plans: plans, x: x, minSwap: 5,
		})
	}

	for seed := int64(1); seed <= 3; seed++ {
		// Real compacted plans, every seventh device with a phi that
		// answers NaN, on either side of the selection.
		cfg := Config{Lambda: 1, MaxSwapPasses: 3}
		s := mustScheduler(t, cfg)
		reqs := makeBigCluster(t, 210, seed)
		plans := make([]plan, len(reqs))
		x := make([]bool, len(reqs))
		for i := range reqs {
			if i%7 == 3 {
				reqs[i].Anxiety = nanAnxiety{}
			}
			if err := s.buildPlan(&reqs[i], &plans[i]); err != nil {
				t.Fatal(err)
			}
			x[i] = i%3 == 0
		}
		cases = append(cases, instance{name: fmt.Sprintf("nan-anxiety/seed=%d", seed), cfg: cfg, plans: plans, x: x})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustScheduler(t, tc.cfg)
			var eligible []placed
			for i := range tc.plans {
				if tc.plans[i].eligible {
					eligible = append(eligible, placed{p: &tc.plans[i], i: i})
				}
			}
			wantX := slices.Clone(tc.x)
			wantSwaps, wantIn, wantOut := phase2FullProbe(s, eligible, wantX)
			if wantSwaps < tc.minSwap {
				t.Fatalf("the full probe made %d swaps, want an instance with at least %d", wantSwaps, tc.minSwap)
			}
			gotX := slices.Clone(tc.x)
			sc := planScratch{eligible: eligible}
			gotSwaps := s.phase2(&sc, gotX)
			if gotSwaps != wantSwaps {
				t.Fatalf("%d swaps, the full probe makes %d", gotSwaps, wantSwaps)
			}
			if !slices.Equal(gotX, wantX) {
				t.Fatal("selection differs from the full probe's")
			}
			if !slices.Equal(sc.swapIn, wantIn) || !slices.Equal(sc.swapOut, wantOut) {
				t.Fatal("swap events differ from the full probe's")
			}
		})
	}
}

// TestPhase2ScratchAllocs: the per-insider gains live in the scratch
// like the rest of Phase-2's working set, so a second call over the same
// populations allocates nothing.
func TestPhase2ScratchAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := mustScheduler(t, Config{Lambda: 1, MaxSwapPasses: 2})
	reqs := make([]Request, 500)
	plans := make([]plan, len(reqs))
	sc := planScratch{}
	x0 := make([]bool, len(reqs))
	for i := range plans {
		reqs[i].DeviceID = fmt.Sprintf("d%04d", i)
		plans[i] = plan{req: &reqs[i], anx: float64(i%9) / 9, obj0: 1, obj1: 1 - float64(i%5)/10}
		sc.eligible = append(sc.eligible, placed{p: &plans[i], i: i})
		x0[i] = i%2 == 0
	}
	x := make([]bool, len(reqs))
	copy(x, x0)
	s.phase2(&sc, x)
	if allocs := testing.AllocsPerRun(10, func() {
		copy(x, x0)
		s.phase2(&sc, x)
	}); allocs != 0 {
		t.Fatalf("a warm phase2 allocates %.1f times per call, want 0", allocs)
	}
}
