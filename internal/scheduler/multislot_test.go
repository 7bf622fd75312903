package scheduler

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lpvs/internal/anxiety"
	"lpvs/internal/edge"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// planReference is the pre-fusion plan: the compacted scalars plus the
// per-chunk energy vectors the original separate walks ran over.
type planReference struct {
	plan
	dispFrac []float64 // per-chunk display energy as battery fraction
	baseFrac []float64 // per-chunk base (non-display) energy fraction
}

// buildPlanReference is the pre-fusion buildPlan, kept verbatim as the
// bit-level reference: separate walks for the chunk energies, the
// eligibility constraint, the two objective evaluations, the saving sum
// and the end-of-slot projection. The fused production implementation
// must reproduce every float of it exactly.
func buildPlanReference(s *Scheduler, r *Request) (*planReference, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	p := &planReference{plan: plan{req: r}}
	p.dispFrac = make([]float64, len(r.Chunks))
	p.baseFrac = make([]float64, len(r.Chunks))
	for k, c := range r.Chunks {
		watts, err := video.PowerRate(r.Display, c)
		if err != nil {
			return nil, fmt.Errorf("scheduler: request %s chunk %d: %w", r.DeviceID, k, err)
		}
		p.dispFrac[k] = watts * c.DurationSec / r.BatteryCapacityJ
		p.baseFrac[k] = r.BasePowerW * c.DurationSec / r.BatteryCapacityJ
	}
	p.g = edge.ComputeCost(r.Display.Resolution, r.Chunks, s.cfg.SlotSec)
	p.h = edge.StorageCost(r.Chunks)
	p.eligible = eligibleReference(p)
	p.obj0 = deviceObjectiveReference(s, p, false)
	p.obj1 = deviceObjectiveReference(s, p, true)
	for _, e := range p.dispFrac {
		p.saving += (1 - r.Gamma) * e
	}
	p.anx = s.model(r).Anxiety(r.EnergyFrac)
	p.end0, p.end1 = r.EnergyFrac, r.EnergyFrac
	for i := range p.dispFrac {
		p.end0 -= p.dispFrac[i] + p.baseFrac[i]
		p.end1 -= r.Gamma*p.dispFrac[i] + p.baseFrac[i]
	}
	if p.end0 < 0 {
		p.end0 = 0
	}
	if p.end1 < 0 {
		p.end1 = 0
	}
	return p, nil
}

// eligibleReference evaluates the compacted energy-feasibility
// constraint (11) for x_n = 1:
//
//	K*e(1) - sum_k (K-k)*psi(k) >= gamma * sum_k p(k)
//
// with psi the transformed per-chunk energy (display scaled by gamma,
// base unchanged), everything in battery fractions.
func eligibleReference(p *planReference) bool {
	k := len(p.dispFrac)
	e1 := p.req.EnergyFrac
	lhs := float64(k) * e1
	rhs := 0.0
	for i := 0; i < k; i++ {
		psi := p.req.Gamma*p.dispFrac[i] + p.baseFrac[i]
		lhs -= float64(k-i-1) * psi
		rhs += p.req.Gamma * p.dispFrac[i]
	}
	return lhs >= rhs
}

// deviceObjectiveReference evaluates the compacted objective (13)
// restricted to one device under a given decision: the per-chunk energy
// psi plus lambda times the anxiety at the predicted pre-chunk energy.
func deviceObjectiveReference(s *Scheduler, p *planReference, transformed bool) float64 {
	e := p.req.EnergyFrac
	sum := 0.0
	for i := range p.dispFrac {
		psi := p.dispFrac[i] + p.baseFrac[i]
		if transformed {
			psi = p.req.Gamma*p.dispFrac[i] + p.baseFrac[i]
		}
		sum += psi + s.cfg.Lambda*s.model(p.req).Anxiety(e)
		e -= psi
		if e < 0 {
			e = 0
		}
	}
	return sum
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBuildPlanFusedBitIdentical pins the fused single-pass buildPlan
// against the original multi-walk implementation, float bit for float
// bit, across display types, lambdas, energies and a personalised
// anxiety model.
func TestBuildPlanFusedBitIdentical(t *testing.T) {
	reqs := makeCluster(t, 60, 1717)
	rng := stats.NewRNG(31)
	for _, lambda := range []float64{0, 1.5} {
		s := mustScheduler(t, Config{Lambda: lambda})
		for i := range reqs {
			r := reqs[i]
			r.EnergyFrac = rng.Uniform(0.01, 1)
			r.Gamma = rng.Uniform(0.15, 0.6)
			if i%7 == 0 {
				m, err := anxiety.NewRescaled(anxiety.NewCanonical(), 0.4)
				if err != nil {
					t.Fatal(err)
				}
				r.Anxiety = m
			}
			var got plan
			if err := s.buildPlan(&r, &got); err != nil {
				t.Fatal(err)
			}
			want, err := buildPlanReference(s, &r)
			if err != nil {
				t.Fatal(err)
			}
			if got.eligible != want.eligible {
				t.Fatalf("req %d lambda %v: eligible %v != %v", i, lambda, got.eligible, want.eligible)
			}
			pairs := [][2]float64{
				{got.g, want.g}, {got.h, want.h},
				{got.obj0, want.obj0}, {got.obj1, want.obj1},
				{got.saving, want.saving}, {got.anx, want.anx},
				{got.end0, want.end0}, {got.end1, want.end1},
			}
			for j, pr := range pairs {
				if !bitsEq(pr[0], pr[1]) {
					t.Fatalf("req %d lambda %v: field %d diverged: %x != %x (%v != %v)",
						i, lambda, j, math.Float64bits(pr[0]), math.Float64bits(pr[1]), pr[0], pr[1])
				}
			}
		}
	}
}

// advanceChurn evolves a request set one slot: each surviving device is
// mutated with probability churn (battery drained or recharged, half
// the time a new gamma estimate), a churn-scaled fraction leaves, and
// new devices join. churn 0 returns the set unchanged.
func advanceChurn(rng *stats.RNG, cur, base []Request, churn float64, next *int) []Request {
	out := make([]Request, 0, len(cur)+2)
	for _, r := range cur {
		if churn > 0 && rng.Bool(churn*0.1) {
			continue // leave
		}
		if churn > 0 && rng.Bool(churn) {
			r.EnergyFrac = rng.Uniform(0.01, 1)
			if rng.Bool(0.5) {
				r.Gamma = rng.Uniform(0.15, 0.6)
			}
		}
		out = append(out, r)
	}
	for churn > 0 && rng.Bool(churn*0.3) && len(out) < len(base) {
		r := base[rng.Intn(len(base))]
		r.DeviceID = fmt.Sprintf("join-%04d", *next)
		*next++
		r.EnergyFrac = rng.Uniform(0.2, 1)
		out = append(out, r)
	}
	if len(out) == 0 {
		r := base[rng.Intn(len(base))]
		r.DeviceID = fmt.Sprintf("join-%04d", *next)
		*next++
		out = append(out, r)
	}
	return out
}

// TestChurnSequenceDifferential is the cross-slot extension of the
// 210-instance corpus: multi-slot sessions with randomized
// join/leave/drain churn, driven through a one-worker slot stream, a
// four-worker pool — both solving each slot in the scratch the last one
// left — and the fresh reference (Schedule on a bare Scheduler),
// byte-compared via Decision.Canonical every slot.
func TestChurnSequenceDifferential(t *testing.T) {
	server, err := edge.NewServer(8)
	if err != nil {
		t.Fatal(err)
	}
	base := makeCluster(t, 64, 999)
	for _, churn := range []float64{0, 0.05, 0.3, 1} {
		t.Run(fmt.Sprintf("churn=%v", churn), func(t *testing.T) {
			rng := stats.NewRNG(int64(churn*1000) + 5)
			cfg := Config{Server: server, Lambda: 1.5}
			stream := mustSlotStream(t, cfg)
			cold := mustScheduler(t, cfg)
			pool, err := NewPool(cfg, PoolConfig{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			cur := append([]Request(nil), base[:40]...)
			next := 0
			for slot := 0; slot < 14; slot++ {
				if slot > 0 {
					cur = advanceChurn(rng, cur, base, churn, &next)
				}
				reqs := append([]Request(nil), cur...)
				SortRequests(reqs)
				wd, err := stream.Schedule(reqs)
				if err != nil {
					t.Fatalf("slot %d: stream: %v", slot, err)
				}
				cd, err := cold.Schedule(reqs)
				if err != nil {
					t.Fatalf("slot %d: cold: %v", slot, err)
				}
				if !bytes.Equal(wd.Canonical(), cd.Canonical()) || wd.Phase1Nodes != cd.Phase1Nodes {
					t.Fatalf("slot %d: stream diverged from cold (%d vs %d Phase-1 nodes):\nstream:\n%s\ncold:\n%s",
						slot, wd.Phase1Nodes, cd.Phase1Nodes, wd.Canonical(), cd.Canonical())
				}
				pr, err := pool.Decide([]VC{{ID: "vc", Requests: reqs}})
				if err != nil {
					t.Fatalf("slot %d: pool: %v", slot, err)
				}
				if !bytes.Equal(pr.VCs[0].Decision.Canonical(), cd.Canonical()) {
					t.Fatalf("slot %d: pool diverged from cold", slot)
				}
			}
		})
	}
}

// TestUnchangedSlotHitsAndCounters drives one slot stream through an
// unchanged slot, a mutated result, one drained battery and ten devices
// leaving: every slot, solved in the scratch the one before it left,
// must equal the cold decision byte for byte, and a returned decision
// must share no storage with the stream.
func TestUnchangedSlotHitsAndCounters(t *testing.T) {
	server, err := edge.NewServer(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := makeCluster(t, 30, 77)
	SortRequests(reqs)
	cfg := Config{Server: server, Lambda: 2}
	stream := mustSlotStream(t, cfg)
	cold := mustScheduler(t, cfg)
	same := func(name string, reqs []Request) Decision {
		t.Helper()
		d, err := stream.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := cold.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Canonical(), cd.Canonical()) || !reflect.DeepEqual(d.PerDevice, cd.PerDevice) ||
			d.Phase1Nodes != cd.Phase1Nodes {
			t.Fatalf("%s decision diverged from cold", name)
		}
		return d
	}

	same("first", reqs)
	d2 := same("unchanged", reqs)
	// A returned decision must not alias the stream's scratch.
	d2.X[0] = !d2.X[0]
	d2.PerDevice[0].Reason = "forged"
	same("after a mutated result", reqs)

	churned := append([]Request(nil), reqs...)
	churned[3].EnergyFrac *= 0.5
	same("one drained battery", churned)
	same("ten devices left", churned[:20])
}

// customModel is an anxiety model the repo does not ship.
type customModel struct{}

func (customModel) Anxiety(e float64) float64 {
	if e < 0 {
		return 1
	}
	if e > 1 {
		return 0
	}
	return 1 - e
}

// TestColdPoolKeepsNoStream pins that every pool solves cold, whatever
// its configuration: Config.DisableIncremental, kept so configurations
// that set it still compile, changes nothing, and a population model or
// a per-request model the repo does not ship decides like Schedule on
// every tick, Phase-1 search included.
func TestColdPoolKeepsNoStream(t *testing.T) {
	reqs := makeCluster(t, 24, 55)
	rm, err := anxiety.NewRescaled(anxiety.NewCanonical(), 0.35)
	if err != nil {
		t.Fatal(err)
	}
	reqs[2].Anxiety = customModel{}
	reqs[5].Anxiety = rm
	SortRequests(reqs)
	for _, cfg := range []Config{
		{Lambda: 1},
		{Lambda: 1, DisableIncremental: true},
		{Lambda: 1, Anxiety: customModel{}},
	} {
		stream := mustSlotStream(t, cfg)
		want, err := mustScheduler(t, cfg).Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 3; tick++ {
			d, err := stream.Schedule(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.Canonical(), want.Canonical()) || d.Phase1Nodes != want.Phase1Nodes {
				t.Fatalf("%+v tick %d: %d Phase-1 nodes, Schedule %d; decisions equal %t", cfg, tick,
					d.Phase1Nodes, want.Phase1Nodes, bytes.Equal(d.Canonical(), want.Canonical()))
			}
		}
	}
}

// FuzzIncrementalSchedule fuzzes multi-slot churn sessions: whatever
// the churn rate, session length and capacity, the one-worker slot
// stream and the three-worker pool must match the fresh reference byte
// for byte on every slot. Some slots come in reverse order, some name a
// device twice (the copy changed or not, anywhere in the batch), and
// some are first sent with one request broken, which every engine must
// refuse with the cold path's error before the slot is sent again as it
// should be — so a slab that grows, shrinks or was left half-built by a
// failed batch always meets the fresh solve. A session with bit 2 of
// streams set starts from 72 devices instead of 10, past the 64-device
// compaction chunk, so the pool compacts in parallel into the scratch
// the slot before left, and churn may take it back under one chunk.
func FuzzIncrementalSchedule(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(1))
	f.Add(int64(9), uint8(30), uint8(6), uint8(0))
	f.Add(int64(-3), uint8(100), uint8(5), uint8(2))
	f.Add(int64(77), uint8(5), uint8(3), uint8(1))
	f.Add(int64(5), uint8(60), uint8(5), uint8(5))

	f.Fuzz(func(t *testing.T, seed int64, churnPct, slots, streams uint8) {
		base := fuzzBaseCluster(t)
		rng := stats.NewRNG(seed)
		churn := float64(churnPct%101) / 100
		nSlots := int(slots%6) + 2
		cfg := Config{Lambda: rng.Uniform(0, 3)}
		if streams%3 != 0 {
			server, err := edge.NewServer(int(streams%3) * 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Server = server
		}
		stream := mustSlotStream(t, cfg)
		cold := mustScheduler(t, cfg)
		pool, err := NewPool(cfg, PoolConfig{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		decide := func(reqs []Request) (Decision, error) {
			pr, err := pool.Decide([]VC{{ID: "vc", Requests: reqs}})
			if err != nil {
				return Decision{}, err
			}
			return pr.Decision(), nil
		}
		n := 10
		if streams&4 != 0 {
			n = 72
		}
		cur := make([]Request, n)
		for i := range cur {
			r := base[rng.Intn(len(base))]
			r.DeviceID = deviceID(i)
			r.EnergyFrac = rng.Uniform(0.01, 1)
			cur[i] = r
		}
		next := 0
		for slot := 0; slot < nSlots; slot++ {
			if slot > 0 {
				cur = advanceChurn(rng, cur, base, churn, &next)
			}
			reqs := append([]Request(nil), cur...)
			SortRequests(reqs)
			if rng.Bool(0.2) {
				slices.Reverse(reqs)
			}
			if rng.Bool(0.3) {
				twin := reqs[rng.Intn(len(reqs))]
				if rng.Bool(0.5) {
					twin.EnergyFrac = rng.Uniform(0.01, 1)
				}
				at := rng.Intn(len(reqs) + 1)
				reqs = append(reqs[:at], append([]Request{twin}, reqs[at:]...)...)
			}
			if rng.Bool(0.3) {
				broken := append([]Request(nil), reqs...)
				k := rng.Intn(len(broken))
				switch rng.Intn(3) {
				case 0:
					broken[k].Gamma = 0
				case 1:
					broken[k].EnergyFrac = 2
				default:
					chunks := append([]video.Chunk(nil), broken[k].Chunks...)
					chunks[rng.Intn(len(chunks))].DurationSec = 0
					broken[k].Chunks = chunks
				}
				_, cerr := cold.Schedule(broken)
				_, werr := stream.Schedule(broken)
				_, perr := decide(broken)
				if cerr == nil || werr == nil || perr == nil {
					t.Fatalf("slot %d: a broken batch was accepted: cold %v, stream %v, pool %v", slot, cerr, werr, perr)
				}
				if !strings.HasSuffix(werr.Error(), cerr.Error()) || perr.Error() != werr.Error() {
					t.Fatalf("slot %d: errors differ:\ncold %v\nstream %v\npool %v", slot, cerr, werr, perr)
				}
			}
			wd, err := stream.Schedule(reqs)
			if err != nil {
				t.Fatalf("slot %d: stream: %v", slot, err)
			}
			cd, err := cold.Schedule(reqs)
			if err != nil {
				t.Fatalf("slot %d: cold: %v", slot, err)
			}
			if !bytes.Equal(wd.Canonical(), cd.Canonical()) || !reflect.DeepEqual(wd.PerDevice, cd.PerDevice) {
				t.Fatalf("slot %d: stream diverged:\nstream:\n%s\ncold:\n%s",
					slot, wd.Canonical(), cd.Canonical())
			}
			pd, err := decide(reqs)
			if err != nil {
				t.Fatalf("slot %d: pool: %v", slot, err)
			}
			if !bytes.Equal(pd.Canonical(), cd.Canonical()) || !reflect.DeepEqual(pd.PerDevice, wd.PerDevice) {
				t.Fatalf("slot %d: pool diverged from cold", slot)
			}
		}
	})
}
