package scheduler

import (
	"bytes"
	"context"
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
// join/leave/drain churn, replayed through a warm one-worker stream, a
// four-worker pooled engine, and the cold reference (Schedule on a bare
// Scheduler), byte-compared via Decision.Canonical every slot.
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
			warm := mustWarmStream(t, cfg)
			cold := mustScheduler(t, cfg)
			pool, err := NewPool(cfg, PoolConfig{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			cur := append([]Request(nil), base[:40]...)
			next := 0
			sawHit := false
			for slot := 0; slot < 14; slot++ {
				if slot > 0 {
					cur = advanceChurn(rng, cur, base, churn, &next)
				}
				reqs := append([]Request(nil), cur...)
				SortRequests(reqs)
				wd, err := warm.Schedule(reqs)
				if err != nil {
					t.Fatalf("slot %d: warm: %v", slot, err)
				}
				cd, err := cold.Schedule(reqs)
				if err != nil {
					t.Fatalf("slot %d: cold: %v", slot, err)
				}
				if !bytes.Equal(wd.Canonical(), cd.Canonical()) {
					t.Fatalf("slot %d: warm diverged from cold:\nwarm:\n%s\ncold:\n%s",
						slot, wd.Canonical(), cd.Canonical())
				}
				pr, err := pool.Decide([]VC{{ID: "vc", Requests: reqs}})
				if err != nil {
					t.Fatalf("slot %d: pool: %v", slot, err)
				}
				if !bytes.Equal(pr.VCs[0].Decision.Canonical(), cd.Canonical()) {
					t.Fatalf("slot %d: pooled warm diverged from cold", slot)
				}
				if wd.PlanCacheHits > 0 {
					sawHit = true
				}
				if churn == 0 && slot > 0 && !wd.Replayed {
					t.Fatalf("slot %d: identical request set not replayed", slot)
				}
			}
			if churn < 1 && !sawHit {
				t.Fatal("low-churn session never hit the plan cache")
			}
		})
	}
}

// TestWholeDecisionReplayAndCounters pins the per-call cache counters
// through a join/leave/drain sequence and checks the replay fast path
// returns decisions byte-identical to cold.
func TestWholeDecisionReplayAndCounters(t *testing.T) {
	server, err := edge.NewServer(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := makeCluster(t, 30, 77)
	SortRequests(reqs)
	cfg := Config{Server: server, Lambda: 2}
	warm := mustWarmStream(t, cfg)
	cold := mustScheduler(t, cfg)

	d1, err := warm.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Replayed || d1.PlanCacheHits != 0 || d1.PlanCacheMisses != len(reqs) {
		t.Fatalf("cold-start slot: %+v", d1)
	}
	d2, err := warm.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Replayed || d2.PlanCacheHits != len(reqs) || d2.PlanCacheMisses != 0 {
		t.Fatalf("identical slot not replayed: hits=%d misses=%d replayed=%v",
			d2.PlanCacheHits, d2.PlanCacheMisses, d2.Replayed)
	}
	cd, err := cold.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]Decision{"first": d1, "replayed": d2} {
		if !bytes.Equal(d.Canonical(), cd.Canonical()) {
			t.Fatalf("%s decision diverged from cold", name)
		}
	}
	// The replayed decision must not alias cached state.
	d2.X[0] = !d2.X[0]
	d2.PerDevice[0].Reason = "forged"
	d2b, err := warm.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d2b.Canonical(), cd.Canonical()) {
		t.Fatal("mutating a returned decision corrupted the replay cache")
	}

	// One drained battery: exactly one miss, no replay.
	churned := append([]Request(nil), reqs...)
	churned[3].EnergyFrac *= 0.5
	d3, err := warm.Schedule(churned)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Replayed || d3.PlanCacheHits != len(reqs)-1 || d3.PlanCacheMisses != 1 {
		t.Fatalf("one-device churn: hits=%d misses=%d replayed=%v",
			d3.PlanCacheHits, d3.PlanCacheMisses, d3.Replayed)
	}
	cd3, err := cold.Schedule(churned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d3.Canonical(), cd3.Canonical()) {
		t.Fatal("churned decision diverged from cold")
	}

	// Ten devices leave: their cached plans are evicted.
	left := append([]Request(nil), churned[:20]...)
	d4, err := warm.Schedule(left)
	if err != nil {
		t.Fatal(err)
	}
	if d4.PlanCacheHits != 20 || d4.PlanCacheEvictions != 10 {
		t.Fatalf("leave slot: hits=%d evictions=%d", d4.PlanCacheHits, d4.PlanCacheEvictions)
	}

	cs := warm.pool.CacheStats()
	// d2 and d2b replayed the full set, d3 hit all but one, d4 hit 20.
	wantHits := uint64(2*len(reqs) + len(reqs) - 1 + 20)
	if cs.Hits != wantHits || cs.Misses != uint64(len(reqs)+1) || cs.Evictions != 10 {
		t.Fatalf("lifetime stats: %+v (want hits=%d)", cs, wantHits)
	}
	if cs.HitRate() <= 0.5 {
		t.Fatalf("hit rate %v implausibly low", cs.HitRate())
	}
}

// TestConfigGuardResetsState checks the config-fingerprint guard: a
// state warmed under one configuration and consulted by a differently
// configured scheduler must drop every cache and produce the second
// config's cold decision.
func TestConfigGuardResetsState(t *testing.T) {
	reqs := makeCluster(t, 20, 88)
	SortRequests(reqs)
	a := mustWarmStream(t, Config{Lambda: 1})
	if _, err := a.Schedule(reqs); err != nil {
		t.Fatal(err)
	}
	b := mustScheduler(t, Config{Lambda: 3})
	var dec Decision
	if err := b.scheduleWith(context.Background(), reqs, a.state(), nil, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.PlanCacheHits != 0 || dec.Replayed {
		t.Fatalf("stale caches survived a config change: %+v", dec)
	}
	cold, err := b.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Canonical(), cold.Canonical()) {
		t.Fatal("decision under reset state diverged from cold")
	}
}

// weirdModel is an anxiety model the fingerprint encoder does not know;
// requests carrying it must be uncacheable but still correctly handled.
type weirdModel struct{}

func (weirdModel) Anxiety(e float64) float64 {
	if e < 0 {
		return 1
	}
	if e > 1 {
		return 0
	}
	return 1 - e
}

// TestUncacheableRequests covers the fingerprinting escape hatches: a
// request with an unknown anxiety model is never cached (but the rest
// of the cluster still is), and a pool configured with an unknown model
// keeps no stream and runs fully cold.
func TestUncacheableRequests(t *testing.T) {
	reqs := makeCluster(t, 16, 91)
	rm, err := anxiety.NewRescaled(anxiety.NewCanonical(), 0.35)
	if err != nil {
		t.Fatal(err)
	}
	reqs[2].Anxiety = weirdModel{}
	reqs[5].Anxiety = rm
	SortRequests(reqs)
	warm := mustWarmStream(t, Config{Lambda: 2})
	cold := mustScheduler(t, Config{Lambda: 2})
	for slot := 0; slot < 3; slot++ {
		wd, err := warm.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := cold.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wd.Canonical(), cd.Canonical()) {
			t.Fatalf("slot %d: diverged from cold", slot)
		}
		if wd.Replayed {
			t.Fatalf("slot %d: set with uncacheable request must never replay", slot)
		}
		if slot > 0 && (wd.PlanCacheHits != len(reqs)-1 || wd.PlanCacheMisses != 1) {
			t.Fatalf("slot %d: hits=%d misses=%d; want %d/1",
				slot, wd.PlanCacheHits, wd.PlanCacheMisses, len(reqs)-1)
		}
	}

	s := mustWarmStream(t, Config{Lambda: 1, Anxiety: weirdModel{}})
	if s.state() != nil {
		t.Fatal("unfingerprintable config must disable incremental state")
	}
	if _, err := s.Schedule(reqs); err != nil {
		t.Fatal(err)
	}
	d, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Replayed || d.PlanCacheHits != 0 {
		t.Fatalf("cold pool reported cache activity: %+v", d)
	}
}

// TestPoolStateKeyContinuity checks that a caller whose VC ID changes
// every tick (the daemon labels ticks "slot-N") still gets cache
// continuity through VC.StateKey — and that without a StateKey the
// changing ID starts a fresh stream each tick.
func TestPoolStateKeyContinuity(t *testing.T) {
	reqs := makeCluster(t, 24, 55)
	SortRequests(reqs)
	pool, err := NewPool(Config{Lambda: 1}, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mustScheduler(t, Config{Lambda: 1}).Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 3; tick++ {
		vc := VC{ID: fmt.Sprintf("slot-%d", tick), StateKey: "edge", Requests: reqs}
		pr, err := pool.Decide([]VC{vc})
		if err != nil {
			t.Fatal(err)
		}
		dec := pr.VCs[0].Decision
		if !bytes.Equal(dec.Canonical(), want.Canonical()) {
			t.Fatalf("tick %d diverged", tick)
		}
		if tick > 0 && !dec.Replayed {
			t.Fatalf("tick %d: StateKey continuity broken (no replay)", tick)
		}
	}
	cs := pool.CacheStats()
	if cs.Hits == 0 {
		t.Fatalf("pool stats recorded no hits: %+v", cs)
	}

	fresh, err := NewPool(Config{Lambda: 1}, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 2; tick++ {
		pr, err := fresh.Decide([]VC{{ID: fmt.Sprintf("slot-%d", tick), Requests: reqs}})
		if err != nil {
			t.Fatal(err)
		}
		if pr.VCs[0].Decision.Replayed {
			t.Fatalf("tick %d: distinct IDs without StateKey must not share state", tick)
		}
	}
}

// TestColdPoolKeepsNoStream pins Config.DisableIncremental, the one
// switch left and read by Pool only: the pool creates no stream, so an
// unchanged slot is solved again, nothing is counted and nothing is
// exported — the cold engine BenchmarkIncrementalSlots prices the
// streams against.
func TestColdPoolKeepsNoStream(t *testing.T) {
	reqs := makeCluster(t, 24, 55)
	SortRequests(reqs)
	cfg := Config{Lambda: 1, DisableIncremental: true}
	cold := mustWarmStream(t, cfg)
	want, err := mustScheduler(t, cfg).Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 3; tick++ {
		d, err := cold.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Canonical(), want.Canonical()) {
			t.Fatalf("tick %d diverged from Schedule", tick)
		}
		if d.Replayed || d.PlanCacheHits != 0 || d.PlanCacheMisses != 0 || d.Phase1Nodes != want.Phase1Nodes {
			t.Fatalf("tick %d: a cold pool used cross-slot state: %+v", tick, d)
		}
	}
	if cold.state() != nil || len(cold.pool.states) != 0 || cold.pool.CacheStats() != (CacheStats{}) {
		t.Fatalf("cold pool holds a stream: %d states, stats %+v", len(cold.pool.states), cold.pool.CacheStats())
	}
}

// FuzzIncrementalSchedule fuzzes multi-slot churn sessions: whatever
// the churn rate, session length and capacity, the warm one-worker
// stream and the three-worker pooled engine must match the cold
// reference byte for byte on every slot. Some slots come in reverse
// order, some name a device twice (the copy changed or not, anywhere in
// the batch), and some are first sent with one request broken, which
// every engine must refuse with the cold path's error before the slot is
// sent again as it should be — so plans built in their cache entries,
// failed batches and the slab-built copies of a duplicated device all
// meet the cold solve.
func FuzzIncrementalSchedule(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(1))
	f.Add(int64(9), uint8(30), uint8(6), uint8(0))
	f.Add(int64(-3), uint8(100), uint8(5), uint8(2))
	f.Add(int64(77), uint8(5), uint8(3), uint8(1))

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
		warm := mustWarmStream(t, cfg)
		cold := mustScheduler(t, cfg)
		wideCfg := cfg
		wideCfg.CompactChunk = 2 // compact the misses in parallel
		pool, err := NewPool(wideCfg, PoolConfig{Workers: 3})
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
		cur := make([]Request, 10)
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
				_, werr := warm.Schedule(broken)
				_, perr := decide(broken)
				if cerr == nil || werr == nil || perr == nil {
					t.Fatalf("slot %d: a broken batch was accepted: cold %v, warm %v, pool %v", slot, cerr, werr, perr)
				}
				if !strings.HasSuffix(werr.Error(), cerr.Error()) || perr.Error() != werr.Error() {
					t.Fatalf("slot %d: errors differ:\ncold %v\nwarm %v\npool %v", slot, cerr, werr, perr)
				}
			}
			wd, err := warm.Schedule(reqs)
			if err != nil {
				t.Fatalf("slot %d: warm: %v", slot, err)
			}
			cd, err := cold.Schedule(reqs)
			if err != nil {
				t.Fatalf("slot %d: cold: %v", slot, err)
			}
			if !bytes.Equal(wd.Canonical(), cd.Canonical()) || !reflect.DeepEqual(wd.PerDevice, cd.PerDevice) {
				t.Fatalf("slot %d: warm diverged:\nwarm:\n%s\ncold:\n%s",
					slot, wd.Canonical(), cd.Canonical())
			}
			pd, err := decide(reqs)
			if err != nil {
				t.Fatalf("slot %d: pool: %v", slot, err)
			}
			if !bytes.Equal(pd.Canonical(), cd.Canonical()) || !reflect.DeepEqual(pd.PerDevice, wd.PerDevice) {
				t.Fatalf("slot %d: pooled warm diverged from cold", slot)
			}
		}
	})
}
