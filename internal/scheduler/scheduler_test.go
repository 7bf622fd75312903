package scheduler

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"lpvs/internal/anxiety"
	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// makeRequest builds a deterministic request; energyFrac and gamma are
// the knobs most tests vary.
func makeRequest(tb testing.TB, id string, seed int64, energyFrac, gamma float64) Request {
	tb.Helper()
	rng := stats.NewRNG(seed)
	v, err := video.Generate(rng, video.DefaultGenConfig(id+"-v", video.Gaming, 30))
	if err != nil {
		tb.Fatal(err)
	}
	ty := display.LCD
	if seed%2 == 0 {
		ty = display.OLED
	}
	return Request{
		DeviceID:         id,
		Display:          display.Spec{Type: ty, Resolution: display.Res1080p, DiagonalInch: 6, Brightness: 0.6},
		EnergyFrac:       energyFrac,
		BatteryCapacityJ: 50_000,
		BasePowerW:       0.9,
		Chunks:           v.Chunks,
		Gamma:            gamma,
	}
}

func makeCluster(tb testing.TB, n int, seed int64) []Request {
	tb.Helper()
	rng := stats.NewRNG(seed)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = makeRequest(tb, deviceID(i), rng.Int63(),
			rng.TruncNormal(0.5, 0.2, 0.05, 1), rng.Uniform(0.2, 0.45))
	}
	return reqs
}

func deviceID(i int) string {
	return "dev-" + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
}

func mustScheduler(tb testing.TB, cfg Config) *Scheduler {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// slotStream is the reuse arm of the multi-slot differentials: slots
// driven the way the daemon drives its own — a one-worker Pool, one VC
// under a fixed ID — so every slot is solved in the scratch the slot
// before it left behind. The fresh arm is Schedule on a bare Scheduler.
type slotStream struct{ pool *Pool }

func mustSlotStream(tb testing.TB, cfg Config) *slotStream {
	tb.Helper()
	pool, err := NewPool(cfg, PoolConfig{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return &slotStream{pool: pool}
}

// Schedule decides the stream's next slot. The decision is positional:
// a pool result carries no ID-keyed maps.
func (w *slotStream) Schedule(reqs []Request) (Decision, error) {
	pr, err := w.pool.Decide([]VC{{ID: "vc", Requests: reqs}})
	if err != nil {
		return Decision{}, err
	}
	return pr.Decision(), nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SlotSec: -1}); err == nil {
		t.Fatal("negative slot accepted")
	}
	if _, err := New(Config{Lambda: -0.1}); err == nil {
		t.Fatal("negative lambda accepted")
	}
	if _, err := New(Config{ExactThreshold: -5}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := New(Config{MaxSwapPasses: -1}); err == nil {
		t.Fatal("negative passes accepted")
	}
	s := mustScheduler(t, Config{})
	if s.cfg.SlotSec != DefaultSlotSeconds || s.cfg.Anxiety == nil {
		t.Fatal("defaults not applied")
	}
}

// TestSortRequestsMatchesStableSort pins SortRequests' precondition at
// work: over distinct DeviceIDs — a shuffled batch the size of the
// largest benchmarked fleet — the unstable sort yields the sequence
// sort.SliceStable, which it replaced, does.
func TestSortRequestsMatchesStableSort(t *testing.T) {
	const n = 10_000
	reqs := make([]Request, n)
	for i, j := range stats.NewRNG(3).Perm(n) {
		// Unpadded numbers, so IDs of different lengths share prefixes;
		// EnergyFrac marks the element the ID arrived with.
		reqs[i] = Request{DeviceID: "dev-" + strconv.Itoa(j), EnergyFrac: float64(j)}
	}
	want := append([]Request(nil), reqs...)
	sort.SliceStable(want, func(a, b int) bool { return want[a].DeviceID < want[b].DeviceID })
	SortRequests(reqs)
	for i := range reqs {
		if reqs[i].DeviceID != want[i].DeviceID || reqs[i].EnergyFrac != want[i].EnergyFrac {
			t.Fatalf("position %d holds %s (%v), the stable sort puts %s (%v) there",
				i, reqs[i].DeviceID, reqs[i].EnergyFrac, want[i].DeviceID, want[i].EnergyFrac)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	good := makeRequest(t, "d", 1, 0.5, 0.3)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Request){
		func(r *Request) { r.DeviceID = "" },
		func(r *Request) { r.EnergyFrac = 1.5 },
		func(r *Request) { r.EnergyFrac = -0.1 },
		func(r *Request) { r.BatteryCapacityJ = 0 },
		func(r *Request) { r.BasePowerW = -1 },
		func(r *Request) { r.Chunks = nil },
		func(r *Request) { r.Gamma = 0 },
		func(r *Request) { r.Gamma = 1 },
		func(r *Request) { r.Display.Brightness = 9 },
	}
	for i, mut := range cases {
		r := makeRequest(t, "d", 1, 0.5, 0.3)
		mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestInformationCompactingEquivalence(t *testing.T) {
	s := mustScheduler(t, Config{Lambda: 1})
	for _, transformed := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			r := makeRequest(t, "d", seed, 0.3+0.02*float64(seed), 0.35)
			compacted, simulated, err := CompactedVsSimulated(s, r, transformed)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(compacted-simulated) > 1e-9 {
				t.Fatalf("seed %d transformed=%v: compacted %v != simulated %v",
					seed, transformed, compacted, simulated)
			}
		}
	}
}

func TestInformationCompactingEquivalenceProperty(t *testing.T) {
	s := mustScheduler(t, Config{Lambda: 0.7})
	f := func(seed int64, e, g uint8, transformed bool) bool {
		r := makeRequest(t, "p", seed, float64(e%90+5)/100, float64(g%60+20)/100)
		compacted, simulated, err := CompactedVsSimulated(s, r, transformed)
		if err != nil {
			return false
		}
		return math.Abs(compacted-simulated) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformAlwaysLowersDeviceObjective(t *testing.T) {
	s := mustScheduler(t, Config{Lambda: 1})
	plans, err := s.buildPlans(makeCluster(t, 20, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.obj1 >= p.obj0 {
			t.Fatalf("device %s: transformed objective %v not below %v",
				p.req.DeviceID, p.obj1, p.obj0)
		}
	}
}

func TestEligibilityRejectsDyingBattery(t *testing.T) {
	s := mustScheduler(t, Config{})
	healthy := makeRequest(t, "ok", 3, 0.5, 0.35)
	dying := makeRequest(t, "dying", 3, 0.0005, 0.35)
	plans, err := s.buildPlans([]Request{healthy, dying})
	if err != nil {
		t.Fatal(err)
	}
	if !plans[0].eligible {
		t.Fatal("healthy device ineligible")
	}
	if plans[1].eligible {
		t.Fatal("dying device eligible")
	}
}

func TestScheduleUnboundedSelectsAllEligible(t *testing.T) {
	s := mustScheduler(t, Config{Lambda: 0.5}) // nil server = unbounded
	reqs := makeCluster(t, 30, 7)
	dec, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Selected != dec.Eligible {
		t.Fatalf("selected %d of %d eligible under unbounded capacity", dec.Selected, dec.Eligible)
	}
	if dec.Eligible < 25 {
		t.Fatalf("only %d of 30 healthy devices eligible", dec.Eligible)
	}
}

func TestScheduleRespectsCapacity(t *testing.T) {
	server, err := edge.NewServer(10)
	if err != nil {
		t.Fatal(err)
	}
	s := mustScheduler(t, Config{Server: server, Lambda: 1})
	reqs := makeCluster(t, 60, 11)
	dec, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Selected == 0 {
		t.Fatal("nothing selected despite available capacity")
	}
	// Verify the capacity constraints on the actual decision.
	plans, err := s.buildPlans(reqs)
	if err != nil {
		t.Fatal(err)
	}
	usedG, usedH := 0.0, 0.0
	for _, p := range plans {
		if dec.Transform[p.req.DeviceID] {
			usedG += p.g
			usedH += p.h
		}
	}
	if !server.Fits(usedG, usedH) {
		t.Fatalf("decision violates capacity: g=%v h=%v", usedG, usedH)
	}
	if dec.Selected >= dec.Eligible {
		t.Fatal("capacity did not bind in a 60-device cluster on a 10-stream server")
	}
}

func TestScheduleEmptyCluster(t *testing.T) {
	s := mustScheduler(t, Config{})
	dec, err := s.Schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Selected != 0 || len(dec.Transform) != 0 {
		t.Fatalf("unexpected decision for empty cluster: %+v", dec)
	}
}

func TestScheduleAllIneligible(t *testing.T) {
	s := mustScheduler(t, Config{})
	reqs := []Request{
		makeRequest(t, "a", 1, 0.0004, 0.3),
		makeRequest(t, "b", 2, 0.0003, 0.3),
	}
	dec, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Selected != 0 || dec.Eligible != 0 {
		t.Fatalf("dying cluster scheduled: %+v", dec)
	}
}

func TestLambdaSteersTowardAnxiousUsers(t *testing.T) {
	// Two devices, capacity for one: "rich" has a big display (more
	// saving) and a full battery; "anxious" saves less but is at 15%.
	rich := makeRequest(t, "rich", 2, 0.95, 0.45)
	rich.Display = display.Spec{Type: display.OLED, Resolution: display.Res1440p, DiagonalInch: 6.8, Brightness: 0.9}
	anxious := makeRequest(t, "anxious", 2, 0.15, 0.25)
	anxious.Display = display.Spec{Type: display.OLED, Resolution: display.Res720p, DiagonalInch: 5.5, Brightness: 0.5}

	// Capacity fits exactly one 1440p transform (4 pixel-ratio units).
	server := &edge.Server{ComputeCapacity: 4.0, StorageCapacityMB: 1e9}

	flat, err := New(Config{Server: server, Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	dec0, err := flat.Schedule([]Request{rich, anxious})
	if err != nil {
		t.Fatal(err)
	}
	if !dec0.Transform["rich"] {
		t.Fatalf("lambda=0 must chase raw energy saving: %+v", dec0)
	}

	caring, err := New(Config{Server: server, Lambda: 25})
	if err != nil {
		t.Fatal(err)
	}
	dec1, err := caring.Schedule([]Request{rich, anxious})
	if err != nil {
		t.Fatal(err)
	}
	if !dec1.Transform["anxious"] {
		t.Fatalf("large lambda must rescue the anxious user: %+v", dec1)
	}
	if dec1.Swaps == 0 {
		t.Fatal("expected the rescue to happen via a Phase-2 swap")
	}
}

func TestDisableSwapAblation(t *testing.T) {
	server, err := edge.NewServer(8)
	if err != nil {
		t.Fatal(err)
	}
	reqs := makeCluster(t, 40, 13)
	on := mustScheduler(t, Config{Server: server, Lambda: 5})
	off := mustScheduler(t, Config{Server: server, Lambda: 5, DisableSwap: true})
	decOn, err := on.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	decOff, err := off.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if decOff.Swaps != 0 {
		t.Fatal("swaps happened despite DisableSwap")
	}
	if decOn.Objective > decOff.Objective+1e-9 {
		t.Fatalf("phase-2 worsened the objective: %v vs %v", decOn.Objective, decOff.Objective)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	server, _ := edge.NewServer(10)
	s := mustScheduler(t, Config{Server: server, Lambda: 1})
	reqs := makeCluster(t, 50, 17)
	a, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for id, on := range a.Transform {
		if b.Transform[id] != on {
			t.Fatalf("decision for %s differs across runs", id)
		}
	}
}

// TestScheduleIsPure pins the Scheduler's contract: configuration plus
// algorithm, always cold. The same batch twice does the same work and
// returns the same bytes — nothing is cached or warm-started —
// the type has no field a call could write, and goroutines sharing one
// Scheduler need no lock (the race run checks that).
func TestScheduleIsPure(t *testing.T) {
	server, err := edge.NewServer(6)
	if err != nil {
		t.Fatal(err)
	}
	s := mustScheduler(t, Config{Server: server, Lambda: 1.5})
	reqs := makeCluster(t, 60, 31)
	SortRequests(reqs)
	first, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.ScheduleCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Canonical()
	if !bytes.Equal(second.Canonical(), want) {
		t.Fatalf("same batch, different bytes:\nfirst:\n%s\nsecond:\n%s", want, second.Canonical())
	}
	if first.Phase1Nodes == 0 || second.Phase1Nodes != first.Phase1Nodes {
		t.Fatalf("second call searched %d Phase-1 nodes, the first %d: not the same cold solve",
			second.Phase1Nodes, first.Phase1Nodes)
	}

	typ := reflect.TypeOf(*s)
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type {
		case reflect.TypeOf((*planScratch)(nil)), reflect.TypeOf(planScratch{}), reflect.TypeOf(sync.Mutex{}):
			t.Fatalf("Scheduler.%s is a %v: reused scratch belongs to Pool", f.Name, f.Type)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				d, err := s.Schedule(reqs)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(d.Canonical(), want) || d.Phase1Nodes != first.Phase1Nodes {
					t.Errorf("concurrent call diverged: nodes=%d", d.Phase1Nodes)
				}
			}
		}()
	}
	wg.Wait()
}

func TestNoTransformPolicy(t *testing.T) {
	var p NoTransform
	if p.Name() != "no-transform" {
		t.Fatal("name")
	}
	reqs := makeCluster(t, 5, 19)
	dec, err := p.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for id, on := range dec.Transform {
		if on {
			t.Fatalf("device %s transformed by NoTransform", id)
		}
	}
	bad := makeCluster(t, 2, 19)
	bad[1].Gamma = 0
	if _, err := p.Schedule(bad); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestRandomPolicyRespectsCapacity(t *testing.T) {
	server, _ := edge.NewServer(5)
	cfg := Config{Server: server, Lambda: 1}
	p, err := NewRandomPolicy(cfg, 23)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "random" {
		t.Fatal("name")
	}
	reqs := makeCluster(t, 40, 23)
	dec, err := p.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Selected == 0 {
		t.Fatal("random policy selected nothing")
	}
	s := mustScheduler(t, cfg)
	plans, _ := s.buildPlans(reqs)
	usedG, usedH := 0.0, 0.0
	for _, pl := range plans {
		if dec.Transform[pl.req.DeviceID] {
			usedG += pl.g
			usedH += pl.h
		}
	}
	if !server.Fits(usedG, usedH) {
		t.Fatal("random policy violated capacity")
	}
}

func TestGreedyBatteryPolicyPrefersLowBattery(t *testing.T) {
	server := &edge.Server{ComputeCapacity: 3.0, StorageCapacityMB: 1e9}
	p, err := NewGreedyBatteryPolicy(Config{Server: server})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "greedy-battery" {
		t.Fatal("name")
	}
	low := makeRequest(t, "low", 4, 0.12, 0.3)
	high := makeRequest(t, "high", 4, 0.9, 0.3)
	dec, err := p.Schedule([]Request{high, low})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Transform["low"] {
		t.Fatalf("low-battery user not prioritised: %+v", dec)
	}
}

func TestJointKnapsackAtLeastAsGoodAsTwoPhase(t *testing.T) {
	server, _ := edge.NewServer(8)
	cfg := Config{Server: server, Lambda: 3}
	two := mustScheduler(t, cfg)
	joint, err := NewJointKnapsackPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if joint.Name() != "joint-knapsack" {
		t.Fatal("name")
	}
	for seed := int64(31); seed < 36; seed++ {
		reqs := makeCluster(t, 35, seed)
		dTwo, err := two.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		dJoint, err := joint.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if dJoint.Objective > dTwo.Objective+1e-6 {
			t.Fatalf("seed %d: joint objective %v worse than two-phase %v",
				seed, dJoint.Objective, dTwo.Objective)
		}
	}
}

func TestLPVSObjectiveBeatsBaselines(t *testing.T) {
	server, _ := edge.NewServer(8)
	cfg := Config{Server: server, Lambda: 1}
	lpvs := mustScheduler(t, cfg)
	rnd, err := NewRandomPolicy(cfg, 41)
	if err != nil {
		t.Fatal(err)
	}
	reqs := makeCluster(t, 50, 43)
	dL, err := lpvs.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	dR, err := rnd.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if dL.Objective > dR.Objective+1e-9 {
		t.Fatalf("LPVS objective %v worse than random %v", dL.Objective, dR.Objective)
	}
}

func TestLargeClusterUsesGreedyAndStaysFast(t *testing.T) {
	server, _ := edge.NewServer(100)
	s := mustScheduler(t, Config{Server: server, Lambda: 1, ExactThreshold: 100})
	reqs := makeCluster(t, 400, 47)
	dec, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if dec.OptimalPhase1 {
		t.Fatal("greedy fallback should not claim optimality")
	}
	if dec.Selected == 0 {
		t.Fatal("nothing selected")
	}
}

func TestSchedulingNeverWorsensObjective(t *testing.T) {
	// Any selection the scheduler makes must not exceed the do-nothing
	// objective: transforming only ever reduces per-device cost.
	server, _ := edge.NewServer(15)
	s := mustScheduler(t, Config{Server: server, Lambda: 2})
	var nt NoTransform
	for seed := int64(61); seed < 66; seed++ {
		reqs := makeCluster(t, 40, seed)
		lp, err := s.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		base, err := nt.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		// NoTransform carries no objective; evaluate through the
		// scheduler's plans.
		plans, err := s.buildPlans(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if lp.Objective > totalObjective(plans, base.X)+1e-9 {
			t.Fatalf("seed %d: scheduled objective %v above do-nothing %v",
				seed, lp.Objective, totalObjective(plans, base.X))
		}
	}
}

func TestMoreCapacityNeverHurts(t *testing.T) {
	reqs := makeCluster(t, 50, 71)
	var prev float64
	first := true
	for _, streams := range []int{5, 20, 80} {
		server, err := edge.NewServer(streams)
		if err != nil {
			t.Fatal(err)
		}
		s := mustScheduler(t, Config{Server: server, Lambda: 1})
		dec, err := s.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !first && dec.Objective > prev+1e-9 {
			t.Fatalf("capacity %d worsened the objective: %v -> %v", streams, prev, dec.Objective)
		}
		prev = dec.Objective
		first = false
	}
}

func TestObjectiveMatchesSelectionProperty(t *testing.T) {
	// The reported objective always equals the recomputed objective of
	// the reported selection.
	server, _ := edge.NewServer(10)
	s := mustScheduler(t, Config{Server: server, Lambda: 3})
	f := func(seed int64, n uint8) bool {
		reqs := makeCluster(t, int(n%25)+2, seed)
		dec, err := s.Schedule(reqs)
		if err != nil {
			return false
		}
		plans, err := s.buildPlans(reqs)
		if err != nil {
			return false
		}
		return math.Abs(dec.Objective-totalObjective(plans, dec.X)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAnxietyModelPluggable(t *testing.T) {
	s := mustScheduler(t, Config{Lambda: 1, Anxiety: anxiety.Linear{}})
	if _, err := s.Schedule(makeCluster(t, 5, 53)); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleReportsPhaseTimings(t *testing.T) {
	server, err := edge.NewServer(5)
	if err != nil {
		t.Fatal(err)
	}
	s := mustScheduler(t, Config{Lambda: 1, Server: server})
	dec, err := s.Schedule(makeCluster(t, 30, 7))
	if err != nil {
		t.Fatal(err)
	}
	if dec.CompactSeconds < 0 || dec.Phase1Seconds < 0 || dec.Phase2Seconds < 0 {
		t.Fatalf("negative phase timing: %+v", dec)
	}
	if dec.Eligible > 0 && dec.Phase1Seconds == 0 && dec.CompactSeconds == 0 {
		t.Fatalf("no wall time recorded for a %d-eligible solve", dec.Eligible)
	}
	// The empty cluster reports zero timings.
	empty, err := s.Schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.CompactSeconds != 0 || empty.Phase1Seconds != 0 || empty.Phase2Seconds != 0 {
		t.Fatalf("empty cluster reported timings: %+v", empty)
	}
}
