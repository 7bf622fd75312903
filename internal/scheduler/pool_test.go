package scheduler

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/ilp"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// makeVCSet builds nVC virtual clusters of perVC devices each. Devices
// within a VC share one generated stream (the paper's model: a VC is
// one channel's audience) but differ in display, battery state and
// gamma, so plan building and the knapsack see realistic spread.
func makeVCSet(tb testing.TB, nVC, perVC int, seed int64) []VC {
	tb.Helper()
	rng := stats.NewRNG(seed)
	resolutions := []display.Resolution{display.Res720p, display.Res1080p, display.Res1440p}
	vcs := make([]VC, nVC)
	for v := range vcs {
		vid, err := video.Generate(rng.Fork(), video.DefaultGenConfig(fmt.Sprintf("vc%03d-stream", v), video.Gaming, 30))
		if err != nil {
			tb.Fatal(err)
		}
		reqs := make([]Request, perVC)
		for i := range reqs {
			ty := display.LCD
			if rng.Intn(2) == 0 {
				ty = display.OLED
			}
			reqs[i] = Request{
				DeviceID: fmt.Sprintf("vc%03d-dev%05d", v, i),
				Display: display.Spec{
					Type:         ty,
					Resolution:   resolutions[rng.Intn(len(resolutions))],
					DiagonalInch: 5.5 + rng.Uniform(0, 1.5),
					Brightness:   rng.Uniform(0.4, 0.9),
				},
				EnergyFrac:       rng.TruncNormal(0.5, 0.2, 0.05, 1),
				BatteryCapacityJ: 50_000,
				BasePowerW:       0.9,
				Chunks:           vid.Chunks,
				Gamma:            rng.Uniform(0.2, 0.45),
			}
		}
		vcs[v] = VC{ID: fmt.Sprintf("vc%03d", v), Requests: reqs}
	}
	return vcs
}

// randomInstance derives one randomized multi-VC instance (VC list +
// scheduler config) from the rng, reusing a pre-generated request base
// so hundreds of instances stay cheap.
func randomInstance(rng *stats.RNG, base []Request) ([]VC, Config) {
	nVC := 1 + rng.Intn(4)
	vcs := make([]VC, nVC)
	for v := range vcs {
		n := 1 + rng.Intn(20)
		reqs := make([]Request, n)
		for i := range reqs {
			r := base[rng.Intn(len(base))]
			r.DeviceID = fmt.Sprintf("i%02d-d%02d", v, i)
			r.EnergyFrac = rng.Uniform(0.01, 1)
			r.Gamma = rng.Uniform(0.15, 0.6)
			reqs[i] = r
		}
		vcs[v] = VC{ID: fmt.Sprintf("vc-%d", v), Requests: reqs}
	}
	cfg := Config{Lambda: rng.Uniform(0, 5)}
	if rng.Intn(5) == 0 {
		cfg.Lambda = 0
	}
	if rng.Intn(4) > 0 {
		server, err := edge.NewServer(1 + rng.Intn(12))
		if err != nil {
			panic(err)
		}
		cfg.Server = server
	}
	return vcs, cfg
}

// TestPoolVsSerialDifferential is the core equivalence harness: across
// 210 randomized instances (sizes, capacities, lambdas), the pooled
// engine's merged output must be byte-identical to the serial reference
// loop — same selections, same counters, same objective bits. Each
// instance is decided twice through the pool, so the second tick runs
// in the scratch the first one grew, then once more with one device per
// VC dimmed, which changes its saving and so the Phase-1 problem. Every
// tick must also have searched exactly the serial reference's Phase-1
// nodes: a pool's solve is the cold one.
func TestPoolVsSerialDifferential(t *testing.T) {
	base := makeCluster(t, 64, 999)
	rng := stats.NewRNG(20260805)
	const instances = 210
	for inst := 0; inst < instances; inst++ {
		vcs, cfg := randomInstance(rng, base)
		pool, err := NewPool(cfg, PoolConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		serial := mustScheduler(t, cfg)
		pr, err := pool.Decide(vcs)
		if err != nil {
			t.Fatalf("instance %d: pool: %v", inst, err)
		}
		sr, err := DecideSerial(serial, vcs)
		if err != nil {
			t.Fatalf("instance %d: serial: %v", inst, err)
		}
		if !bytes.Equal(pr.Canonical(), sr.Canonical()) {
			t.Fatalf("instance %d: pool and serial decisions diverged:\npool:\n%s\nserial:\n%s",
				inst, pr.Canonical(), sr.Canonical())
		}
		again, err := pool.Decide(vcs)
		if err != nil {
			t.Fatalf("instance %d: second pool tick: %v", inst, err)
		}
		if !bytes.Equal(again.Canonical(), sr.Canonical()) {
			t.Fatalf("instance %d: second pool tick diverged from cold serial:\npool:\n%s\nserial:\n%s",
				inst, again.Canonical(), sr.Canonical())
		}
		sameSearch(t, inst, "first", pr, sr)
		sameSearch(t, inst, "second", again, sr)

		dimmed := make([]VC, len(vcs))
		for v, vc := range vcs {
			reqs := append([]Request(nil), vc.Requests...)
			reqs[0].Display.Brightness *= 0.8
			dimmed[v] = VC{ID: vc.ID, Requests: reqs}
		}
		dr, err := pool.Decide(dimmed)
		if err != nil {
			t.Fatalf("instance %d: dimmed pool tick: %v", inst, err)
		}
		dsr, err := DecideSerial(serial, dimmed)
		if err != nil {
			t.Fatalf("instance %d: dimmed serial: %v", inst, err)
		}
		if !bytes.Equal(dr.Canonical(), dsr.Canonical()) {
			t.Fatalf("instance %d: dimmed pool tick diverged from cold serial:\npool:\n%s\nserial:\n%s",
				inst, dr.Canonical(), dsr.Canonical())
		}
		sameSearch(t, inst, "dimmed", dr, dsr)
	}

	// Greedy is optimal on every random instance above, so none of them
	// ever had a Phase-1 search worth seeding from the previous slot.
	// Mixed-resolution VCs under a 12-stream server, churned between
	// ticks, are where a seeded search used to run first.
	server, err := edge.NewServer(12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Server: server, Lambda: 1.5}
	for set := 0; set < 4; set++ {
		vcs := makeVCSet(t, 3, 40, 2606+int64(set))
		pool, err := NewPool(cfg, PoolConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 4; tick++ {
			for v, vc := range vcs {
				reqs := append([]Request(nil), vc.Requests...)
				vcs[v].Requests = reqs
				k := (5 + 7*tick) % len(reqs)
				reqs[k].Gamma = 0.65 - reqs[k].Gamma
				reqs[(k+18)%len(reqs)].EnergyFrac = 1 - 0.9*reqs[(k+18)%len(reqs)].EnergyFrac
			}
			pr, err := pool.Decide(vcs)
			if err != nil {
				t.Fatalf("set %d tick %d: pool: %v", set, tick, err)
			}
			sr, err := DecideSerial(mustScheduler(t, cfg), vcs)
			if err != nil {
				t.Fatalf("set %d tick %d: serial: %v", set, tick, err)
			}
			if !bytes.Equal(pr.Canonical(), sr.Canonical()) {
				t.Fatalf("set %d tick %d: churned pool tick diverged from cold serial", set, tick)
			}
			sameSearch(t, 1000+set, fmt.Sprintf("churn %d", tick), pr, sr)
		}
	}
}

// sameSearch fails when a VC the pool solved searched a different
// number of Phase-1 nodes than the serial reference did.
func sameSearch(t *testing.T, inst int, tick string, pool, serial *PoolResult) {
	t.Helper()
	for i := range pool.VCs {
		p, s := pool.VCs[i].Decision, serial.VCs[i].Decision
		if p.Phase1Nodes != s.Phase1Nodes {
			t.Fatalf("instance %d, %s tick, %s: pool searched %d Phase-1 nodes, serial %d",
				inst, tick, pool.VCs[i].VC, p.Phase1Nodes, s.Phase1Nodes)
		}
	}
}

// TestPhase1MatchesBruteForce checks the exact Phase-1 engine against a
// full 0/1 enumeration on randomized small instances (≤ 14 devices):
// branch and bound must find the proven optimum of the two-constraint
// knapsack (14). The first family draws devices with private streams
// (distinct storage weights, one compute weight); the second is one
// channel's audience — a shared stream, so one storage weight, and one
// to three display resolutions, so as many compute weights — which is
// where the search's cardinality bound does the pruning.
func TestPhase1MatchesBruteForce(t *testing.T) {
	base := makeCluster(t, 64, 998)
	rng := stats.NewRNG(17)
	checked := 0
	for inst := 0; inst < 80; inst++ {
		n := 2 + rng.Intn(13) // 2..14 devices
		reqs := make([]Request, n)
		for i := range reqs {
			r := base[rng.Intn(len(base))]
			r.DeviceID = fmt.Sprintf("bf-%02d", i)
			r.EnergyFrac = rng.Uniform(0.05, 1)
			r.Gamma = rng.Uniform(0.15, 0.6)
			reqs[i] = r
		}
		if phase1MatchesBruteForce(t, fmt.Sprintf("instance %d", inst), reqs, 1+rng.Intn(4)) {
			checked++
		}
	}
	if checked < 40 {
		t.Fatalf("only %d instances had eligible devices", checked)
	}
	resolutions := []display.Resolution{display.Res1080p, display.Res720p, display.Res1440p}
	checked = 0
	for inst := 0; inst < 60; inst++ {
		reqs := makeVCSet(t, 1, 2+rng.Intn(13), int64(3000+inst))[0].Requests
		classes := 1 + inst%3
		for i := range reqs {
			reqs[i].Display.Resolution = resolutions[rng.Intn(classes)]
		}
		if phase1MatchesBruteForce(t, fmt.Sprintf("%d-resolution VC %d", classes, inst), reqs, 1+rng.Intn(12)) {
			checked++
		}
	}
	if checked < 40 {
		t.Fatalf("only %d shared-stream instances had eligible devices", checked)
	}
}

// phase1MatchesBruteForce states the Phase-1 problem of reqs on a server
// of the given size and solves it both ways; it reports false when no
// device is eligible and there is nothing to compare.
func phase1MatchesBruteForce(t *testing.T, name string, reqs []Request, streams int) bool {
	t.Helper()
	server, err := edge.NewServer(streams)
	if err != nil {
		t.Fatal(err)
	}
	s := mustScheduler(t, Config{Server: server, Lambda: 1})
	plans, err := s.buildPlans(reqs)
	if err != nil {
		t.Fatal(err)
	}
	sc := planScratch{slab: plans}
	for _, e := range sc.placeEligible() {
		sc.values = append(sc.values, e.p.saving)
	}
	eligible := sc.eligible
	if len(eligible) == 0 {
		return false
	}
	prob := s.knapsack(&sc)
	bb, err := ilp.BranchBound(prob, ilp.BBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := ilp.BruteForce(prob)
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Optimal {
		t.Fatalf("%s: branch and bound hit its node limit on %d items", name, len(eligible))
	}
	if math.Abs(bb.Value-bf.Value) > 1e-9 {
		t.Fatalf("%s: branch-and-bound value %v != brute-force optimum %v (%d eligible)",
			name, bb.Value, bf.Value, len(eligible))
	}
	return true
}

// TestParseCanonicalHeaderRoundTrip: the header Canonical writes parses
// back to the decision's own fields, floats bit for bit, with the rest
// of the encoding handed over untouched, and ReadCanonical reads the
// device lines back to the batch's IDs in ID order and their verdicts —
// for plain and degraded decisions alike. A device ID holding a newline
// is refused.
func TestParseCanonicalHeaderRoundTrip(t *testing.T) {
	base := makeCluster(t, 64, 995)
	rng := stats.NewRNG(5)
	for inst := 0; inst < 20; inst++ {
		vcs, cfg := randomInstance(rng, base)
		s := mustScheduler(t, cfg)
		for _, vc := range vcs {
			dec, err := s.Schedule(vc.Requests)
			if inst%4 == 3 {
				dec, err = s.ScheduleDegraded(vc.Requests, Degradation{Phase1Greedy: true, Phase2Skipped: true})
			}
			if err != nil {
				t.Fatal(err)
			}
			canonical := string(dec.Canonical())
			h, rest, ok := ParseCanonicalHeader(canonical)
			want := CanonicalHeader{dec.Selected, dec.Eligible, dec.Swaps, dec.OptimalPhase1, dec.Phase1Value, dec.Objective}
			if !ok || h != want {
				t.Fatalf("instance %d: parsed %+v (ok=%t), decision has %+v\n%s", inst, h, ok, want, canonical)
			}
			if !strings.HasSuffix(canonical, "\n"+rest) || strings.Count(canonical, "\n") != strings.Count(rest, "\n")+1 {
				t.Fatalf("instance %d: rest is not the encoding minus its header line:\n%s", inst, canonical)
			}
			lines := 0
			ok = ReadCanonical(dec.Canonical(), dec.Degraded.Any(), len(vc.Requests), func(k int, id []byte, x bool) {
				i := k
				if order := dec.IDOrder(); order != nil {
					i = order[k]
				}
				if lines++; string(id) != vc.Requests[i].DeviceID || x != dec.X[i] {
					t.Fatalf("instance %d: line %d reads %s=%t, want %s=%t", inst, k, id, x, vc.Requests[i].DeviceID, dec.X[i])
				}
			})
			if !ok || lines != len(vc.Requests) {
				t.Fatalf("instance %d: ReadCanonical ok=%t after %d of %d lines:\n%s", inst, ok, lines, len(vc.Requests), canonical)
			}
		}
	}
	s := mustScheduler(t, Config{Lambda: 1})
	reqs := append([]Request(nil), base[:4]...)
	reqs[1].DeviceID = "a\nb=true"
	dec, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if ReadCanonical(dec.Canonical(), false, len(reqs), func(int, []byte, bool) { t.Fatal("a line read from a shifted encoding") }) {
		t.Error("an encoding with a newline in a device ID was read")
	}
	// A verdict is true or false; any other token refuses the encoding
	// rather than reading as false.
	okReqs := base[:2]
	okDec, err := s.Schedule(okReqs)
	if err != nil {
		t.Fatal(err)
	}
	good := okDec.Canonical()
	for _, verdict := range []string{"", "TRUE", "False", "1", "true ", "falsey", "t"} {
		bad := bytes.Replace(good, []byte("="+strconv.FormatBool(okDec.X[len(okReqs)-1])+"\n"), []byte("="+verdict+"\n"), 1)
		if bytes.Equal(bad, good) {
			t.Fatalf("no verdict to corrupt in:\n%s", good)
		}
		if ReadCanonical(bad, false, len(okReqs), func(int, []byte, bool) {}) {
			t.Errorf("verdict token %q was read:\n%s", verdict, bad)
		}
	}
	if !ReadCanonical(good, false, len(okReqs), func(int, []byte, bool) {}) {
		t.Errorf("the uncorrupted encoding was refused:\n%s", good)
	}
	for _, bad := range []string{"", "selected=1", "garbage\n", "selected=1 eligible=2 swaps=0 optimal=maybe phase1=0 objective=0\n"} {
		if _, _, ok := ParseCanonicalHeader(bad); ok {
			t.Errorf("%q parsed as a canonical header", bad)
		}
	}
}

// fmtCanonical is Decision.Canonical as it was written with fmt, kept as
// the reference AppendCanonical is held to.
func fmtCanonical(d Decision) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "selected=%d eligible=%d swaps=%d optimal=%t phase1=%.17g objective=%.17g\n",
		d.Selected, d.Eligible, d.Swaps, d.OptimalPhase1, d.Phase1Value, d.Objective)
	if d.Degraded.Any() {
		fmt.Fprintf(&b, "degraded=phase1:%t phase2:%t\n", d.Degraded.Phase1Greedy, d.Degraded.Phase2Skipped)
	}
	order := d.IDOrder()
	for k := range d.X {
		i := k
		if order != nil {
			i = order[k]
		}
		fmt.Fprintf(&b, "%s=%t\n", d.batch[i].DeviceID, d.X[i])
	}
	return b.Bytes()
}

// TestAppendCanonicalMatchesFmt holds AppendCanonical to the fmt
// encoding it replaced: scheduled decisions, plain and degraded, over
// sorted and unsorted batches (a non-nil IDOrder), and hand-built ones
// whose header holds every float fmt's %.17g has a special form for. It
// also holds PoolResult.Canonical to its fmt form, and appending to a
// non-empty buffer to leaving the prefix alone.
func TestAppendCanonicalMatchesFmt(t *testing.T) {
	base := makeCluster(t, 24, 41)
	s := mustScheduler(t, Config{Lambda: 1})
	var decs []Decision
	for inst := 0; inst < 8; inst++ {
		reqs := append([]Request(nil), base[:4+inst*2]...)
		if inst%2 == 1 {
			reqs[0], reqs[len(reqs)-1] = reqs[len(reqs)-1], reqs[0]
		}
		dec, err := s.Schedule(reqs)
		if inst%4 >= 2 {
			dec, err = s.ScheduleDegraded(reqs, Degradation{Phase1Greedy: inst%4 == 2, Phase2Skipped: true})
		}
		if err != nil {
			t.Fatal(err)
		}
		if inst%2 == 1 && dec.IDOrder() == nil {
			t.Fatalf("instance %d: the unsorted batch is in ID order", inst)
		}
		decs = append(decs, dec)
	}
	for i, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 1e-7, 0.1, math.MaxFloat64, 5e-324, 123456789012345678} {
		d := decs[i%len(decs)]
		d.Phase1Value, d.Objective = x, -x
		d.Selected, d.Eligible, d.Swaps, d.OptimalPhase1 = -i, i*1000, i%3, i%2 == 0
		decs = append(decs, d)
	}
	for i, d := range decs {
		want := fmtCanonical(d)
		if got := d.Canonical(); !bytes.Equal(got, want) {
			t.Fatalf("decision %d: Canonical\n%s\nfmt\n%s", i, got, want)
		}
		if got := d.AppendCanonical([]byte("prefix\n")); string(got) != "prefix\n"+string(want) {
			t.Fatalf("decision %d: AppendCanonical after a prefix\n%s", i, got)
		}
	}
	res := PoolResult{VCs: []VCDecision{{VC: "a", Decision: decs[0]}, {VC: "b c", Decision: decs[3]}}}
	var want bytes.Buffer
	for _, vc := range res.VCs {
		fmt.Fprintf(&want, "vc %s\n", vc.VC)
		want.Write(fmtCanonical(vc.Decision))
	}
	if got := res.Canonical(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("PoolResult.Canonical\n%s\nfmt\n%s", got, want.Bytes())
	}
}

// TestPoolCapacityAndEligibilityProperty: every pool decision respects
// the compute (C) and storage (S) capacities and never selects a device
// failing the energy-feasibility constraint (11).
func TestPoolCapacityAndEligibilityProperty(t *testing.T) {
	base := makeCluster(t, 64, 997)
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		vcs, cfg := randomInstance(rng, base)
		pool, err := NewPool(cfg, PoolConfig{Workers: 3})
		if err != nil {
			return false
		}
		res, err := pool.Decide(vcs)
		if err != nil {
			return false
		}
		checker := mustScheduler(t, cfg)
		for i, vc := range res.VCs {
			// res.VCs is ID-ordered; recover the matching input.
			var reqs []Request
			for _, in := range vcs {
				if in.ID == vc.VC {
					reqs = in.Requests
				}
			}
			plans, err := checker.buildPlans(reqs)
			if err != nil {
				return false
			}
			usedG, usedH := 0.0, 0.0
			for k, p := range plans {
				if !vc.Decision.X[k] {
					continue
				}
				if !p.eligible {
					t.Logf("vc %d selected ineligible device %s", i, p.req.DeviceID)
					return false
				}
				usedG += p.g
				usedH += p.h
			}
			if cfg.Server != nil && !cfg.Server.Fits(usedG, usedH) {
				t.Logf("vc %d violates capacity: g=%v h=%v", i, usedG, usedH)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolSameSeedDeterministicProperty: repeated runs with the same
// seed — and any worker count — produce byte-identical decisions.
func TestPoolSameSeedDeterministicProperty(t *testing.T) {
	base := makeCluster(t, 64, 996)
	f := func(seed int64) bool {
		buildOnce := func(workers int) []byte {
			rng := stats.NewRNG(seed)
			vcs, cfg := randomInstance(rng, base)
			pool, err := NewPool(cfg, PoolConfig{Workers: workers})
			if err != nil {
				return nil
			}
			res, err := pool.Decide(vcs)
			if err != nil {
				return nil
			}
			return res.Canonical()
		}
		first := buildOnce(1)
		if first == nil {
			return false
		}
		for _, workers := range []int{1, 2, 8} {
			if !bytes.Equal(first, buildOnce(workers)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelCompactingMatchesSerial pins the intra-VC fan-out: a
// pool of many workers compacts one VC of three chunks in parallel, and
// its plans and decision must be bit-identical to DecideSerial's serial
// compactor — the plans and verdicts position by position, the decision
// byte for byte.
func TestParallelCompactingMatchesSerial(t *testing.T) {
	server, err := edge.NewServer(20)
	if err != nil {
		t.Fatal(err)
	}
	reqs := makeCluster(t, 150, 321)
	if len(reqs) <= 2*compactChunk {
		t.Fatalf("%d devices do not span three compaction chunks", len(reqs))
	}
	cfg := Config{Server: server, Lambda: 2}
	pool, err := NewPool(cfg, PoolConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	serial := mustScheduler(t, cfg)
	vcs := []VC{{ID: "vc", Requests: reqs}}
	dp, err := pool.Decide(vcs)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DecideSerial(serial, vcs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ds.Canonical(), dp.Canonical()) || !slices.Equal(ds.Decision().PerDevice, dp.Decision().PerDevice) {
		t.Fatalf("parallel compacting changed the decision:\nserial:\n%s\nparallel:\n%s",
			ds.Canonical(), dp.Canonical())
	}
	var sc planScratch
	if err := sc.validate(reqs); err != nil {
		t.Fatal(err)
	}
	serial.buildPlansInto(reqs, &sc, 8)
	want, err := serial.buildPlans(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sc.slab, want) {
		t.Fatal("parallel compacting built different plans from the serial compactor")
	}
	// Error reporting is deterministic too: the lowest-index invalid
	// request wins.
	bad := []VC{{ID: "vc", Requests: append([]Request(nil), reqs...)}}
	bad[0].Requests[3].Gamma, bad[0].Requests[100].Gamma = 0, 0
	_, errP := pool.Decide(bad)
	_, errS := DecideSerial(serial, bad)
	if errS == nil || errP == nil || errS.Error() != errP.Error() {
		t.Fatalf("error selection differs: serial %v vs parallel %v", errS, errP)
	}
}

// TestScheduleStableUnderCanonicalOrder pins the determinism contract
// the edge daemon relies on: feeding the same request set in canonical
// (DeviceID-sorted) order always yields the same decision, no matter
// how the batch was originally ordered — the map-iteration fix.
func TestScheduleStableUnderCanonicalOrder(t *testing.T) {
	server, err := edge.NewServer(6)
	if err != nil {
		t.Fatal(err)
	}
	s := mustScheduler(t, Config{Server: server, Lambda: 3})
	reqs := makeCluster(t, 40, 555)
	// Three adversarial permutations of the same batch.
	perms := [][]Request{
		append([]Request(nil), reqs...),
		make([]Request, len(reqs)),
		make([]Request, len(reqs)),
	}
	for i := range reqs {
		perms[1][len(reqs)-1-i] = reqs[i] // reversed
	}
	for i, j := range stats.NewRNG(9).Perm(len(reqs)) { // shuffled
		perms[2][i] = reqs[j]
	}
	var want []byte
	for i, perm := range perms {
		SortRequests(perm)
		dec, err := s.Schedule(perm)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = dec.Canonical()
			continue
		}
		if !bytes.Equal(want, dec.Canonical()) {
			t.Fatalf("permutation %d changed the canonical-order decision:\n%s\nvs\n%s",
				i, want, dec.Canonical())
		}
	}
}

// TestPoolValidation covers the constructor and merge error paths.
func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(Config{}, PoolConfig{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := NewPool(Config{Lambda: -1}, PoolConfig{}); err == nil {
		t.Fatal("invalid scheduler config accepted")
	}
	pool, err := NewPool(Config{}, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Workers() != 2 || pool.Scheduler() == nil {
		t.Fatalf("pool accessors wrong: workers=%d", pool.Workers())
	}
	if _, err := pool.Decide([]VC{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Fatal("duplicate VC IDs accepted")
	}
	empty, err := pool.Decide(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.VCs) != 0 {
		t.Fatalf("decisions for no VCs: %+v", empty)
	}
	// A failing VC reports its ID, and the first failure in ID order
	// wins deterministically.
	bad := makeCluster(t, 3, 7)
	bad[1].Gamma = 0
	vcs := []VC{
		{ID: "z-ok", Requests: makeCluster(t, 2, 8)},
		{ID: "a-bad", Requests: bad},
	}
	_, err = pool.Decide(vcs)
	if err == nil {
		t.Fatal("invalid VC accepted")
	}
	sr := mustScheduler(t, Config{})
	_, serr := DecideSerial(sr, vcs)
	if serr == nil || err.Error() != serr.Error() {
		t.Fatalf("pool error %q != serial error %q", err, serr)
	}
}

// TestPoolTimingFields sanity-checks the wall/CPU split the Fig. 10
// overhead metric relies on.
func TestPoolTimingFields(t *testing.T) {
	vcs := makeVCSet(t, 4, 30, 3)
	pool, err := NewPool(Config{Lambda: 1}, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Decide(vcs)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallSeconds <= 0 || res.CPUSeconds <= 0 {
		t.Fatalf("missing timings: %+v", res)
	}
	if res.Workers != 2 {
		t.Fatalf("workers = %d", res.Workers)
	}
	sum := 0.0
	for i, vc := range res.VCs {
		if vc.WallSeconds < 0 {
			t.Fatalf("vc %d negative wall time", i)
		}
		if i > 0 && res.VCs[i-1].VC >= vc.VC {
			t.Fatalf("VCs not ID-ordered: %q before %q", res.VCs[i-1].VC, vc.VC)
		}
		sum += vc.WallSeconds
	}
	if math.Abs(sum-res.CPUSeconds) > 1e-9 {
		t.Fatalf("CPUSeconds %v != per-VC sum %v", res.CPUSeconds, sum)
	}
}

// TestPoolVCStats checks the per-VC health accumulator: one row per VC
// ID, tick counts and funnel snapshots matching the decisions.
func TestPoolVCStats(t *testing.T) {
	vcs := makeVCSet(t, 3, 25, 7)
	pool, err := NewPool(Config{Lambda: 1}, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 4
	var last *PoolResult
	for i := 0; i < ticks; i++ {
		last, err = pool.Decide(vcs)
		if err != nil {
			t.Fatal(err)
		}
	}
	stats := pool.VCStats()
	if len(stats) != len(vcs) {
		t.Fatalf("VCStats rows = %d, want %d", len(stats), len(vcs))
	}
	for i, st := range stats {
		if i > 0 && stats[i-1].Key >= st.Key {
			t.Fatalf("VCStats not key-ordered: %q before %q", stats[i-1].Key, st.Key)
		}
		if st.Ticks != ticks {
			t.Fatalf("stream %s ticks = %d, want %d", st.Key, st.Ticks, ticks)
		}
		if st.WallSecondsTotal < st.LastWallSeconds || st.LastWallSeconds < 0 {
			t.Fatalf("stream %s wall accounting: %+v", st.Key, st)
		}
		var dec *VCDecision
		for j := range last.VCs {
			if last.VCs[j].VC == st.Key {
				dec = &last.VCs[j]
			}
		}
		if dec == nil {
			t.Fatalf("stream %s has no matching decision", st.Key)
		}
		if st.LastSelected != dec.Decision.Selected || st.LastEligible != dec.Decision.Eligible {
			t.Fatalf("stream %s funnel snapshot %+v != decision %+v", st.Key, st, dec.Decision)
		}
		if st.LastRequests != 25 {
			t.Fatalf("stream %s requests = %d", st.Key, st.LastRequests)
		}
	}
	// A new VC ID gets its own row, leaving the others as they were.
	if _, err := pool.Decide([]VC{{ID: "edge", Requests: vcs[0].Requests}}); err != nil {
		t.Fatal(err)
	}
	rows := pool.VCStats()
	if len(rows) != len(vcs)+1 {
		t.Fatalf("VCStats rows after a new ID = %d, want %d", len(rows), len(vcs)+1)
	}
	for _, st := range rows {
		want := uint64(ticks)
		if st.Key == "edge" {
			want = 1
		}
		if st.Ticks != want {
			t.Fatalf("row %s ticks = %d, want %d", st.Key, st.Ticks, want)
		}
	}
}

// TestConcurrentDecideIntoMatchesSerial has two goroutines decide
// different VC sets on one Pool at once, each into its own kept result,
// for several ticks, the larger VCs compacted in parallel: the free
// list must never hand one scratch to two solves (the race run checks
// that), and each result must equal DecideSerial byte for byte.
func TestConcurrentDecideIntoMatchesSerial(t *testing.T) {
	server, err := edge.NewServer(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Server: server, Lambda: 1.5}
	pool, err := NewPool(cfg, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	serial := mustScheduler(t, cfg)
	sets := [][]VC{makeVCSet(t, 3, 40, 11), makeVCSet(t, 2, 2*compactChunk+10, 12)}
	var wg sync.WaitGroup
	for g, vcs := range sets {
		wg.Add(1)
		go func(g int, vcs []VC) {
			defer wg.Done()
			var res PoolResult
			for tick := 0; tick < 6; tick++ {
				for v := range vcs {
					reqs := append([]Request(nil), vcs[v].Requests...)
					k := (tick * 7) % len(reqs)
					reqs[k].EnergyFrac = 1 - 0.9*reqs[k].EnergyFrac
					vcs[v].Requests = reqs
				}
				if err := pool.DecideInto(context.Background(), vcs, &res); err != nil {
					t.Error(err)
					return
				}
				want, err := DecideSerial(serial, vcs)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(res.Canonical(), want.Canonical()) {
					t.Errorf("goroutine %d tick %d: DecideInto diverged from DecideSerial", g, tick)
					return
				}
			}
		}(g, vcs)
	}
	wg.Wait()
}
