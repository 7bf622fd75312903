package scheduler

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// A deadline the scheduler cannot plausibly miss must be invisible:
// across the full differential corpus, the deadline-bounded call
// produces byte-identical decisions to the unbounded call and no
// degradation flags. This is the "no deadline => no behaviour change"
// half of the anytime contract (DESIGN.md §12).
func TestGenerousDeadlineByteIdentical(t *testing.T) {
	base := makeCluster(t, 64, 998)
	rng := stats.NewRNG(20260806)
	const instances = 210
	for inst := 0; inst < instances; inst++ {
		vcs, cfg := randomInstance(rng, base)
		plain := mustScheduler(t, cfg)
		bounded := mustPool(t, cfg)
		for _, vc := range vcs {
			want, err := plain.Schedule(vc.Requests)
			if err != nil {
				t.Fatalf("instance %d vc %s: %v", inst, vc.ID, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			got, err := decideUnder(ctx, bounded, vc.Requests)
			cancel()
			if err != nil {
				t.Fatalf("instance %d vc %s: %v", inst, vc.ID, err)
			}
			if got.Degraded.Any() {
				t.Fatalf("instance %d vc %s: generous deadline degraded (%s)",
					inst, vc.ID, got.Degraded.Reason())
			}
			if !bytes.Equal(want.Canonical(), got.Canonical()) {
				t.Fatalf("instance %d vc %s: deadline changed decision bytes", inst, vc.ID)
			}
		}
	}
}

// An expired deadline must still yield a valid decision: eligible
// devices only, capacity respected, degradation flagged with a stable
// reason — and the degraded decision must be a deterministic function
// of (config, requests, degradation): forcing the recorded degradation
// through ScheduleDegraded reproduces the live bytes.
func TestExpiredDeadlineFeasibleAndReplayable(t *testing.T) {
	base := makeCluster(t, 64, 995)
	rng := stats.NewRNG(20260807)
	for inst := 0; inst < 60; inst++ {
		vcs, cfg := randomInstance(rng, base)
		pool := mustPool(t, cfg)
		s := pool.Scheduler()
		for _, vc := range vcs {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			dec, err := decideUnder(ctx, pool, vc.Requests)
			cancel()
			if err != nil {
				t.Fatalf("instance %d vc %s: %v", inst, vc.ID, err)
			}
			if dec.Eligible > 0 && cfg.Lambda > 0 && !cfg.DisableSwap && !dec.Degraded.Phase2Skipped {
				t.Fatalf("instance %d vc %s: expired deadline did not skip phase 2", inst, vc.ID)
			}
			if dec.Degraded.Any() && dec.Degraded.Reason() == "" {
				t.Fatalf("instance %d vc %s: degraded without reason", inst, vc.ID)
			}
			assertFeasible(t, s, vc.Requests, dec)
			// Forced replay of the recorded degradation reproduces the
			// live degraded decision byte for byte.
			replayed, err := s.ScheduleDegraded(vc.Requests, dec.Degraded)
			if err != nil {
				t.Fatalf("instance %d vc %s: replay: %v", inst, vc.ID, err)
			}
			if !bytes.Equal(dec.Canonical(), replayed.Canonical()) {
				t.Fatalf("instance %d vc %s: forced degradation diverged from live decision",
					inst, vc.ID)
			}
		}
	}
}

// mustPool builds a one-worker pool of cfg.
func mustPool(tb testing.TB, cfg Config) *Pool {
	tb.Helper()
	pool, err := NewPool(cfg, PoolConfig{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return pool
}

// decideUnder decides reqs as one cluster under ctx — its deadline, its
// span — into a fresh result: the engine's deadline-aware way in.
func decideUnder(ctx context.Context, pool *Pool, reqs []Request) (Decision, error) {
	var res PoolResult
	if err := pool.DecideInto(ctx, []VC{{ID: "vc", Requests: reqs}}, &res); err != nil {
		return Decision{}, err
	}
	return res.Decision(), nil
}

// assertFeasible checks the decision selects only eligible devices and
// fits the configured edge capacity.
func assertFeasible(t *testing.T, s *Scheduler, reqs []Request, dec Decision) {
	t.Helper()
	plans, err := s.buildPlans(reqs)
	if err != nil {
		t.Fatal(err)
	}
	usedG, usedH := 0.0, 0.0
	for i, p := range plans {
		if !dec.X[i] {
			continue
		}
		if !p.eligible {
			t.Fatalf("selected ineligible device %s", p.req.DeviceID)
		}
		usedG += p.g
		usedH += p.h
	}
	if s.cfg.Server != nil && !s.cfg.Server.Fits(usedG, usedH) {
		t.Fatalf("capacity violated: g=%v h=%v", usedG, usedH)
	}
}

// Degradation.Reason covers every flag combination with stable strings
// (they are persisted in audit records and the tick API).
func TestDegradationReasonStrings(t *testing.T) {
	cases := []struct {
		deg  Degradation
		want string
	}{
		{Degradation{}, ""},
		{Degradation{Phase1Greedy: true}, "deadline:phase1-greedy"},
		{Degradation{Phase2Skipped: true}, "deadline:phase2-skipped"},
		{Degradation{Phase1Greedy: true, Phase2Skipped: true}, "deadline:phase1-greedy+phase2-skipped"},
	}
	for _, c := range cases {
		if got := c.deg.Reason(); got != c.want {
			t.Errorf("Reason(%+v) = %q, want %q", c.deg, got, c.want)
		}
		if c.deg.Any() != (c.want != "") {
			t.Errorf("Any(%+v) inconsistent with Reason", c.deg)
		}
	}
}

// The degraded-decision bytes are marked: Canonical() of a degraded
// decision differs from the undegraded decision on the same input, and
// carries the degradation line; undegraded decisions keep the historic
// encoding (no line), so old audit corpora stay byte-valid.
func TestCanonicalMarksDegradation(t *testing.T) {
	reqs := makeCluster(t, 24, 123)
	server, err := edge.NewServer(6)
	if err != nil {
		t.Fatal(err)
	}
	s := mustScheduler(t, Config{Lambda: 1, Server: server})
	plain, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain.Canonical(), []byte("degraded=")) {
		t.Fatal("undegraded decision carries a degraded line")
	}
	deg, err := s.ScheduleDegraded(reqs, Degradation{Phase1Greedy: true, Phase2Skipped: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(deg.Canonical(), []byte("degraded=phase1:true phase2:true\n")) {
		t.Fatalf("degraded decision missing marker:\n%s", deg.Canonical())
	}
}

// The anytime bound at scale: a 10k-device instance under a 1 ms
// deadline must return promptly with a feasible decision. The elapsed
// wall time is logged against the 10x-budget target; the hard assert
// is deliberately loose (CI machines vary) but still orders of
// magnitude below the undegraded solve on a slow box.
func TestTinyDeadlineLargeInstanceAnytime(t *testing.T) {
	reqs := makeBigCluster(t, 10_000, 314)
	server, err := edge.NewServer(100)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, Config{Lambda: 1, Server: server})
	s := pool.Scheduler()

	const budget = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	start := time.Now()
	dec, err := decideUnder(ctx, pool, reqs)
	elapsed := time.Since(start)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("10k devices, %v budget: %v elapsed (10x budget = %v), degraded=%v (%s), selected=%d",
		budget, elapsed, 10*budget, dec.Degraded.Any(), dec.Degraded.Reason(), dec.Selected)
	if !dec.Degraded.Any() && elapsed > budget {
		t.Fatalf("deadline blown (%v > %v) without degradation", elapsed, budget)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("anytime mode took %v for a 1 ms budget", elapsed)
	}
	assertFeasible(t, s, reqs, dec)
}

// makeBigCluster builds n requests sharing one generated stream —
// cheap enough for 10k-device instances, unlike the per-device streams
// of makeCluster.
func makeBigCluster(tb testing.TB, n int, seed int64) []Request {
	tb.Helper()
	rng := stats.NewRNG(seed)
	vid, err := video.Generate(rng.Fork(), video.DefaultGenConfig("big", video.Gaming, 30))
	if err != nil {
		tb.Fatal(err)
	}
	reqs := make([]Request, n)
	for i := range reqs {
		ty := display.LCD
		if rng.Intn(2) == 0 {
			ty = display.OLED
		}
		reqs[i] = Request{
			DeviceID:         fmt.Sprintf("big-%05d", i),
			Display:          display.Spec{Type: ty, Resolution: display.Res1080p, DiagonalInch: 6, Brightness: 0.6},
			EnergyFrac:       rng.TruncNormal(0.5, 0.2, 0.05, 1),
			BatteryCapacityJ: 50_000,
			BasePowerW:       0.9,
			Chunks:           vid.Chunks,
			Gamma:            rng.Uniform(0.2, 0.45),
		}
	}
	return reqs
}
