package scheduler

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lpvs/internal/edge"
	"lpvs/internal/obs/span"
)

func benchCluster(b *testing.B, n int) []Request {
	b.Helper()
	return makeCluster(b, n, 42)
}

// BenchmarkSchedule measures the full two-phase scheduling path at
// paper-relevant cluster sizes (the per-call cost behind Fig. 10).
func BenchmarkSchedule(b *testing.B) {
	server, err := edge.NewServer(100)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := mustScheduler(b, Config{Server: server, Lambda: 1})
			reqs := benchCluster(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleExactVsGreedy contrasts the exact Phase-1 path with
// the greedy fallback at the threshold size.
func BenchmarkScheduleExactVsGreedy(b *testing.B) {
	server, err := edge.NewServer(30)
	if err != nil {
		b.Fatal(err)
	}
	reqs := benchCluster(b, 150)
	for _, mode := range []struct {
		name      string
		threshold int
	}{
		{"exact", 200},
		{"greedy", 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s := mustScheduler(b, Config{Server: server, Lambda: 1, ExactThreshold: mode.threshold})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPoolScaling measures the sharded engine across worker counts
// at the two ISSUE workloads: 1k devices in 8 VCs and 10k devices in 32
// VCs. The results recorded when the pool was added are quoted in
// CHANGES.md (PR 2); speedups only materialise where GOMAXPROCS offers
// real cores.
func BenchmarkPoolScaling(b *testing.B) {
	server, err := edge.NewServer(100)
	if err != nil {
		b.Fatal(err)
	}
	for _, wl := range []struct {
		name       string
		nVC, perVC int
	}{
		{"1k-8vc", 8, 125},
		{"10k-32vc", 32, 312},
	} {
		vcs := makeVCSet(b, wl.nVC, wl.perVC, 7)
		for _, workers := range []int{1, 2, 4, 8} {
			pool, err := NewPool(Config{Server: server, Lambda: 1}, PoolConfig{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/workers=%d", wl.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := decideFresh(pool, vcs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestPoolScalingWorkloadEquivalence pins the benchmark's correctness
// side: on the 10k-device/32-VC workload the 8-worker pool makes
// byte-identical decisions to the serial baseline.
func TestPoolScalingWorkloadEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-device workload")
	}
	server, err := edge.NewServer(100)
	if err != nil {
		t.Fatal(err)
	}
	vcs := makeVCSet(t, 32, 312, 7)
	pool, err := NewPool(Config{Server: server, Lambda: 1}, PoolConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := decideFresh(pool, vcs)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := DecideSerial(mustScheduler(t, Config{Server: server, Lambda: 1}), vcs)
	if err != nil {
		t.Fatal(err)
	}
	if string(canonical(pr)) != string(canonical(sr)) {
		t.Fatal("8-worker pool diverged from serial baseline on the benchmark workload")
	}
}

// BenchmarkPhase2Swap isolates the Phase-2 cost by comparing lambda=0
// (no swaps) with a heavily swapped configuration, at the exact-Phase-1
// size and at the size of the daemon's 10k-device tick (one shared
// window, greedy Phase-1).
func BenchmarkPhase2Swap(b *testing.B) {
	for _, bc := range []struct {
		streams int
		reqs    []Request
	}{
		{20, benchCluster(b, 200)},
		{100, makeBigCluster(b, 10_000, 42)},
	} {
		server, err := edge.NewServer(bc.streams)
		if err != nil {
			b.Fatal(err)
		}
		for _, lambda := range []float64{0, 10} {
			b.Run(fmt.Sprintf("n=%d/lambda=%v", len(bc.reqs), lambda), func(b *testing.B) {
				s := mustScheduler(b, Config{Server: server, Lambda: lambda})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Schedule(bc.reqs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScheduleTracing measures what span tracing costs the hot
// scheduling path. "untraced" decides under a context with no span;
// "sampling-off" carries one whose tracer is disabled (the production default),
// which must cost nothing measurable; "sampled" traces every call and
// prices the full instrumentation.
func BenchmarkScheduleTracing(b *testing.B) {
	server, err := edge.NewServer(100)
	if err != nil {
		b.Fatal(err)
	}
	reqs := benchCluster(b, 500)
	for _, mode := range []struct {
		name   string
		sample float64
		ctx    bool
	}{
		{"untraced", 0, false},
		{"sampling-off", 0, true},
		{"sampled", 1, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			pool := mustPool(b, Config{Server: server, Lambda: 1})
			vcs := []VC{{ID: "vc", Requests: reqs}}
			ctx := context.Background()
			if mode.ctx {
				tr := span.NewTracer(mode.sample)
				var sp *span.Span
				ctx, sp = tr.Start(ctx, "bench")
				defer sp.End()
			}
			var res PoolResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pool.DecideInto(ctx, vcs, &res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalSlots measures a pool's steady-state slot at
// several churn rates: each iteration is one slot whose batch differs
// from the previous slot's in churn% of the devices, solved cold in the
// scratch the slot before it grew. Workers=1 so the figure isolates
// the per-slot solve from pool parallelism.
func BenchmarkIncrementalSlots(b *testing.B) {
	server, err := edge.NewServer(100)
	if err != nil {
		b.Fatal(err)
	}
	for _, wl := range []struct {
		name       string
		nVC, perVC int
	}{
		{"1k-8vc", 8, 125},
		{"10k-32vc", 32, 312},
	} {
		base := makeVCSet(b, wl.nVC, wl.perVC, 7)
		for _, churnPct := range []int{0, 5, 20, 100} {
			b.Run(fmt.Sprintf("%s/churn=%d%%", wl.name, churnPct), func(b *testing.B) {
				pool, err := NewPool(Config{Server: server, Lambda: 1}, PoolConfig{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				vcs := cloneVCSet(base)
				// Prime slot 0 outside the timer: it grows the scratch,
				// steady state is what the benchmark prices.
				if _, err := decideFresh(pool, vcs); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					churnVCSet(vcs, churnPct, i)
					if _, err := decideFresh(pool, vcs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// cloneVCSet deep-copies the request slices so per-iteration churn
// mutations never leak across benchmark cases sharing one base
// workload.
func cloneVCSet(base []VC) []VC {
	out := make([]VC, len(base))
	for v := range base {
		reqs := make([]Request, len(base[v].Requests))
		copy(reqs, base[v].Requests)
		out[v] = VC{ID: base[v].ID, Requests: reqs}
	}
	return out
}

// churnVCSet mutates churnPct percent of each VC's requests for slot
// iteration it: the battery level always moves, the gamma estimate on
// every second mutated device — the two fields that actually drift
// between consecutive slots in production. The rotation (it % step)
// spreads the churn across different devices each slot, matching how
// real drain touches the whole fleet over time.
func churnVCSet(vcs []VC, churnPct, it int) {
	if churnPct == 0 {
		return
	}
	step := 100 / churnPct
	for v := range vcs {
		reqs := vcs[v].Requests
		for j := it % step; j < len(reqs); j += step {
			reqs[j].EnergyFrac = 0.05 + 0.9*float64((it*31+j*17)%97)/96
			if j%2 == 0 {
				reqs[j].Gamma = 0.2 + 0.25*float64((it*13+j*7)%89)/88
			}
		}
	}
}

// BenchmarkScheduleDeadline sweeps the anytime budget on one cluster
// sized into the exact-Phase-1 region, where the branch-and-bound solve
// dominates and the deadline has something to cut. As the budget drops
// below the full solve time the scheduler falls back to the recorded
// greedy/skip shortcuts (DESIGN.md §12) and latency tracks the budget
// instead of the instance. degraded/op reports how often the sweep
// actually degraded (0 = the budget was generous, 1 = every call).
// The results recorded with anytime mode are quoted in CHANGES.md (PR 5).
func BenchmarkScheduleDeadline(b *testing.B) {
	server, err := edge.NewServer(60)
	if err != nil {
		b.Fatal(err)
	}
	reqs := benchCluster(b, 200)
	for _, bc := range []struct {
		name   string
		budget time.Duration
	}{
		{"unbounded", 0},
		{"50ms", 50 * time.Millisecond},
		{"5ms", 5 * time.Millisecond},
		{"1ms", time.Millisecond},
		{"100us", 100 * time.Microsecond},
	} {
		b.Run("deadline="+bc.name, func(b *testing.B) {
			pool := mustPool(b, Config{Server: server, Lambda: 1})
			vcs := []VC{{ID: "vc", Requests: reqs}}
			var res PoolResult
			degraded := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if bc.budget > 0 {
					ctx, cancel = context.WithTimeout(ctx, bc.budget)
				}
				err := pool.DecideInto(ctx, vcs, &res)
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				if res.Decision().Degraded.Any() {
					degraded++
				}
			}
			b.ReportMetric(float64(degraded)/float64(b.N), "degraded/op")
		})
	}
}
