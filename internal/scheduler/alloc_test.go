package scheduler

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"lpvs/internal/edge"
	"lpvs/internal/testenv"
)

// scheduleAllocs is the allocation count of one Schedule call, which
// must succeed.
func scheduleAllocs(t *testing.T, s *Scheduler, reqs []Request) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		if _, err := s.Schedule(reqs); err != nil {
			t.Fatal(err)
		}
	})
}

// TestColdScheduleAllocsDoNotScaleWithDevices guards the cold solve
// (Schedule, ScheduleDegraded, audit replay): plans are built
// into one slab per call and the outcome into two slices, so doubling
// the cluster adds only the bucket arrays of the two ID-keyed maps
// Schedule builds at the boundary (16 more allocations from 2,000 to
// 4,000 devices), nothing per device.
func TestColdScheduleAllocsDoNotScaleWithDevices(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	server, err := edge.NewServer(100)
	if err != nil {
		t.Fatal(err)
	}
	big := makeBigCluster(t, 4000, 77)
	for _, workers := range []int{1, 4} {
		s := mustScheduler(t, Config{Server: server, Lambda: 1.5, CompactWorkers: workers})
		small := scheduleAllocs(t, s, big[:2000])
		large := scheduleAllocs(t, s, big)
		t.Logf("workers=%d: %.0f allocs at 2,000, %.0f at 4,000", workers, small, large)
		if large-small >= 40 || large >= 100 {
			t.Fatalf("workers=%d: cold Schedule allocates %.0f at 2,000 devices and %.0f at 4,000: still scales with devices",
				workers, small, large)
		}
	}
}

// TestChurnedSlotAllocsNoPerDeviceObjects guards the incremental path's
// worst case, the one edge-10k-cold runs every slot: every known device
// reports changed content, so every plan is rebuilt — in its existing
// cache entry, key refreshed in place. What is left is the decision's
// two slices and the pool's per-tick bookkeeping.
func TestChurnedSlotAllocsNoPerDeviceObjects(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	server, err := edge.NewServer(100)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	// Two request sets over the same devices, every request different.
	a := makeBigCluster(t, n, 78)
	b := append([]Request(nil), a...)
	for i := range b {
		b[i].EnergyFrac = 1 - 0.9*a[i].EnergyFrac
	}
	s := mustWarmStream(t, Config{Server: server, Lambda: 1.5})
	flip := false
	next := func() []Request {
		flip = !flip
		if flip {
			return a
		}
		return b
	}
	if _, err := s.Schedule(next()); err != nil { // slot 1: every device new
		t.Fatal(err)
	}
	var dec Decision
	allocs := testing.AllocsPerRun(6, func() {
		var err error
		if dec, err = s.Schedule(next()); err != nil {
			t.Fatal(err)
		}
	})
	if dec.PlanCacheMisses != n || dec.PlanCacheHits != 0 {
		t.Fatalf("slot was meant to churn every device: %d hits, %d misses", dec.PlanCacheHits, dec.PlanCacheMisses)
	}
	t.Logf("churned slot: %.0f allocs", allocs)
	if allocs >= 40 {
		t.Fatalf("a fully churned slot over %d known devices allocates %.0f objects: per-device allocations are back", n, allocs)
	}
}

// TestPoolDecideAllocsBytesPerDevice guards the daemon's path in bytes:
// a warm stream's fully churned Pool.Decide call allocates its result —
// one []bool and one []Verdict element per device — and nothing else
// that grows with the cluster: no ID-keyed map, no per-call Phase-1 or
// Phase-2 slice (planScratch owns them). The slope between 2,000 and
// 8,000 devices is therefore the size of those two elements, plus the
// allocator's rounding of two large objects.
func TestPoolDecideAllocsBytesPerDevice(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	server, err := edge.NewServer(100)
	if err != nil {
		t.Fatal(err)
	}
	big := makeBigCluster(t, 8000, 79)
	SortRequests(big)
	bytesPerCall := func(n int) float64 {
		a := big[:n]
		b := append([]Request(nil), a...)
		for i := range b {
			b[i].EnergyFrac = 1 - 0.9*a[i].EnergyFrac
		}
		pool, err := NewPool(Config{Server: server, Lambda: 1.5}, PoolConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		decide := func(reqs []Request) {
			res, err := pool.Decide([]VC{{ID: "vc", Requests: reqs}})
			if err != nil {
				t.Fatal(err)
			}
			if d := res.VCs[0].Decision; d.PlanCacheHits != 0 || len(d.X) != n || d.Transform != nil {
				t.Fatalf("call was meant to churn every device on the map-free path: %d hits, %d positions, maps %v",
					d.PlanCacheHits, len(d.X), d.Transform != nil)
			}
		}
		decide(a) // every device new: grows the scratch and the cache
		decide(b)
		best := 0.0
		var m0, m1 runtime.MemStats
		for run := 0; run < 4; run++ {
			runtime.ReadMemStats(&m0)
			decide(a)
			decide(b)
			runtime.ReadMemStats(&m1)
			if got := float64(m1.TotalAlloc-m0.TotalAlloc) / 2; run == 0 || got < best {
				best = got
			}
		}
		return best
	}
	small, large := bytesPerCall(2000), bytesPerCall(8000)
	slope := (large - small) / 6000
	element := float64(unsafe.Sizeof(Verdict{}) + unsafe.Sizeof(false))
	t.Logf("%.0f B at 2,000 devices, %.0f B at 8,000: %.1f B per device (one result element is %.0f B)", small, large, slope, element)
	if slope > element+4 {
		t.Fatalf("a warm Pool.Decide call grows by %.1f B per device, want at most the %.0f B of its result", slope, element)
	}
}

// TestStreamResidentBytes bounds what a scheduling stream keeps between
// slots: a 10k-device stream after all-miss ticks, with the caller's
// kept PoolResult, measured as live heap after a collection. What is
// left is the plan cache — one entry per device, holding its
// fingerprint and plan — the kept result and the batch-sized scratch:
// about 3.2 MB, 320 B per device.
func TestStreamResidentBytes(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	server, err := edge.NewServer(100)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	a := makeBigCluster(t, n, 80)
	SortRequests(a)
	b := append([]Request(nil), a...)
	for i := range b {
		b[i].EnergyFrac = 1 - 0.9*a[i].EnergyFrac
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	pool, err := NewPool(Config{Server: server, Lambda: 1.5}, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := new(PoolResult)
	for _, reqs := range [][]Request{a, b, a, b} {
		if err := pool.DecideInto(context.Background(), []VC{{ID: "vc", StateKey: "edge", Requests: reqs}}, res); err != nil {
			t.Fatal(err)
		}
		if d := res.Decision(); d.PlanCacheHits != 0 || d.PlanCacheMisses != n {
			t.Fatalf("tick was meant to miss every device: %d hits, %d misses", d.PlanCacheHits, d.PlanCacheMisses)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(pool)
	runtime.KeepAlive(res)
	retained := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	t.Logf("%d devices: %d B retained, %d B per device", n, retained, retained/n)
	if retained > 3_700_000 {
		t.Fatalf("a %d-device stream retains %d B (%d B per device)", n, retained, retained/n)
	}
}

// TestReusedSlabNeverCorruptsCache drives one stream through an all-miss
// slot, a half-changed slot, an unchanged slot (all hits, Phase-1
// memoised) and a slot with one device changed. Slot B rebuilds its
// misses in their own cache entries while its hits are served from the
// entries slot A built; a miss compacted into any plan but its own would
// make a hit read it. Every slot must equal the cold serial decision
// byte for byte.
func TestReusedSlabNeverCorruptsCache(t *testing.T) {
	server, err := edge.NewServer(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Server: server, Lambda: 1.5}
	warm := mustWarmStream(t, cfg)
	cold := mustScheduler(t, cfg)

	slotA := makeCluster(t, 48, 4242)
	SortRequests(slotA)
	slotB := append([]Request(nil), slotA...)
	for i := 0; i < len(slotB); i += 2 {
		slotB[i].EnergyFrac = 1 - 0.9*slotB[i].EnergyFrac
		slotB[i].Gamma = 0.6 - slotB[i].Gamma
	}
	slotC := append([]Request(nil), slotB...)
	slotD := append([]Request(nil), slotC...)
	slotD[1].EnergyFrac = 1 - 0.9*slotD[1].EnergyFrac

	for _, slot := range []struct {
		name         string
		reqs         []Request
		hits, misses int
	}{
		{"A all-miss", slotA, 0, 48},
		{"B half-changed", slotB, 24, 24},
		{"C unchanged", slotC, 48, 0},
		{"D one changed", slotD, 47, 1},
	} {
		got, err := warm.Schedule(slot.reqs)
		if err != nil {
			t.Fatalf("%s: %v", slot.name, err)
		}
		want, err := DecideSerial(cold, []VC{{ID: "vc", Requests: slot.reqs}})
		if err != nil {
			t.Fatalf("%s: cold: %v", slot.name, err)
		}
		if !bytes.Equal(got.Canonical(), want.VCs[0].Decision.Canonical()) {
			t.Fatalf("%s: incremental decision diverged from cold DecideSerial:\nwarm:\n%s\ncold:\n%s",
				slot.name, got.Canonical(), want.VCs[0].Decision.Canonical())
		}
		if got.PlanCacheHits != slot.hits || got.PlanCacheMisses != slot.misses {
			t.Fatalf("%s: hits=%d misses=%d, want %d/%d", slot.name,
				got.PlanCacheHits, got.PlanCacheMisses, slot.hits, slot.misses)
		}
		if slot.misses == 0 && !got.Phase1Cached {
			t.Fatalf("%s: an unchanged slot solved Phase-1 again", slot.name)
		}
	}
}

// TestDuplicateDeviceHitThenMiss covers the one way a by-value cache
// entry could be overwritten while a plan pointer into it is live: a
// request set naming a device twice, one copy as cached and the other
// changed, in either order. Each copy must keep its own plan, and the
// stream keeps the first copy — the second is built in the slab and
// never cached — so a next slot naming the device once, as that first
// copy, hits every plan.
func TestDuplicateDeviceHitThenMiss(t *testing.T) {
	cfg := Config{Lambda: 1.5}
	base := makeCluster(t, 6, 99)
	SortRequests(base)
	dup := base[2]
	dup.EnergyFrac = 0.02 // changes eligibility, objective and verdict
	for _, tc := range []struct {
		name          string
		first, second Request
		hits, misses  int
	}{
		{"hit-then-changed", base[2], dup, 6, 1},
		{"changed-copy-first", dup, base[2], 5, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warm := mustWarmStream(t, cfg)
			cold := mustScheduler(t, cfg)
			if _, err := warm.Schedule(base); err != nil {
				t.Fatal(err)
			}
			reqs := append(append([]Request(nil), base[:2]...), tc.first, tc.second)
			reqs = append(reqs, base[3:]...)
			kept := append([]Request(nil), base...)
			kept[2] = tc.first
			for k, want := range []struct {
				reqs         []Request
				hits, misses int
			}{{reqs, tc.hits, tc.misses}, {kept, len(kept), 0}} {
				got, err := warm.Schedule(want.reqs)
				if err != nil {
					t.Fatal(err)
				}
				cd, err := cold.Schedule(want.reqs)
				if err != nil {
					t.Fatal(err)
				}
				if got.PlanCacheHits != want.hits || got.PlanCacheMisses != want.misses {
					t.Fatalf("slot %d: hits=%d misses=%d, want %d/%d", k, got.PlanCacheHits, got.PlanCacheMisses, want.hits, want.misses)
				}
				if !bytes.Equal(got.Canonical(), cd.Canonical()) || !reflect.DeepEqual(got.PerDevice, cd.PerDevice) {
					t.Fatalf("slot %d diverged from cold:\nwarm (eligible %d):\n%s\ncold (eligible %d):\n%s",
						k, got.Eligible, got.Canonical(), cd.Eligible, cd.Canonical())
				}
			}
		})
	}
}
