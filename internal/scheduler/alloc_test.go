package scheduler

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
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
// (Schedule, ScheduleDegraded, audit replay): plans are built into one
// slab per call and the outcome into two slices, so doubling the
// cluster adds only the bucket arrays of the ID-keyed map Schedule
// builds at the boundary, nothing per device. The pool arm guards the
// intra-VC fan-out the same way: a four-worker pool compacts a VC of
// 2,000 or 4,000 devices across four goroutines, which must cost a
// fixed number of allocations, not one per device or per chunk.
func TestColdScheduleAllocsDoNotScaleWithDevices(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	server, err := edge.NewServer(100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Server: server, Lambda: 1.5}
	big := makeBigCluster(t, 4000, 77)
	s := mustScheduler(t, cfg)
	pool, err := NewPool(cfg, PoolConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Schedule reads 33 and 40 on go1.24, the pool 14 at both: it builds
	// no map, so its bounds are tighter.
	for _, arm := range []struct {
		name               string
		maxSlope, maxLarge float64
		allocs             func(reqs []Request) float64
	}{
		{"Schedule", 40, 100, func(reqs []Request) float64 { return scheduleAllocs(t, s, reqs) }},
		{"4-worker Pool.Decide", 4, 32, func(reqs []Request) float64 {
			vcs := []VC{{ID: "vc", Requests: reqs}}
			return testing.AllocsPerRun(5, func() {
				if _, err := pool.Decide(vcs); err != nil {
					t.Fatal(err)
				}
			})
		}},
	} {
		small := arm.allocs(big[:2000])
		large := arm.allocs(big)
		t.Logf("%s: %.0f allocs at 2,000, %.0f at 4,000", arm.name, small, large)
		if large-small >= arm.maxSlope || large >= arm.maxLarge {
			t.Fatalf("%s allocates %.0f at 2,000 devices and %.0f at 4,000: still scales with devices",
				arm.name, small, large)
		}
	}
}

// TestChurnedSlotAllocsNoPerDeviceObjects guards a pool's steady state,
// the one edge-10k-cold runs every slot: every known device reports
// changed content, and every plan is rebuilt into the slab the slot
// before it grew. What is left is the decision's two slices and the
// pool's per-tick bookkeeping, 8 allocations on go1.24; a pool whose
// free list kept no scratch would rebuild it every slot, 27.
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
	s := mustSlotStream(t, Config{Server: server, Lambda: 1.5})
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
	allocs := testing.AllocsPerRun(6, func() {
		if _, err := s.Schedule(next()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("churned slot: %.0f allocs", allocs)
	if allocs >= 16 {
		t.Fatalf("a fully churned slot over %d known devices allocates %.0f objects: per-device allocations or a per-slot scratch are back", n, allocs)
	}
}

// TestPoolDecideAllocsBytesPerDevice guards the daemon's path in bytes:
// a pool's fully churned Decide call allocates its result —
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
			if d := res.VCs[0].Decision; len(d.X) != n || d.Transform != nil {
				t.Fatalf("call was meant to take the map-free path: %d positions, maps %v", len(d.X), d.Transform != nil)
			}
		}
		decide(a) // grows the scratch
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
		t.Fatalf("a steady-state Pool.Decide call grows by %.1f B per device, want at most the %.0f B of its result", slope, element)
	}
}

// retainedBytes is the live heap after a collection, for the
// resident-memory bounds.
func retainedBytes() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestStreamResidentBytes bounds what a pool keeps between slots of a
// 10k-device VC, with the caller's kept PoolResult, measured as live
// heap after a collection: the one worker scratch a single VC reuses —
// the plan slab and the batch-sized Phase-1/Phase-2 rows — and the kept
// result: about 1.0 MB, 100 B per device.
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
	before := retainedBytes()
	pool, err := NewPool(Config{Server: server, Lambda: 1.5}, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := new(PoolResult)
	for _, reqs := range [][]Request{a, b, a, b} {
		if err := pool.DecideInto(context.Background(), []VC{{ID: "edge", Requests: reqs}}, res); err != nil {
			t.Fatal(err)
		}
	}
	retained := retainedBytes() - before
	runtime.KeepAlive(pool)
	runtime.KeepAlive(res)
	t.Logf("%d devices: %d B retained, %d B per device", n, retained, retained/n)
	if retained > 1_500_000 {
		t.Fatalf("a pool deciding a %d-device VC retains %d B (%d B per device)", n, retained, retained/n)
	}
}

// TestPoolScratchBoundedAcrossVCIDs decides 64 ticks of one 2,000-device
// VC whose ID changes every tick, as a caller naming its VC after the
// slot would: what the pool retains must stop growing once each of its
// workers has a scratch, because scratch belongs to workers, not to VC
// IDs. A pool that kept one scratch per ID would retain 64 of them.
func TestPoolScratchBoundedAcrossVCIDs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	server, err := edge.NewServer(100)
	if err != nil {
		t.Fatal(err)
	}
	reqs := makeBigCluster(t, 2000, 81)
	SortRequests(reqs)
	const workers = 2
	before := retainedBytes()
	pool, err := NewPool(Config{Server: server, Lambda: 1.5}, PoolConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	res := new(PoolResult)
	var settled int64
	for tick := 0; tick < 64; tick++ {
		vcs := []VC{{ID: fmt.Sprintf("slot-%d", tick), Requests: reqs}}
		if err := pool.DecideInto(context.Background(), vcs, res); err != nil {
			t.Fatal(err)
		}
		if tick == workers-1 {
			settled = retainedBytes() - before
		}
	}
	retained := retainedBytes() - before
	runtime.KeepAlive(pool)
	runtime.KeepAlive(res)
	t.Logf("after %d ticks %d B retained, after 64 ticks %d B", workers, settled, retained)
	if retained-settled > settled/4 {
		t.Fatalf("64 VC IDs grew what the pool retains from %d B to %d B: scratch is kept per VC ID", settled, retained)
	}
}

// TestReusedSlabNeverCorruptsCache drives one slot stream through a
// first slot, a half-changed slot, an unchanged slot, a slot with one
// device changed, a grown, a shrunk, a reordered slot and one naming a
// device twice, each solved in the slab and rows the slot before it
// left: a plan, eligibility entry or swap flag that survived from the
// previous slot instead of being rebuilt would show. It runs on a
// one-worker pool over 48 devices (serial compaction) and on a
// three-worker pool over 150 (parallel compaction, three chunks, down
// to two when the stream shrinks). Every slot must equal the cold
// serial decision byte for byte, Phase-1 search included.
func TestReusedSlabNeverCorruptsCache(t *testing.T) {
	server, err := edge.NewServer(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Server: server, Lambda: 1.5}
	cold := mustScheduler(t, cfg)
	for _, arm := range []struct{ n, workers int }{{48, 1}, {150, 3}} {
		pool, err := NewPool(cfg, PoolConfig{Workers: arm.workers})
		if err != nil {
			t.Fatal(err)
		}
		n := arm.n
		fleet := makeCluster(t, n+n/3, 4242)
		SortRequests(fleet)
		slotA := fleet[:n:n]
		slotB := append([]Request(nil), slotA...)
		for i := 0; i < len(slotB); i += 2 {
			slotB[i].EnergyFrac = 1 - 0.9*slotB[i].EnergyFrac
			slotB[i].Gamma = 0.6 - slotB[i].Gamma
		}
		slotC := append([]Request(nil), slotB...)
		slotD := append([]Request(nil), slotC...)
		slotD[1].EnergyFrac = 1 - 0.9*slotD[1].EnergyFrac
		grown := append(append([]Request(nil), slotD...), fleet[n:]...)
		shrunk := append([]Request(nil), grown[:n/2]...)
		reordered := append([]Request(nil), shrunk...)
		slices.Reverse(reordered)
		twice := append([]Request(nil), shrunk...)
		dup := twice[3]
		dup.EnergyFrac = 0.02
		twice = slices.Insert(twice, 5, dup)

		for _, slot := range []struct {
			name string
			reqs []Request
		}{
			{"A first", slotA},
			{"B half-changed", slotB},
			{"C unchanged", slotC},
			{"D one changed", slotD},
			{"E grown", grown},
			{"F shrunk", shrunk},
			{"G reordered", reordered},
			{"H device twice", twice},
		} {
			name := fmt.Sprintf("%d devices, %d workers, %s", n, arm.workers, slot.name)
			res, err := pool.Decide([]VC{{ID: "vc", Requests: slot.reqs}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := res.Decision()
			want, err := DecideSerial(cold, []VC{{ID: "vc", Requests: slot.reqs}})
			if err != nil {
				t.Fatalf("%s: cold: %v", name, err)
			}
			ref := want.VCs[0].Decision
			if !bytes.Equal(got.Canonical(), ref.Canonical()) || !reflect.DeepEqual(got.PerDevice, ref.PerDevice) ||
				!reflect.DeepEqual(got.X, ref.X) {
				t.Fatalf("%s: stream decision diverged from cold DecideSerial:\nstream:\n%s\ncold:\n%s",
					name, got.Canonical(), ref.Canonical())
			}
			if got.Phase1Nodes != ref.Phase1Nodes {
				t.Fatalf("%s: stream searched %d Phase-1 nodes, cold %d", name, got.Phase1Nodes, ref.Phase1Nodes)
			}
		}
	}
}

// TestDuplicateDeviceHitThenMiss covers a request set naming a device
// twice, one copy as the slot before sent it and the other changed, in
// either order, then a slot naming the device once as that first copy.
// Each position must keep its own plan, on a stream reusing its slab,
// and every slot must equal the cold decision.
func TestDuplicateDeviceHitThenMiss(t *testing.T) {
	cfg := Config{Lambda: 1.5}
	base := makeCluster(t, 6, 99)
	SortRequests(base)
	dup := base[2]
	dup.EnergyFrac = 0.02 // changes eligibility, objective and verdict
	for _, tc := range []struct {
		name          string
		first, second Request
	}{
		{"hit-then-changed", base[2], dup},
		{"changed-copy-first", dup, base[2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := mustSlotStream(t, cfg)
			cold := mustScheduler(t, cfg)
			if _, err := stream.Schedule(base); err != nil {
				t.Fatal(err)
			}
			reqs := append(append([]Request(nil), base[:2]...), tc.first, tc.second)
			reqs = append(reqs, base[3:]...)
			kept := append([]Request(nil), base...)
			kept[2] = tc.first
			for k, slot := range [][]Request{reqs, kept} {
				got, err := stream.Schedule(slot)
				if err != nil {
					t.Fatal(err)
				}
				cd, err := cold.Schedule(slot)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Canonical(), cd.Canonical()) || !reflect.DeepEqual(got.PerDevice, cd.PerDevice) {
					t.Fatalf("slot %d diverged from cold:\nstream (eligible %d):\n%s\ncold (eligible %d):\n%s",
						k, got.Eligible, got.Canonical(), cd.Eligible, cd.Canonical())
				}
			}
		})
	}
}
