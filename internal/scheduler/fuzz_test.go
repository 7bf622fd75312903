package scheduler

import (
	"bytes"
	"sync"
	"testing"

	"lpvs/internal/edge"
	"lpvs/internal/stats"
)

// fuzzBase caches one generated request cluster so each fuzz iteration
// only mutates cheap scalar fields instead of re-generating videos.
var (
	fuzzBaseOnce sync.Once
	fuzzBase     []Request
)

func fuzzBaseCluster(tb testing.TB) []Request {
	fuzzBaseOnce.Do(func() { fuzzBase = makeCluster(tb, 32, 4242) })
	return fuzzBase
}

// FuzzPoolDecide drives the pooled engine with fuzz-chosen cluster
// shapes, capacities, lambdas and worker counts, and checks the
// invariants that must hold for every input: pool output byte-identical
// to the serial reference, capacities respected, no ineligible device
// selected, and no panics.
func FuzzPoolDecide(f *testing.F) {
	// Seed corpus mirrors the fixture shapes used across the scheduler
	// tests: single tiny VC, several mid-size VCs, a capacity-starved
	// instance, an uncapacitated one, and a many-worker split.
	f.Add(int64(1), uint8(1), uint8(4), uint8(2), uint8(10), uint8(1))
	f.Add(int64(42), uint8(3), uint8(12), uint8(4), uint8(30), uint8(4))
	f.Add(int64(7), uint8(2), uint8(20), uint8(1), uint8(0), uint8(8))
	f.Add(int64(999), uint8(4), uint8(8), uint8(0), uint8(15), uint8(3))
	f.Add(int64(-5), uint8(1), uint8(14), uint8(3), uint8(50), uint8(2))

	f.Fuzz(func(t *testing.T, seed int64, nVC, perVC, streams, lambdaTenths, workers uint8) {
		base := fuzzBaseCluster(t)
		rng := stats.NewRNG(seed)
		vcCount := int(nVC%4) + 1
		devs := int(perVC%24) + 1
		vcs := make([]VC, vcCount)
		for v := range vcs {
			reqs := make([]Request, devs)
			for i := range reqs {
				r := base[rng.Intn(len(base))]
				r.DeviceID = deviceID(v*devs + i)
				r.EnergyFrac = rng.Uniform(0.01, 1)
				r.Gamma = rng.Uniform(0.15, 0.6)
				reqs[i] = r
			}
			vcs[v] = VC{ID: deviceID(v) + "-vc", Requests: reqs}
		}
		cfg := Config{Lambda: float64(lambdaTenths%51) / 10}
		if streams%4 != 0 {
			server, err := edge.NewServer(int(streams%4) * 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Server = server
		}
		pool, err := NewPool(cfg, PoolConfig{Workers: int(workers%8) + 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := decideFresh(pool, vcs)
		if err != nil {
			t.Fatalf("pool rejected generated input: %v", err)
		}
		serial, err := DecideSerial(pool.Scheduler(), vcs)
		if err != nil {
			t.Fatalf("serial rejected generated input: %v", err)
		}
		if !bytes.Equal(canonical(res), canonical(serial)) {
			t.Fatalf("pool and serial decisions diverged:\npool:\n%s\nserial:\n%s",
				canonical(res), canonical(serial))
		}
		for v, vcd := range res.VCs {
			var reqs []Request
			for _, in := range vcs {
				if in.ID == vcd.VC {
					reqs = in.Requests
				}
			}
			// The pool path builds no map; its positional view must say
			// what the serial reference's says, position by position, and
			// what that reference's map says for each device.
			ref := serial.VCs[v].Decision
			if vcd.Decision.Transform != nil {
				t.Fatalf("vc %s: the pool path built the ID-keyed map", vcd.VC)
			}
			if len(vcd.Decision.X) != len(reqs) || len(vcd.Decision.PerDevice) != len(reqs) {
				t.Fatalf("vc %s: positional view covers %d/%d of %d requests",
					vcd.VC, len(vcd.Decision.X), len(vcd.Decision.PerDevice), len(reqs))
			}
			for i := range reqs {
				id := reqs[i].DeviceID
				if vcd.Decision.X[i] != ref.X[i] || vcd.Decision.X[i] != ref.Transform[id] ||
					vcd.Decision.PerDevice[i] != ref.PerDevice[i] {
					t.Fatalf("vc %s device %s: pool position %d says %v %+v, serial says %v %+v (map %v)", vcd.VC, id, i,
						vcd.Decision.X[i], vcd.Decision.PerDevice[i], ref.X[i], ref.PerDevice[i], ref.Transform[id])
				}
			}
			plans, err := pool.Scheduler().buildPlans(reqs)
			if err != nil {
				t.Fatal(err)
			}
			usedG, usedH := 0.0, 0.0
			for i, p := range plans {
				if !vcd.Decision.X[i] {
					continue
				}
				if !p.eligible {
					t.Fatalf("vc %s selected ineligible device %s", vcd.VC, p.req.DeviceID)
				}
				usedG += p.g
				usedH += p.h
			}
			if cfg.Server != nil && !cfg.Server.Fits(usedG, usedH) {
				t.Fatalf("vc %s violates capacity: g=%v h=%v", vcd.VC, usedG, usedH)
			}
		}
	})
}
