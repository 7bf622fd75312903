package fleet

import (
	"testing"

	"lpvs/internal/trace"
)

func smallTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.NumChannels = 12
	cfg.TargetSessions = 30
	cfg.MedianViewers = 60
	tr, err := trace.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil trace accepted")
	}
	tr := smallTrace(t)
	if _, err := Run(Config{Trace: tr, MaxSlots: -1}); err == nil {
		t.Fatal("negative slots accepted")
	}
	if _, err := Run(Config{Trace: tr, Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
}

func TestRunAggregates(t *testing.T) {
	tr := smallTrace(t)
	res, err := Run(Config{
		Trace:         tr,
		MaxChannels:   6,
		MaxSlots:      6,
		Lambda:        1,
		ServerStreams: -1,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 || len(res.Clusters) > 6 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	if res.Devices == 0 {
		t.Fatal("no devices emulated")
	}
	if res.EnergySaving <= 0.1 {
		t.Fatalf("trace-wide saving %v, want substantial", res.EnergySaving)
	}
	if res.AnxietyReduction <= 0 {
		t.Fatalf("trace-wide anxiety reduction %v", res.AnxietyReduction)
	}
	for _, c := range res.Clusters {
		if c.GroupSize < 10 || c.GroupSize > 500 {
			t.Fatalf("cluster %s group size %d outside bounds", c.ChannelID, c.GroupSize)
		}
		if c.Slots < 1 || c.Slots > 6 {
			t.Fatalf("cluster %s slots %d", c.ChannelID, c.Slots)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	tr := smallTrace(t)
	mk := func(workers int) *Result {
		res, err := Run(Config{
			Trace:         tr,
			MaxChannels:   5,
			MaxSlots:      4,
			Lambda:        1,
			ServerStreams: -1,
			Seed:          9,
			Workers:       workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(1), mk(4)
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatal("cluster counts differ")
	}
	for i := range a.Clusters {
		if a.Clusters[i] != b.Clusters[i] {
			t.Fatalf("cluster %d differs across worker counts:\n%+v\n%+v",
				i, a.Clusters[i], b.Clusters[i])
		}
	}
	if a.EnergySaving != b.EnergySaving {
		t.Fatal("aggregate saving differs across worker counts")
	}
}

func TestRunSkipsTinyChannels(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.NumChannels = 8
	cfg.TargetSessions = 10
	cfg.MedianViewers = 2 // nearly everyone below the threshold
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Trace:         tr,
		MaxSlots:      2,
		ServerStreams: -1,
		Seed:          1,
	})
	if err == nil {
		if res.Skipped == 0 {
			t.Fatal("no channels skipped despite tiny audiences")
		}
		return
	}
	// All channels skipped is also acceptable: the error says so.
}

func TestRunCapsGroupSize(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.NumChannels = 3
	cfg.TargetSessions = 4
	cfg.MedianViewers = 5000 // huge channels
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Trace:         tr,
		MaxChannels:   1,
		MaxSlots:      2,
		ServerStreams: -1,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if c.GroupSize != maxGroupSize {
			t.Fatalf("group size %d, want the cap %d", c.GroupSize, maxGroupSize)
		}
	}
}
