package main

import (
	"flag"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"lpvs/internal/obs"
	"lpvs/internal/obs/history"
	"lpvs/internal/obs/runtimecollector"
	"lpvs/internal/obs/slo"
)

// TestFlagSet pins lpvsd's command line: adding, renaming or removing a
// flag means editing this list.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("lpvsd", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"addr", "audit-dir", "capacity", "channels", "flight-dir",
		"history-interval", "history-window", "lambda", "log-format", "log-level",
		"manual-tick", "max-batch-records", "max-inflight", "mode", "node-id",
		"pprof", "sched-deadline", "shard-map", "slo-tick-latency", "slot",
		"snapshot-dir", "snapshot-interval", "trace-sample", "vc-label-budget", "version",
		"workers",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %q\nwant    %q", got, want)
	}
}

func TestCheckSlot(t *testing.T) {
	for _, tc := range []struct {
		mode string
		slot float64
		ok   bool
	}{
		{"edge", 300, true},
		{"edge", 10, true},
		{"shard", 10, true},
		{"router", 300, true},
		{"router", 0.5, true},
		{"edge", 5, false}, // shorter than one chunk
		{"shard", 9.99, false},
		{"router", 0, false},
		{"router", -1, false},
		{"edge", 0, false},
		{"edge", -300, false},
		{"router", 1e-12, false}, // rounds to a zero period
		{"router", math.NaN(), false},
		{"router", math.Inf(1), false},
		{"router", 1e12, false}, // beyond time.Duration
	} {
		err := checkSlot(tc.mode, tc.slot)
		if tc.ok != (err == nil) {
			t.Errorf("checkSlot(%s, %v) = %v, want ok=%v", tc.mode, tc.slot, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "-slot ") {
			t.Errorf("checkSlot(%s, %v) = %q: does not name the flag", tc.mode, tc.slot, err)
		}
	}
}

// testSampler is a sampler over a fresh registry: one SLO objective
// whose counters the test sets, and a history store.
func testSampler(t *testing.T, bad, total *float64) (sampler, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	eng, err := slo.NewEngine(slo.Config{}, slo.Objective{
		Name: "x", Target: 0.9,
		Source: func() (float64, float64) { return *bad, *total },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Register(reg)
	smp := sampler{
		runtime: runtimecollector.New(reg),
		slo:     eng,
		history: history.New(reg, history.Config{Window: time.Minute, Interval: time.Second}),
	}
	return smp, reg
}

// lastPoint is the newest history point of one series.
func lastPoint(t *testing.T, h *history.Store, key string) float64 {
	t.Helper()
	for _, se := range h.Query(nil, time.Time{}) {
		if se.Key() == key {
			return se.Points[len(se.Points)-1].Value
		}
	}
	t.Fatalf("history holds no %s", key)
	return 0
}

// gauge reads one unlabelled gauge from the registry.
func gauge(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, f := range reg.Gather() {
		if f.Name == name && len(f.Series) == 1 {
			return f.Series[0].Value
		}
	}
	t.Fatalf("registry holds no %s", name)
	return 0
}

// TestSamplerPassOrder: a pass samples the runtime, then evaluates the
// SLOs, then records history, so each history point holds the runtime
// gauge and the SLO state of its own pass.
func TestSamplerPassOrder(t *testing.T) {
	bad, total := 1.0, 4.0
	smp, reg := testSampler(t, &bad, &total)
	for pass := 0; pass < 2; pass++ {
		smp.pass()
		const stamp = "lpvs_go_runtime_sample_unix_seconds"
		if got, want := lastPoint(t, smp.history, stamp), gauge(t, reg, stamp); got != want || want == 0 {
			t.Fatalf("pass %d: history %s = %v, the pass's Sample set %v", pass, stamp, got, want)
		}
		if got, want := lastPoint(t, smp.history, `lpvs_slo_bad_ratio{slo="x"}`), bad/total; got != want {
			t.Fatalf("pass %d: history bad ratio = %v, the pass's Evaluate saw %v", pass, got, want)
		}
		bad, total = 3, 5
	}
}

func TestTickURL(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{":8080", "http://localhost:8080/v1/tick"},
		{"127.0.0.1:9", "http://127.0.0.1:9/v1/tick"},
		{"0.0.0.0:9", "http://localhost:9/v1/tick"},
		{"[::]:9", "http://localhost:9/v1/tick"},
		{"[::1]:9", "http://[::1]:9/v1/tick"},
		{"example:9", "http://example:9/v1/tick"},
	} {
		got, err := tickURL(tc.addr, "/v1/tick")
		if err != nil || got != tc.want {
			t.Errorf("tickURL(%q) = %q, %v; want %q", tc.addr, got, err, tc.want)
		}
	}
	if got, err := tickURL("8080", "/v1/tick"); err == nil {
		t.Errorf("tickURL of a port-less address = %q, want an error", got)
	}
}
