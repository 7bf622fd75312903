package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The reported tail must always have at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10_000, 99.9}} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if beyond := math.Round(float64(tc.n) * (100 - got) / 100); got > 50 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves only %v samples beyond", tc.n, got, beyond)
		}
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("lower-is-better 100 -> 110: worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 110, "higher"); math.Abs(got+0.1) > 1e-9 {
		t.Errorf("higher-is-better 100 -> 110: worse by %v, want -0.1", got)
	}
}

// compare must fail on a regression beyond the bound and refuse, not
// skip, runs that do not measure the same thing.
func TestCompare(t *testing.T) {
	var bench benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "slot_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "device_slots_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), &bench); err != nil {
		t.Fatal(err)
	}
	doc := func(slot, rate float64, edit func(*result)) document {
		r := result{Workload: "w", Seed: 1, RunSeconds: 30, EndToEnd: map[string]metric{
			"slot_p50_ms": {slot, "ms"}, "device_slots_per_s": {rate, "1/s"}}}
		if edit != nil {
			edit(&r)
		}
		return document{Results: []result{r}}
	}
	base := doc(100, 1000, nil)
	for _, tc := range []struct {
		name       string
		b          document
		within, ok bool
	}{
		{"same", base, true, true},
		{"inside the bounds", doc(109, 905, nil), true, true},
		{"slower slot", doc(111, 1000, nil), false, true},
		{"lower rate", doc(100, 890, nil), false, true},
		{"failed operations", doc(100, 1000, func(r *result) { r.Failed = 1 }), false, true},
		{"workload missing", document{}, false, false},
		{"metric missing", doc(100, 1000, func(r *result) { delete(r.EndToEnd, "slot_p50_ms") }), false, false},
		{"traced", doc(100, 1000, func(r *result) { r.Traced = true }), false, false},
		{"another seed", doc(100, 1000, func(r *result) { r.Seed = 2 }), false, false},
		{"another run length", doc(100, 1000, func(r *result) { r.RunSeconds = 10 }), false, false},
		{"interleaved", doc(100, 1000, func(r *result) { r.Interleaved = true }), false, false},
	} {
		within, err := compare(io.Discard, bench, base, tc.b)
		if within != tc.within || (err == nil) != tc.ok {
			t.Errorf("%s: within=%t err=%v, want within=%t ok=%t", tc.name, within, err, tc.within, tc.ok)
		}
	}
	if _, err := compare(io.Discard, bench, document{}, base); err == nil {
		t.Error("an empty a compared nothing and passed")
	}
}

// Self time is duration minus the union of the children's intervals,
// clipped to the parent; nest places a synthetic child after existing
// children and clips it to the parent's end.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.open(0, 7, "bench.slot", at(0))
	a := tr.add(root, 7, "client.tick", at(10), at(60))
	tr.add(a, 7, "server.tick", at(10), at(40))
	tr.add(a, 7, "overlap", at(30), at(50))  // overlaps server.tick by 10 ms
	tr.add(a, 7, "overhang", at(55), at(80)) // clipped to the parent's end
	tr.add(root, 7, "client.report", at(60), at(90))
	tr.close(root, at(100))

	tr.nest("client.report", "server.ingest", fixed(20*time.Millisecond))
	tr.nest("client.report", "late", fixed(50*time.Millisecond)) // only 10 ms left

	self := selfTimes(tr.spans)
	byName := map[string]time.Duration{}
	for _, s := range tr.spans {
		byName[s.Name] += time.Duration(self[s.ID])
	}
	want := map[string]time.Duration{
		"bench.slot":    20 * time.Millisecond, // 100 - (50 + 30)
		"client.tick":   5 * time.Millisecond,  // 50 - union(10..50, 55..60)
		"server.tick":   30 * time.Millisecond,
		"client.report": 0,
		"server.ingest": 20 * time.Millisecond,
		"late":          10 * time.Millisecond,
	}
	for name, w := range want {
		if byName[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, byName[name], w)
		}
	}

	rows, unattributed := ledger(tr.spans, 100)
	if len(rows) == 0 || math.Abs(unattributed-20) > 1e-9 {
		t.Errorf("ledger unattributed = %v%%, want 20%% (the bench.* self time)", unattributed)
	}
	var nilTracer *tracer
	if id := nilTracer.add(0, 0, "x", at(0), at(1)); id != 0 {
		t.Errorf("nil tracer recorded a span")
	}
}

// The same seed must give byte-identical request bodies, another seed
// different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, sp := range workloads {
		a, err := genInputs(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genInputs(sp, 1)
		c, _ := genInputs(sp, 2)
		body := func(in *inputs, p int) []byte {
			if sp.perDevice {
				return bytes.Join(in.single[p], nil)
			}
			return in.batch[p]
		}
		for p := 0; p < cyclePositions; p++ {
			if !bytes.Equal(body(a, p), body(b, p)) {
				t.Fatalf("%s: position %d differs between two runs of seed 1", sp.name, p)
			}
		}
		if bytes.Equal(body(a, 0), body(c, 0)) {
			t.Errorf("%s: seeds 1 and 2 generate the same bodies", sp.name)
		}
		// Every step of the cycle, the wrap-around included, changes the
		// same 5% of the fleet.
		for p := 0; p < cyclePositions; p++ {
			changed := 0
			for d := range a.fleet {
				if a.energy[p][d] != a.energy[(p+1)%cyclePositions][d] {
					changed++
				}
			}
			if want := int(churn * float64(sp.devices)); changed != want {
				t.Errorf("%s: step %d changes %d devices, want %d", sp.name, p, changed, want)
			}
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the
// program reports.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the module:", err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// The -smoke path: three slots of every workload after one short
// set-up, the first slot checked against the reference. The traced pass
// drives plain, traced and in-process slots and every layer probe, so it
// is run for every workload; the measured pass is the same slot loop
// with tracing off, so one workload covers it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and solves real slots")
	}
	for i, sp := range workloads {
		if raceEnabled && (sp.shards > 0 || sp.devices > 2000) {
			continue // minutes under the race detector
		}
		passes := []bool{true}
		if i == len(workloads)-1 {
			passes = []bool{true, false}
		}
		for _, trace := range passes {
			opt := options{seed: 1, seconds: 60, smoke: true, trace: trace, workdir: t.TempDir()}
			results, err := run([]spec{sp}, opt)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", sp.name, trace, err)
			}
			r := results[0]
			if !r.Correct || r.Failed != 0 || r.TimedSlots != 3 || r.Ops.Check.Succeeded != 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d timed=%d checks=%+v",
					sp.name, trace, r.Correct, r.Failed, r.TimedSlots, r.Ops.Check)
			}
			metrics, defs := r.EndToEnd, endToEnd
			if trace {
				metrics, defs = r.PerLayer, perLayer
				if len(r.Ledger) == 0 {
					t.Errorf("%s: traced pass produced no ledger", sp.name)
				}
			}
			for _, d := range defs {
				if _, ok := metrics[d.name]; !ok {
					t.Errorf("%s trace=%t: metric %s missing", sp.name, trace, d.name)
				}
			}
		}
	}
}
