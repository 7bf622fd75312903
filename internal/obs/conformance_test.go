package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestExpositionConformanceGolden pins the full Prometheus text-format
// (version 0.0.4) exposition for a registry exercising every metric
// shape at once: unlabelled and labelled counters, gauges, a
// multi-series labelled histogram, HELP and label-value escaping, and
// scrape-time function families. Labelled histograms must emit
// cumulative buckets ending in le="+Inf" equal to _count, the
// _sum/_count pair carrying the series labels, and a deterministic
// series order; any deviation from the golden text is a conformance
// regression.
func TestExpositionConformanceGolden(t *testing.T) {
	reg := NewRegistry()

	reg.Counter("a_requests_total", "Plain counter.").Add(3)

	hv := reg.HistogramVec("b_latency_seconds",
		"Labelled histogram.", []float64{0.1, 0.5, 1}, "vc", "op")
	// Observations across two series; bucket counts must come out
	// cumulative even though storage is per-bucket.
	for _, v := range []float64{0.05, 0.3, 0.3, 0.9, 4} {
		hv.With("ch-1", "tick").Observe(v)
	}
	hv.With("ch-2", "tick").Observe(0.5)

	gv := reg.GaugeVec("c_state", "Labelled gauge.", "vc")
	gv.With("ch-2").Set(2)
	gv.With("ch-1").Set(1)

	reg.CounterVec("d_esc_total", "Help with \\ backslash\nand newline.", "k").
		With("quote\"back\\slash\nnewline").Inc()

	reg.GaugeFunc("e_dynamic", "Scrape-time gauge.", func() float64 { return 7.5 })

	want := `# HELP a_requests_total Plain counter.
# TYPE a_requests_total counter
a_requests_total 3
# HELP b_latency_seconds Labelled histogram.
# TYPE b_latency_seconds histogram
b_latency_seconds_bucket{vc="ch-1",op="tick",le="0.1"} 1
b_latency_seconds_bucket{vc="ch-1",op="tick",le="0.5"} 3
b_latency_seconds_bucket{vc="ch-1",op="tick",le="1"} 4
b_latency_seconds_bucket{vc="ch-1",op="tick",le="+Inf"} 5
b_latency_seconds_sum{vc="ch-1",op="tick"} 5.55
b_latency_seconds_count{vc="ch-1",op="tick"} 5
b_latency_seconds_bucket{vc="ch-2",op="tick",le="0.1"} 0
b_latency_seconds_bucket{vc="ch-2",op="tick",le="0.5"} 1
b_latency_seconds_bucket{vc="ch-2",op="tick",le="1"} 1
b_latency_seconds_bucket{vc="ch-2",op="tick",le="+Inf"} 1
b_latency_seconds_sum{vc="ch-2",op="tick"} 0.5
b_latency_seconds_count{vc="ch-2",op="tick"} 1
# HELP c_state Labelled gauge.
# TYPE c_state gauge
c_state{vc="ch-1"} 1
c_state{vc="ch-2"} 2
# HELP d_esc_total Help with \\ backslash\nand newline.
# TYPE d_esc_total counter
d_esc_total{k="quote\"back\\slash\nnewline"} 1
# HELP e_dynamic Scrape-time gauge.
# TYPE e_dynamic gauge
e_dynamic 7.5
`
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Determinism: repeated scrapes of an unchanged registry are
	// byte-identical (map iteration must never leak into the output).
	for i := 0; i < 10; i++ {
		var again strings.Builder
		if err := reg.WriteText(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != b.String() {
			t.Fatalf("scrape %d differs from the first", i)
		}
	}
}

func TestSeriesBudgetCapsCardinality(t *testing.T) {
	reg := NewRegistry()
	reg.SetSeriesBudget(2)
	cv := reg.CounterVec("vc_ticks_total", "help", "vc")
	cv.With("a").Inc()
	cv.With("b").Inc()
	// Third label value: over budget — the write must still work (no
	// panic, handle is usable) but never appear in the exposition. Each
	// refused With() counts one drop; writes on the detached handle are
	// free.
	over := cv.With("c")
	over.Inc()
	over.Inc()
	if got := reg.DroppedSeries(); got != 1 {
		t.Fatalf("dropped = %d, want 1 (one per refused With)", got)
	}
	var b strings.Builder
	_ = reg.WriteText(&b)
	text := b.String()
	if !strings.Contains(text, `vc_ticks_total{vc="a"} 1`) || !strings.Contains(text, `vc_ticks_total{vc="b"} 1`) {
		t.Fatalf("in-budget series missing:\n%s", text)
	}
	if strings.Contains(text, `vc="c"`) {
		t.Fatalf("over-budget series leaked into exposition:\n%s", text)
	}
	// Existing series stay writable at full budget.
	cv.With("a").Inc()
	if strings.Contains(text, `vc="c"`) {
		t.Fatal("unexpected")
	}
}

// TestSeriesBudgetCountsEachLabelSetOnce: a label set the budget
// refused, written again, reuses its detached series and counts no
// further drop — a per-channel family over budget is written every tick
// — while the family's memory of refused sets is bounded by maxRefused
// and a set the budget later admits is stored and exposed.
func TestSeriesBudgetCountsEachLabelSetOnce(t *testing.T) {
	reg := NewRegistry()
	reg.SetSeriesBudget(2)
	cv := reg.CounterVec("vc_ticks_total", "help", "vc")
	cv.With("a").Inc()
	cv.With("b").Inc()
	for tick := 0; tick < 3; tick++ {
		cv.With("c").Inc()
		if got := reg.DroppedSeries(); got != 1 {
			t.Fatalf("tick %d: dropped = %d, want 1 (one per refused label set)", tick, got)
		}
	}
	if cv.With("c").s != cv.With("c").s {
		t.Error("a refused label set gets a new detached series on every write")
	}
	cv.With("d").Inc()
	if got := reg.DroppedSeries(); got != 2 {
		t.Fatalf("dropped = %d after a second refused label set, want 2", got)
	}
	// Fill the family's memory of refused sets; one beyond it counts on
	// every write.
	for i := 2; i < maxRefused; i++ {
		cv.With("x" + strconv.Itoa(i)).Inc()
	}
	want := uint64(maxRefused)
	cv.With("beyond").Inc()
	cv.With("beyond").Inc()
	if got := reg.DroppedSeries(); got != want+2 {
		t.Fatalf("dropped = %d with the refused memory full, want %d", got, want+2)
	}
	if f := reg.families["vc_ticks_total"]; len(f.refused) != maxRefused {
		t.Fatalf("the family remembers %d refused label sets, want %d", len(f.refused), maxRefused)
	}
	reg.SetSeriesBudget(0)
	cv.With("c").Inc()
	var b strings.Builder
	_ = reg.WriteText(&b)
	if !strings.Contains(b.String(), `vc_ticks_total{vc="c"} 1`) {
		t.Fatalf("a refused label set the budget now admits is not exposed:\n%s", b.String())
	}
	if got := reg.DroppedSeries(); got != want+2 {
		t.Fatalf("dropped = %d after the budget was lifted, want %d", got, want+2)
	}
}

func TestSeriesBudgetIgnoresUnlabelled(t *testing.T) {
	reg := NewRegistry()
	reg.SetSeriesBudget(1)
	// Unlabelled metrics are one series per family by construction; the
	// budget must not starve them.
	reg.Counter("plain_total", "help").Inc()
	reg.Gauge("plain", "help").Set(1)
	if got := reg.DroppedSeries(); got != 0 {
		t.Fatalf("dropped = %d, want 0", got)
	}
}

// TestConcurrentLabeledScrapeUnderBudget hammers labelled families from
// many goroutines — including label values beyond the budget — while a
// scraper renders the exposition, proving (under -race) that the
// cardinality gate introduces no data race and no torn output.
func TestConcurrentLabeledScrapeUnderBudget(t *testing.T) {
	reg := NewRegistry()
	reg.SetSeriesBudget(8)
	cv := reg.CounterVec("vc_ops_total", "help", "vc")
	hv := reg.HistogramVec("vc_latency_seconds", "help", DefBuckets(), "vc")
	labels := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					l := labels[(w+i)%len(labels)]
					cv.With(l).Inc()
					hv.With(l).Observe(0.002)
				}
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	// Post-quiesce scrape must be internally consistent: cumulative
	// buckets non-decreasing, +Inf equal to count, per family series.
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(b.String(), "\n")
	series := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "vc_ops_total{") {
			series++
		}
	}
	if series > 8 {
		t.Fatalf("budget leaked: %d series exposed", series)
	}
	// Fill the family deterministically (the workers may not have cycled
	// every label), then one more fresh label must be refused and
	// counted.
	for _, l := range labels[:8] {
		cv.With(l).Inc()
	}
	before := reg.DroppedSeries()
	cv.With("overflow").Inc()
	if reg.DroppedSeries() != before+1 {
		t.Fatal("expected the over-budget With to be counted as dropped")
	}
}
