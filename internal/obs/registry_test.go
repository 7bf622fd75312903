package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "help")
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %v, want %d", got, workers*perWorker)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "help")
	c.Add(3)
	c.Add(-2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test", "help")
	g.Set(5)
	g.Add(-2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "help", []float64{0.1, 0.5, 1})
	// Boundary values land in the bucket whose upper bound they equal
	// (le is inclusive), values beyond the last bound only in +Inf.
	for _, v := range []float64{0.05, 0.1, 0.3, 0.5, 0.9, 1, 7} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,  // 0.05, 0.1
		`lat_seconds_bucket{le="0.5"} 4`,  // + 0.3, 0.5
		`lat_seconds_bucket{le="1"} 6`,    // + 0.9, 1
		`lat_seconds_bucket{le="+Inf"} 7`, // + 7
		`lat_seconds_count 7`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if h.s.count.Load() != 7 {
		t.Fatalf("count = %d", h.s.count.Load())
	}
	if math.Abs(h.s.sum()-9.85) > 1e-9 {
		t.Fatalf("sum = %v", h.s.sum())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "help", DefBuckets())
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				h.Observe(float64(i+1) * 0.001)
			}
		}(i)
	}
	wg.Wait()
	if h.s.count.Load() != workers*perWorker {
		t.Fatalf("count = %d, want %d", h.s.count.Load(), workers*perWorker)
	}
}

// TestExpositionGolden pins the exact exposition output: HELP before
// TYPE, families sorted by name, series sorted by label values,
// histograms emitting the _bucket/_sum/_count triple.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_total", "Last family.").Add(2)
	g := reg.GaugeVec("aa_gauge", "First family.", "kind")
	g.With("beta").Set(1.5)
	g.With("alpha").Set(0.5)
	reg.Histogram("mm_seconds", "Middle family.", []float64{0.5, 2}).Observe(1)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_gauge First family.
# TYPE aa_gauge gauge
aa_gauge{kind="alpha"} 0.5
aa_gauge{kind="beta"} 1.5
# HELP mm_seconds Middle family.
# TYPE mm_seconds histogram
mm_seconds_bucket{le="0.5"} 0
mm_seconds_bucket{le="2"} 1
mm_seconds_bucket{le="+Inf"} 1
mm_seconds_sum 1
mm_seconds_count 1
# HELP zz_total Last family.
# TYPE zz_total counter
zz_total 2
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestGaugeFuncEvaluatedAtScrape(t *testing.T) {
	reg := NewRegistry()
	v := 1.0
	reg.GaugeFunc("dyn", "help", func() float64 { return v })
	var b strings.Builder
	_ = reg.WriteText(&b)
	if !strings.Contains(b.String(), "dyn 1\n") {
		t.Fatalf("got:\n%s", b.String())
	}
	v = 2
	b.Reset()
	_ = reg.WriteText(&b)
	if !strings.Contains(b.String(), "dyn 2\n") {
		t.Fatalf("got:\n%s", b.String())
	}
}

func TestCounterFunc(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("fn_total", "help", func() float64 { return 42 })
	var b strings.Builder
	_ = reg.WriteText(&b)
	text := b.String()
	if !strings.Contains(text, "# TYPE fn_total counter") || !strings.Contains(text, "fn_total 42") {
		t.Fatalf("got:\n%s", text)
	}
}

func TestReregisterIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("same_total", "help")
	b := reg.Counter("same_total", "help")
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Fatalf("re-registered counter diverged: %v vs %v", a.Value(), b.Value())
	}
}

func TestReregisterShapeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("same", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	reg.Gauge("same", "help")
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("esc_total", `back\slash`, "k").With("a\"b\nc\\d").Inc()
	var b strings.Builder
	_ = reg.WriteText(&b)
	text := b.String()
	if !strings.Contains(text, `# HELP esc_total back\\slash`) {
		t.Errorf("help not escaped:\n%s", text)
	}
	if !strings.Contains(text, `esc_total{k="a\"b\nc\\d"} 1`) {
		t.Errorf("label not escaped:\n%s", text)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets %v, want %v", got, want)
		}
	}
}

func TestConcurrentScrapeWhileMutating(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("busy_total", "help")
	h := reg.HistogramVec("busy_seconds", "help", DefBuckets(), "route")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					c.Inc()
					h.With("a").Observe(0.01)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
