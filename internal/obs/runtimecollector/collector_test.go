package runtimecollector

import (
	runtimemetrics "runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"lpvs/internal/obs"
)

func TestSamplePopulatesGauges(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(reg)
	c.Sample()

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, name := range []string{
		"lpvs_go_heap_alloc_bytes",
		"lpvs_go_goroutines",
		"lpvs_go_gomaxprocs",
		"lpvs_go_gc_cycles_total",
		"lpvs_go_gc_pause_seconds_total",
		"lpvs_go_sched_latency_p50_seconds",
		"lpvs_go_sched_latency_p99_seconds",
		"lpvs_go_runtime_sample_unix_seconds",
	} {
		if !strings.Contains(text, "# TYPE "+name+" gauge") {
			t.Errorf("missing family %s in exposition", name)
		}
	}
	// A live process always has a heap, goroutines, and a sample stamp.
	if c.heapAllocBytes.Value() <= 0 {
		t.Errorf("heap alloc = %v, want > 0", c.heapAllocBytes.Value())
	}
	if c.goroutines.Value() < 1 {
		t.Errorf("goroutines = %v, want >= 1", c.goroutines.Value())
	}
	if c.lastSample.Value() <= 0 {
		t.Error("sample stamp not set")
	}
}

// TestRunSamplesOnTicker: the daemon's sampling loop, driving Sample,
// sets the sample stamp and returns once stopped.
func TestRunSamplesOnTicker(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(reg)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		obs.Every(done, time.Millisecond, c.Sample)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for c.lastSample.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	if c.lastSample.Value() == 0 {
		t.Fatal("the loop never sampled")
	}
}

func TestHistQuantile(t *testing.T) {
	h := &runtimemetrics.Float64Histogram{
		Counts:  []uint64{90, 9, 1},
		Buckets: []float64{0, 0.001, 0.01, 0.1},
	}
	if got := histQuantile(h, 0.5); got != 0.001 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := histQuantile(h, 0.99); got != 0.01 {
		t.Errorf("p99 = %v, want 0.01", got)
	}
	if got := histQuantile(h, 1); got != 0.1 {
		t.Errorf("p100 = %v, want 0.1", got)
	}
	empty := &runtimemetrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}
	if got := histQuantile(empty, 0.99); got != 0 {
		t.Errorf("empty p99 = %v, want 0", got)
	}
}

func TestHistSumMidpoints(t *testing.T) {
	h := &runtimemetrics.Float64Histogram{
		Counts:  []uint64{2, 1},
		Buckets: []float64{0, 1, 3},
	}
	// 2 observations at midpoint 0.5 + 1 at midpoint 2 = 3.
	if got := histSum(h); got != 3 {
		t.Errorf("sum = %v, want 3", got)
	}
}

// TestConcurrentStartStopAndScrape hammers the collector from two
// directions at once — a sampler started and stopped again and again,
// calling Sample as lpvsd's sampling loop does, and full registry
// scrapes — so the race detector can prove the shutdown-ordering
// contract behind that loop (DESIGN.md §13): sampling and scraping
// never race, even across sampler restarts.
func TestConcurrentStartStopAndScrape(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(reg)
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Rapid start/stop cycles of one sampling goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 20; i++ {
			stop := make(chan struct{})
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				for {
					select {
					case <-stop:
						return
					default:
						c.Sample()
					}
				}
			}()
			time.Sleep(time.Millisecond)
			close(stop)
			<-stopped
		}
	}()

	// Scrapes while collecting, as /metrics does.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					var b strings.Builder
					if err := reg.WriteText(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if c.lastSample.Value() == 0 {
		t.Fatal("no sample landed during the churn")
	}
}

// TestTwoCollectorsOneRegistry: a second collector on the same
// registry reuses the families instead of panicking, and concurrent
// sampling from both stays race-free.
func TestTwoCollectorsOneRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := New(reg), New(reg)
	var wg sync.WaitGroup
	for _, c := range []*Collector{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Sample()
			}
		}()
	}
	wg.Wait()
	if a.lastSample.Value() == 0 || b.lastSample.Value() == 0 {
		t.Fatal("a collector never sampled")
	}
}
