package history

import (
	"sync"
	"testing"
	"time"

	"lpvs/internal/obs"
)

// fakeClock steps a deterministic sample clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newStore(reg *obs.Registry, clk *fakeClock, cfg Config) *Store {
	s := New(reg, cfg)
	s.now = clk.now
	return s
}

func TestCounterDeltasAndGaugePoints(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("x_total", "X.")
	g := reg.Gauge("y", "Y.")
	clk := newFakeClock()
	s := newStore(reg, clk, Config{Window: time.Minute, Interval: time.Second})

	c.Add(10)
	g.Set(1)
	s.Sample()
	clk.advance(time.Second)
	c.Add(5)
	g.Set(2)
	s.Sample()

	series := s.Query([]string{"x_total"}, time.Time{})
	if len(series) != 1 {
		t.Fatalf("series = %d, want 1", len(series))
	}
	x := series[0]
	if x.Kind != KindDelta {
		t.Fatalf("kind = %q", x.Kind)
	}
	// First sample has no previous raw value: stored as-is. Second is
	// the increase.
	if len(x.Points) != 2 || x.Points[0].Value != 10 || x.Points[1].Value != 5 {
		t.Fatalf("points = %+v", x.Points)
	}

	y := s.Query([]string{"y"}, time.Time{})[0]
	if y.Kind != KindPoint || y.Points[0].Value != 1 || y.Points[1].Value != 2 {
		t.Fatalf("gauge points = %+v", y.Points)
	}
}

func TestCounterResetDetection(t *testing.T) {
	reg := obs.NewRegistry()
	clk := newFakeClock()
	s := newStore(reg, clk, Config{Window: time.Minute, Interval: time.Second})

	// Feed raw cumulative readings directly: 100, then 3 — the
	// backwards step a daemon restart produces mid-poll.
	s.mu.Lock()
	s.record("x_total", nil, KindDelta, clk.now().UnixMilli(), 100)
	clk.advance(time.Second)
	s.record("x_total", nil, KindDelta, clk.now().UnixMilli(), 3)
	s.mu.Unlock()

	pts := s.Query([]string{"x_total"}, time.Time{})[0].Points
	if pts[1].Value != 3 {
		t.Fatalf("post-reset delta = %v, want 3 (never negative)", pts[1].Value)
	}
	for _, p := range pts {
		if p.Value < 0 {
			t.Fatalf("negative delta %v", p.Value)
		}
	}
}

func TestHistogramQuantileSnapshots(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", "L.", []float64{0.1, 0.5, 1})
	clk := newFakeClock()
	s := newStore(reg, clk, Config{Window: time.Minute, Interval: time.Second})

	for i := 0; i < 9; i++ {
		h.Observe(0.05) // all in the 0.1 bucket
	}
	h.Observe(0.9) // one in the 1 bucket
	s.Sample()

	p50 := s.Query([]string{"lat_seconds_p50"}, time.Time{})
	if len(p50) != 1 || p50[0].Points[0].Value != 0.1 {
		t.Fatalf("p50 = %+v", p50)
	}
	p99 := s.Query([]string{"lat_seconds_p99"}, time.Time{})
	if len(p99) != 1 || p99[0].Points[0].Value != 1 {
		t.Fatalf("p99 = %+v", p99)
	}
	cnt := s.Query([]string{"lat_seconds_count"}, time.Time{})
	if len(cnt) != 1 || cnt[0].Kind != KindDelta || cnt[0].Points[0].Value != 10 {
		t.Fatalf("count = %+v", cnt)
	}
}

func TestWindowPruningViaRing(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("y", "Y.")
	clk := newFakeClock()
	// Window/Interval + 1 = 4 points capacity.
	s := newStore(reg, clk, Config{Window: 3 * time.Second, Interval: time.Second})

	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		s.Sample()
		clk.advance(time.Second)
	}
	pts := s.Query(nil, time.Time{})[0].Points
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want 4", len(pts))
	}
	if pts[0].Value != 6 || pts[3].Value != 9 {
		t.Fatalf("oldest-first points = %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].UnixMS <= pts[i-1].UnixMS {
			t.Fatalf("timestamps not increasing: %+v", pts)
		}
	}
}

func TestSinceFilter(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("y", "Y.")
	clk := newFakeClock()
	s := newStore(reg, clk, Config{Window: time.Minute, Interval: time.Second})
	var cut time.Time
	for i := 0; i < 6; i++ {
		if i == 3 {
			cut = clk.now()
		}
		g.Set(float64(i))
		s.Sample()
		clk.advance(time.Second)
	}
	pts := s.Query(nil, cut)[0].Points
	if len(pts) != 3 || pts[0].Value != 3 {
		t.Fatalf("since-filtered points = %+v", pts)
	}
}

func TestMemoryBudgetDropAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	vec := reg.GaugeVec("v", "V.", "id")
	clk := newFakeClock()
	// A window whose one ring fills the whole byte budget: 1 series only.
	capacity := (DefaultMaxBytes - seriesOverheadBytes) / pointBytes
	s := newStore(reg, clk, Config{
		Window:   time.Duration(capacity-1) * time.Second,
		Interval: time.Second,
	})
	if s.maxSer != 1 {
		t.Fatalf("the byte budget admits %d series, want 1", s.maxSer)
	}
	for i := 0; i < 5; i++ {
		vec.With("a").Set(1)
		vec.With("b").Set(2)
		vec.With("c").Set(3)
	}
	s.Sample()
	if got := s.SeriesCount(); got != 1 {
		t.Fatalf("series = %d, want 1", got)
	}
	if got := s.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2 refused writes", got)
	}
	clk.advance(time.Second)
	s.Sample()
	if got := s.Dropped(); got != 4 {
		t.Fatalf("dropped after second pass = %d, want 4", got)
	}
}

func TestLabeledSeriesKeys(t *testing.T) {
	reg := obs.NewRegistry()
	vec := reg.CounterVec("req_total", "R.", "route")
	vec.With("tick").Add(1)
	vec.With("report").Add(2)
	clk := newFakeClock()
	s := newStore(reg, clk, Config{Window: time.Minute, Interval: time.Second})
	s.Sample()
	series := s.Query([]string{"req_total"}, time.Time{})
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	// Sorted by key: report before tick.
	if series[0].Labels["route"] != "report" || series[1].Labels["route"] != "tick" {
		t.Fatalf("label order = %+v", series)
	}
	if got := series[0].Key(); got != `req_total{route="report"}` {
		t.Fatalf("key = %q", got)
	}
}

func TestSelfMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("y", "Y.").Set(1)
	clk := newFakeClock()
	s := newStore(reg, clk, Config{Window: time.Minute, Interval: time.Second})
	s.Register(reg)
	s.Sample()

	fams := reg.Gather()
	want := map[string]bool{
		"lpvs_history_samples_total":  false,
		"lpvs_history_dropped_total":  false,
		"lpvs_history_series":         false,
		"lpvs_history_points":         false,
		"lpvs_history_memory_bytes":   false,
		"lpvs_history_window_seconds": false,
	}
	for _, f := range fams {
		if _, ok := want[f.Name]; ok {
			want[f.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("self-metric %s not registered", name)
		}
	}
	// The self-metrics are themselves sampled on the next pass — the
	// history of the history.
	clk.advance(time.Second)
	s.Sample()
	if got := s.Query([]string{"lpvs_history_samples_total"}, time.Time{}); len(got) != 1 {
		t.Fatalf("history of history missing: %+v", got)
	}
}

func TestConcurrentSampleQueryScrape(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("x_total", "X.")
	s := New(reg, Config{Window: time.Minute, Interval: time.Second})
	s.Register(reg)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s.Sample()
		}
	}()
	for i := 0; i < 100; i++ {
		s.Query(nil, time.Time{})
		reg.Gather()
	}
	close(stop)
	wg.Wait()
}

// TestRunSamplesOnTicker: the daemon's sampling loop, ticking at the
// store's Interval, accumulates samples until stopped.
func TestRunSamplesOnTicker(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("y", "Y.").Set(1)
	s := New(reg, Config{Window: time.Second, Interval: time.Millisecond})
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		obs.Every(done, s.cfg.Interval, s.Sample)
	}()
	deadline := time.After(2 * time.Second)
	for s.Samples() < 3 {
		select {
		case <-deadline:
			t.Fatal("the loop never accumulated samples")
		case <-time.After(time.Millisecond):
		}
	}
	close(done)
	<-finished
}
