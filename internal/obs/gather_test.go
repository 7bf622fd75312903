package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestGatherMirrorsExposition(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("a_requests_total", "Requests.", "route")
	c.With("tick").Add(3)
	c.With("report").Add(5)
	g := r.Gauge("b_devices", "Devices.")
	g.Set(42)
	h := r.HistogramVec("c_latency_seconds", "Latency.", []float64{0.1, 1}, "route")
	h.With("tick").Observe(0.05)
	h.With("tick").Observe(0.5)
	h.With("tick").Observe(5)
	r.GaugeFunc("d_fn", "Func gauge.", func() float64 { return 7 })

	fams := r.Gather()
	if len(fams) != 4 {
		t.Fatalf("families = %d, want 4", len(fams))
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name >= fams[i].Name {
			t.Fatalf("families not sorted: %q >= %q", fams[i-1].Name, fams[i].Name)
		}
	}

	byName := map[string]FamilySnapshot{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	a := byName["a_requests_total"]
	if a.Type != TypeCounter || len(a.Series) != 2 {
		t.Fatalf("a_requests_total: type %q series %d", a.Type, len(a.Series))
	}
	// Series sorted by label key: "report" < "tick".
	if got := a.Series[0]; got.LabelValues[0] != "report" || got.Value != 5 {
		t.Fatalf("series[0] = %+v", got)
	}
	if got := a.Series[1]; got.LabelValues[0] != "tick" || got.Value != 3 {
		t.Fatalf("series[1] = %+v", got)
	}

	if got := byName["b_devices"].Series[0].Value; got != 42 {
		t.Fatalf("b_devices = %v", got)
	}

	ch := byName["c_latency_seconds"]
	if !reflect.DeepEqual(ch.Buckets, []float64{0.1, 1}) {
		t.Fatalf("buckets = %v", ch.Buckets)
	}
	s := ch.Series[0]
	// Cumulative: le=0.1 → 1 obs, le=1 → 2 obs; +Inf is Count.
	if !reflect.DeepEqual(s.BucketCounts, []uint64{1, 2}) || s.Count != 3 {
		t.Fatalf("histogram series = %+v", s)
	}

	if got := byName["d_fn"].Series[0].Value; got != 7 {
		t.Fatalf("d_fn = %v", got)
	}
}

// TestGatherConcurrentWithWrites hammers Gather against hot-path
// mutations; run under -race this proves sampling never contends
// unsafely with instrumented code.
func TestGatherConcurrentWithWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "X.")
	h := r.Histogram("y_seconds", "Y.", []float64{1})
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
				h.Observe(0.5)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		fams := r.Gather()
		if len(fams) != 2 {
			t.Fatalf("families = %d", len(fams))
		}
	}
	close(stop)
	wg.Wait()
}
