// Package runtimecollector samples the Go runtime's own health —
// heap size, GC activity and pause time, goroutine count, scheduler
// latency — into an obs.Registry once per sampling pass, so the daemon's
// /metrics exposition answers "is the process itself degrading?"
// alongside the scheduling telemetry.
//
// The collector reads the stable runtime/metrics interface (not the
// legacy runtime.ReadMemStats, which stops the world) and is therefore
// cheap enough to run at a few-second cadence on the serving path. All
// samples land in plain gauges/counters on the shared registry, under
// the lpvs_go_* prefix.
package runtimecollector

import (
	"math"
	"runtime"
	runtimemetrics "runtime/metrics"
	"time"

	"lpvs/internal/obs"
)

// Names of the runtime/metrics samples the collector reads. Kept in one
// place so the sample batch and the exposition stay in sync.
const (
	sampleHeapAlloc    = "/memory/classes/heap/objects:bytes"
	sampleHeapGoal     = "/gc/heap/goal:bytes"
	sampleHeapObjects  = "/gc/heap/objects:objects"
	sampleTotalMem     = "/memory/classes/total:bytes"
	sampleGCCycles     = "/gc/cycles/total:gc-cycles"
	sampleGCPauses     = "/gc/pauses:seconds"
	sampleSchedLatency = "/sched/latencies:seconds"
	sampleGoroutines   = "/sched/goroutines:goroutines"
)

// Collector folds runtime self-telemetry into a registry.
// Construct with New; the zero value is not usable.
type Collector struct {
	samples []runtimemetrics.Sample

	heapAllocBytes *obs.Gauge
	heapGoalBytes  *obs.Gauge
	heapObjects    *obs.Gauge
	totalMemBytes  *obs.Gauge
	goroutines     *obs.Gauge
	gomaxprocs     *obs.Gauge
	gcCycles       *obs.Gauge
	gcPauseTotal   *obs.Gauge
	gcPauseP99     *obs.Gauge
	schedLatP50    *obs.Gauge
	schedLatP99    *obs.Gauge
	lastSample     *obs.Gauge
}

// New registers the lpvs_go_* metric families on reg and returns a
// collector ready to Sample. It does not start a goroutine: the
// daemon's sampling loop calls Sample, as a test may.
func New(reg *obs.Registry) *Collector {
	c := &Collector{
		samples: []runtimemetrics.Sample{
			{Name: sampleHeapAlloc},
			{Name: sampleHeapGoal},
			{Name: sampleHeapObjects},
			{Name: sampleTotalMem},
			{Name: sampleGCCycles},
			{Name: sampleGCPauses},
			{Name: sampleSchedLatency},
			{Name: sampleGoroutines},
		},
		heapAllocBytes: reg.Gauge("lpvs_go_heap_alloc_bytes",
			"Bytes of live heap objects (runtime/metrics /memory/classes/heap/objects)."),
		heapGoalBytes: reg.Gauge("lpvs_go_heap_goal_bytes",
			"Heap size target of the current GC cycle."),
		heapObjects: reg.Gauge("lpvs_go_heap_objects",
			"Live objects on the heap."),
		totalMemBytes: reg.Gauge("lpvs_go_memory_total_bytes",
			"Total memory mapped by the Go runtime."),
		goroutines: reg.Gauge("lpvs_go_goroutines",
			"Live goroutines."),
		gomaxprocs: reg.Gauge("lpvs_go_gomaxprocs",
			"GOMAXPROCS the process runs with."),
		gcCycles: reg.Gauge("lpvs_go_gc_cycles_total",
			"Completed GC cycles since process start."),
		gcPauseTotal: reg.Gauge("lpvs_go_gc_pause_seconds_total",
			"Cumulative stop-the-world GC pause time since process start."),
		gcPauseP99: reg.Gauge("lpvs_go_gc_pause_p99_seconds",
			"Approximate 99th-percentile stop-the-world GC pause (lifetime distribution)."),
		schedLatP50: reg.Gauge("lpvs_go_sched_latency_p50_seconds",
			"Approximate median goroutine scheduling latency (lifetime distribution)."),
		schedLatP99: reg.Gauge("lpvs_go_sched_latency_p99_seconds",
			"Approximate 99th-percentile goroutine scheduling latency (lifetime distribution)."),
		lastSample: reg.Gauge("lpvs_go_runtime_sample_unix_seconds",
			"Unix time of the last runtime self-telemetry sample (0 = never sampled)."),
	}
	return c
}

// Sample reads runtime/metrics once and refreshes every gauge. Safe for
// concurrent use with scrapes (gauges are lock-free); callers should
// not run overlapping Samples, which one sampling loop guarantees.
func (c *Collector) Sample() {
	runtimemetrics.Read(c.samples)
	for i := range c.samples {
		s := &c.samples[i]
		switch s.Name {
		case sampleHeapAlloc:
			c.heapAllocBytes.Set(sampleFloat(s))
		case sampleHeapGoal:
			c.heapGoalBytes.Set(sampleFloat(s))
		case sampleHeapObjects:
			c.heapObjects.Set(sampleFloat(s))
		case sampleTotalMem:
			c.totalMemBytes.Set(sampleFloat(s))
		case sampleGCCycles:
			c.gcCycles.Set(sampleFloat(s))
		case sampleGCPauses:
			if s.Value.Kind() == runtimemetrics.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				c.gcPauseTotal.Set(histSum(h))
				c.gcPauseP99.Set(histQuantile(h, 0.99))
			}
		case sampleSchedLatency:
			if s.Value.Kind() == runtimemetrics.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				c.schedLatP50.Set(histQuantile(h, 0.50))
				c.schedLatP99.Set(histQuantile(h, 0.99))
			}
		case sampleGoroutines:
			c.goroutines.Set(sampleFloat(s))
		}
	}
	c.gomaxprocs.Set(float64(runtime.GOMAXPROCS(0)))
	c.lastSample.Set(float64(time.Now().UnixNano()) / 1e9)
}

// sampleFloat converts a runtime/metrics scalar sample to float64;
// unsupported kinds read as 0 so a runtime that drops a metric name
// degrades to a zero gauge instead of a panic.
func sampleFloat(s *runtimemetrics.Sample) float64 {
	switch s.Value.Kind() {
	case runtimemetrics.KindUint64:
		return float64(s.Value.Uint64())
	case runtimemetrics.KindFloat64:
		return s.Value.Float64()
	default:
		return 0
	}
}

// histSum approximates the cumulative sum of a runtime histogram using
// bucket midpoints (the runtime does not expose an exact sum). Infinite
// bucket edges fall back to the nearest finite edge.
func histSum(h *runtimemetrics.Float64Histogram) float64 {
	sum := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := bucketEdges(h, i)
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

// histQuantile approximates quantile q of a runtime histogram by
// locating the bucket containing the q-th observation and returning its
// upper edge — a conservative (pessimistic) estimate suited to latency
// alerting.
func histQuantile(h *runtimemetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.Counts {
		seen += n
		if seen >= rank {
			_, hi := bucketEdges(h, i)
			return hi
		}
	}
	_, hi := bucketEdges(h, len(h.Counts)-1)
	return hi
}

// bucketEdges returns finite [lo, hi] edges for bucket i: runtime
// histograms bracket their buckets with -Inf/+Inf sentinels, which are
// clamped to the adjacent finite edge.
func bucketEdges(h *runtimemetrics.Float64Histogram, i int) (lo, hi float64) {
	lo, hi = h.Buckets[i], h.Buckets[i+1]
	if math.IsInf(lo, -1) {
		lo = hi
	}
	if math.IsInf(hi, 1) {
		hi = lo
	}
	return lo, hi
}
