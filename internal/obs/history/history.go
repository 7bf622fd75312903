// Package history is the time dimension of the LPVS metrics registry:
// a fixed-window, fixed-budget in-memory ring store that samples an
// obs.Registry once per sampling pass and answers range queries over the recent
// past. It exists so an operator (or the flight recorder) can ask
// "what happened in the last fifteen minutes" after the instantaneous
// state that caused an incident is already gone.
//
// Storage model, per source series:
//
//   - counters  → per-sample deltas (rate numerators); a raw value
//     that goes backwards is treated as a process restart and the
//     sample is recorded as the full new value, never negative.
//   - gauges    → raw points.
//   - histograms → derived quantile gauges (_p50 and _p99, estimated
//     from the cumulative buckets) plus a _count delta series, so tail
//     latency is reconstructable without storing every bucket.
//
// Memory is bounded by a fixed byte budget: each retained series
// owns one fixed ring of Window/Interval points, the store admits
// series first-come-first-served until the budget is exhausted, and
// refused writes are counted (lpvs_history_dropped_total) rather than
// silently discarded. Nothing in this package mutates the sampled
// registry beyond its own self-telemetry families, and sampling takes
// only the registry's scrape locks — it is an observer, never an
// actor, so scheduling decisions are byte-identical with history on
// or off.
package history

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"lpvs/internal/obs"
)

// Defaults for Config fields left zero, and the store's fixed byte
// budget.
const (
	DefaultWindow   = 15 * time.Minute
	DefaultInterval = 5 * time.Second
	// DefaultMaxBytes bounds the memory of all rings together. Series
	// beyond the budget are refused and counted, never stored.
	DefaultMaxBytes = 4 << 20 // 4 MiB of rings

	// pointBytes is the in-ring cost of one sample (unix-ms int64 +
	// float64 value); seriesOverheadBytes approximates the fixed cost
	// of a retained series (key string, labels map, ring header).
	// DESIGN.md §15 shows the resulting capacity math.
	pointBytes          = 16
	seriesOverheadBytes = 128
)

// quantiles are the derived gauges kept per histogram family.
var quantiles = [...]float64{0.5, 0.99}

// Kind says how a series' points must be read.
type Kind string

const (
	// KindPoint: each value is an instantaneous reading (gauges,
	// derived histogram quantiles).
	KindPoint Kind = "point"
	// KindDelta: each value is the increase since the previous sample
	// (counters, derived histogram _count series). Divide by the
	// sampling interval for a rate.
	KindDelta Kind = "delta"
)

// Point is one sample: a unix-millisecond timestamp and a value.
type Point struct {
	UnixMS int64   `json:"t"`
	Value  float64 `json:"v"`
}

// Series is one retained time series as returned by Query and as
// embedded in flight bundles.
type Series struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   Kind              `json:"kind"`
	Points []Point           `json:"points"`
}

// Key renders the canonical identity of the series: the name plus
// label pairs in sorted order, e.g. `lpvs_vc_ticks{stream="live-0"}`.
func (s Series) Key() string { return seriesKey(s.Name, s.Labels) }

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Config parameterizes a Store. The zero value gets the defaults
// above.
type Config struct {
	// Window is how far back Query can reach; older points are
	// overwritten in place.
	Window time.Duration
	// Interval is the expected sampling cadence; with Window it sizes
	// each ring (Window/Interval + 1 points).
	Interval time.Duration
}

// Store samples a registry into per-series rings. Safe for concurrent
// use: Sample, Query and the self-metric funcs all take s.mu.
type Store struct {
	reg      *obs.Registry
	cfg      Config
	capacity int // points per ring
	maxSer   int // series budget derived from DefaultMaxBytes
	// now is the sample clock: time.Now, or a fake one in this
	// package's tests.
	now func() time.Time

	mu      sync.Mutex
	rings   map[string]*ring
	samples uint64
	dropped uint64 // refused point-writes (budget overflow)
}

type ring struct {
	name    string
	labels  map[string]string
	kind    Kind
	prev    float64 // last raw cumulative value (delta series)
	prevSet bool
	buf     []Point
	start   int
	n       int
}

func (rg *ring) push(p Point) {
	if rg.n < len(rg.buf) {
		rg.buf[(rg.start+rg.n)%len(rg.buf)] = p
		rg.n++
		return
	}
	rg.buf[rg.start] = p
	rg.start = (rg.start + 1) % len(rg.buf)
}

// points returns the ring's samples oldest-first, dropping any older
// than since (unix ms, inclusive).
func (rg *ring) points(sinceMS int64) []Point {
	out := make([]Point, 0, rg.n)
	for i := 0; i < rg.n; i++ {
		p := rg.buf[(rg.start+i)%len(rg.buf)]
		if p.UnixMS >= sinceMS {
			out = append(out, p)
		}
	}
	return out
}

// New builds a Store over reg. It does not sample by itself: the
// daemon's sampling loop calls Sample every Interval.
func New(reg *obs.Registry, cfg Config) *Store {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	capacity := int(cfg.Window/cfg.Interval) + 1
	if capacity < 2 {
		capacity = 2
	}
	maxSer := DefaultMaxBytes / (capacity*pointBytes + seriesOverheadBytes)
	if maxSer < 1 {
		maxSer = 1
	}
	return &Store{
		reg:      reg,
		cfg:      cfg,
		capacity: capacity,
		maxSer:   maxSer,
		now:      time.Now,
		rings:    make(map[string]*ring),
	}
}

// Window reports the configured retention window.
func (s *Store) Window() time.Duration { return s.cfg.Window }

// Interval reports the configured sampling cadence.
func (s *Store) Interval() time.Duration { return s.cfg.Interval }

// Samples reports how many Sample passes have run.
func (s *Store) Samples() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// Dropped reports how many point-writes were refused by the memory
// budget.
func (s *Store) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// memoryBytes estimates retained ring memory under the budget model.
func (s *Store) memoryBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rings) * (s.capacity*pointBytes + seriesOverheadBytes)
}

// Sample gathers the registry once and folds every family into the
// rings. The gather happens before s.mu is taken so registry
// scrape-time funcs (including this store's own self-metrics) never
// deadlock against the store lock.
func (s *Store) Sample() {
	now := s.now()
	fams := s.reg.Gather()

	s.mu.Lock()
	defer s.mu.Unlock()
	ms := now.UnixMilli()
	s.samples++
	for _, f := range fams {
		for _, se := range f.Series {
			labels := labelMap(f.Labels, se.LabelValues)
			switch f.Type {
			case obs.TypeCounter:
				s.record(f.Name, labels, KindDelta, ms, se.Value)
			case obs.TypeGauge:
				s.record(f.Name, labels, KindPoint, ms, se.Value)
			case obs.TypeHistogram:
				for _, q := range quantiles {
					name := fmt.Sprintf("%s_p%g", f.Name, q*100)
					v := quantile(f.Buckets, se.BucketCounts, se.Count, q)
					s.recordPoint(name, labels, KindPoint, ms, v)
				}
				s.record(f.Name+"_count", labels, KindDelta, ms, float64(se.Count))
			}
		}
	}
}

// record stores one raw reading; delta series difference it against
// the previous raw value with reset detection.
func (s *Store) record(name string, labels map[string]string, kind Kind, ms int64, raw float64) {
	rg := s.ring(name, labels, kind)
	if rg == nil {
		s.dropped++
		return
	}
	v := raw
	if kind == KindDelta {
		if rg.prevSet {
			v = raw - rg.prev
			if v < 0 {
				// Counter reset (process restart): the new raw value
				// is the whole increase since the reset.
				v = raw
			}
		}
		rg.prev = raw
		rg.prevSet = true
	}
	rg.push(Point{UnixMS: ms, Value: v})
}

// recordPoint stores an already-derived instantaneous value.
func (s *Store) recordPoint(name string, labels map[string]string, kind Kind, ms int64, v float64) {
	rg := s.ring(name, labels, kind)
	if rg == nil {
		s.dropped++
		return
	}
	rg.push(Point{UnixMS: ms, Value: v})
}

func (s *Store) ring(name string, labels map[string]string, kind Kind) *ring {
	key := seriesKey(name, labels)
	rg, ok := s.rings[key]
	if ok {
		return rg
	}
	if len(s.rings) >= s.maxSer {
		return nil
	}
	rg = &ring{name: name, labels: labels, kind: kind, buf: make([]Point, s.capacity)}
	s.rings[key] = rg
	return rg
}

// Query returns deep copies of every series whose name starts with one
// of the prefixes (nil or empty = all), keeping only points at or
// after since (zero = the whole window). Results are sorted by series
// key so output is deterministic.
func (s *Store) Query(prefixes []string, since time.Time) []Series {
	var sinceMS int64
	if !since.IsZero() {
		sinceMS = since.UnixMilli()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.rings))
	for k := range s.rings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Series, 0, len(keys))
	for _, k := range keys {
		rg := s.rings[k]
		if !matchesPrefix(rg.name, prefixes) {
			continue
		}
		pts := rg.points(sinceMS)
		if len(pts) == 0 {
			continue
		}
		out = append(out, Series{Name: rg.name, Labels: rg.labels, Kind: rg.kind, Points: pts})
	}
	return out
}

// SeriesCount reports how many series are currently retained.
func (s *Store) SeriesCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rings)
}

// PointCount reports the total points currently retained.
func (s *Store) PointCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rg := range s.rings {
		n += rg.n
	}
	return n
}

// Register exposes the store's self-telemetry on reg as scrape-time
// funcs, so history health is visible in the very metrics it samples.
func (s *Store) Register(reg *obs.Registry) {
	reg.CounterFunc("lpvs_history_samples_total",
		"Metric-history sampling passes completed.",
		func() float64 { return float64(s.Samples()) })
	reg.CounterFunc("lpvs_history_dropped_total",
		"History point-writes refused by the memory budget.",
		func() float64 { return float64(s.Dropped()) })
	reg.GaugeFunc("lpvs_history_series",
		"Time series currently retained by the history ring.",
		func() float64 { return float64(s.SeriesCount()) })
	reg.GaugeFunc("lpvs_history_points",
		"Samples currently retained across all history rings.",
		func() float64 { return float64(s.PointCount()) })
	reg.GaugeFunc("lpvs_history_memory_bytes",
		"Estimated bytes held by history rings under the budget model.",
		func() float64 { return float64(s.memoryBytes()) })
	reg.GaugeFunc("lpvs_history_window_seconds",
		"Retention window of the history ring.",
		func() float64 { return s.cfg.Window.Seconds() })
}

func matchesPrefix(name string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func labelMap(names, values []string) map[string]string {
	if len(names) == 0 || len(names) != len(values) {
		return nil
	}
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = values[i]
	}
	return m
}

// quantile estimates the q-quantile from cumulative bucket counts and
// the total count, by linear scan for the first bucket whose
// cumulative count covers q·count. Observations beyond the last
// finite bound report that bound (the +Inf bucket has no upper edge).
func quantile(bounds []float64, cum []uint64, count uint64, q float64) float64 {
	if count == 0 || len(bounds) == 0 || len(cum) != len(bounds) {
		return 0
	}
	rank := q * float64(count)
	for i, c := range cum {
		if float64(c) >= rank {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}
