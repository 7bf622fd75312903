// Package obs is the observability substrate of the LPVS system: a
// dependency-free metrics registry (counters, gauges, bucketed
// histograms) with Prometheus text exposition, structured logging
// helpers on top of log/slog, and HTTP middleware that records
// per-endpoint traffic.
//
// Every process in the repository — the edge daemon, the emulator, the
// benchmark harness — shares one metrics vocabulary through this
// package, so a scrape of a live lpvsd and the summary dump of an
// emulation campaign are directly comparable.
//
// The registry is safe for concurrent use: metric mutations are
// lock-free (atomic CAS on float bits) and scraping takes only
// short-lived registry locks, so hot paths can instrument without
// contending with scrapers.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type names as they appear in # TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Registry holds a process's metric families and renders them in the
// Prometheus text exposition format (version 0.0.4). The zero value is
// not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	// seriesBudget caps the labelled series each family may hold; 0
	// means unlimited. dropped counts the labelled series the budget
	// refused (lpvs_series_dropped_total): each refused label set once.
	seriesBudget atomic.Int64
	dropped      atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// SetSeriesBudget caps the number of labelled series any one family may
// create (its cardinality budget). Zero or negative removes the cap.
// Label values seen after a family is full are not stored: the write
// lands in a detached series that is never scraped, and DroppedSeries
// counts the label set once. A family remembers up to maxRefused
// refused label sets, so a refused set written every tick reuses its
// detached series and counts no further drop; a label set beyond that
// memory counts on every write. So a misbehaving label source can
// inflate a counter but never the scrape size, and the registry's
// memory by at most maxRefused series a family.
func (r *Registry) SetSeriesBudget(n int) {
	if n < 0 {
		n = 0
	}
	r.seriesBudget.Store(int64(n))
}

// DroppedSeries reports how many labelled series the cardinality
// budget refused. Expose it as lpvs_series_dropped_total so overflow is
// visible, not silent.
func (r *Registry) DroppedSeries() uint64 { return r.dropped.Load() }

// family is one named metric with all its labelled series.
type family struct {
	reg     *Registry // owning registry (cardinality budget, drop counter)
	name    string
	help    string
	typ     string
	labels  []string  // label names; empty for plain metrics
	buckets []float64 // histogram upper bounds (without +Inf)

	mu      sync.Mutex
	series  map[string]*series // key: label values joined by 0xff
	refused map[string]*series // detached series of label sets the budget refused, same keys
	fn      func() float64     // evaluated at scrape time (counterFunc/gaugeFunc)
}

// series is one (metric, label-values) time series. Values are stored
// as float64 bits in atomics so increments never take a lock.
type series struct {
	labelVals []string
	detached  bool          // refused by the cardinality budget: writable, never scraped
	valBits   atomic.Uint64 // counter/gauge value
	// Histogram state: per-bucket counts (non-cumulative), total count,
	// and sum of observations.
	bucketCounts []atomic.Uint64
	count        atomic.Uint64
	sumBits      atomic.Uint64
}

func (s *series) value() float64    { return math.Float64frombits(s.valBits.Load()) }
func (s *series) set(v float64)     { s.valBits.Store(math.Float64bits(v)) }
func (s *series) add(delta float64) { atomicAddFloat(&s.valBits, delta) }
func (s *series) sum() float64      { return math.Float64frombits(s.sumBits.Load()) }
func (s *series) addSum(v float64)  { atomicAddFloat(&s.sumBits, v) }

// atomicAddFloat adds delta to a float64 stored as bits, via CAS.
func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// register returns the family, creating it on first use. Re-registering
// an existing name is idempotent when the shape matches and panics
// otherwise — conflicting registrations are programming errors.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		reg:     r,
		name:    name,
		help:    help,
		typ:     typ,
		labels:  labels,
		buckets: buckets,
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const labelSep = "\xff"

// maxRefused caps the refused label sets a family remembers, so that
// each counts one drop however often it is written. A constant, not a
// knob: the label sources in LPVS (routes, status codes, channels) are
// bounded by configuration, well below it.
const maxRefused = 256

// getSeries returns the series for the label values, creating it on
// first use.
func (f *family) getSeries(labelVals []string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	// Cardinality budget: a full family refuses new labelled series.
	// The caller still gets a working handle — writes just land in a
	// detached series that is never scraped — and the refusal is
	// counted so overflow shows up as lpvs_series_dropped_total
	// instead of an unbounded exposition. A label set already refused
	// gets its detached series back, uncounted, while the family is
	// still full; once the budget admits it, it is stored like any new
	// one.
	budget := f.reg.seriesBudget.Load()
	full := budget > 0 && len(f.labels) > 0 && int64(len(f.series)) >= budget
	if s, ok := f.refused[key]; ok {
		if full {
			return s
		}
		delete(f.refused, key)
	}
	s := &series{labelVals: append([]string(nil), labelVals...)}
	if f.typ == TypeHistogram {
		s.bucketCounts = make([]atomic.Uint64, len(f.buckets))
	}
	if full {
		f.reg.dropped.Add(1)
		s.detached = true
		if len(f.refused) < maxRefused {
			if f.refused == nil {
				f.refused = make(map[string]*series)
			}
			f.refused[key] = s
		}
		return s
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing metric.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.add(1) }

// Add adds a non-negative delta; negative deltas are ignored (counters
// never go down).
func (c *Counter) Add(delta float64) {
	if delta > 0 {
		c.s.add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.s.value() }

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.s.set(v) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta float64) { g.s.add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.s.value() }

// Histogram accumulates observations into cumulative buckets, exposed
// as the standard _bucket/_sum/_count series triple.
type Histogram struct {
	f *family
	s *series
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.s.bucketCounts[i].Add(1)
			break
		}
	}
	h.s.count.Add(1)
	h.s.addSum(v)
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, TypeCounter, nil, nil)
	return &Counter{s: f.getSeries(nil)}
}

// Gauge registers (or returns) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, TypeGauge, nil, nil)
	return &Gauge{s: f.getSeries(nil)}
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// The function must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, TypeGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterFunc registers a counter whose value is computed at scrape
// time — for totals that already live in application state.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, TypeCounter, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns) an unlabelled histogram with the
// given bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, TypeHistogram, nil, checkBuckets(buckets))
	return &Histogram{f: f, s: f.getSeries(nil)}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, TypeCounter, labelNames, nil)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(labelVals ...string) *Counter {
	return &Counter{s: v.f.getSeries(labelVals)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, TypeGauge, labelNames, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	return &Gauge{s: v.f.getSeries(labelVals)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, TypeHistogram, labelNames, checkBuckets(buckets))}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.getSeries(labelVals)}
}

func checkBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic("obs: histogram with no buckets")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets not strictly ascending")
		}
	}
	return append([]float64(nil), buckets...)
}

// DefBuckets are latency buckets from 1 ms to 10 s, suitable for both
// HTTP handlers and scheduler phases.
func DefBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// ExpBuckets returns n exponentially growing buckets starting at start.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: bad exponential bucket parameters")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// WriteText renders every family in the Prometheus text exposition
// format: families sorted by name, series sorted by label values, each
// family preceded by its # HELP and # TYPE lines.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeText(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)

	f.mu.Lock()
	fn := f.fn
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	all := make([]*series, 0, len(keys))
	for _, k := range keys {
		all = append(all, f.series[k])
	}
	f.mu.Unlock()

	if fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(fn()))
		return
	}
	for _, s := range all {
		switch f.typ {
		case TypeHistogram:
			f.writeHistogram(b, s)
		default:
			fmt.Fprintf(b, "%s%s %s\n", f.name, formatLabels(f.labels, s.labelVals), formatFloat(s.value()))
		}
	}
}

func (f *family) writeHistogram(b *strings.Builder, s *series) {
	// Fresh label slices: appending to the shared f.labels/s.labelVals
	// backing arrays would race between concurrent scrapes.
	leNames := make([]string, len(f.labels)+1)
	leVals := make([]string, len(s.labelVals)+1)
	copy(leNames, f.labels)
	copy(leVals, s.labelVals)
	leNames[len(f.labels)] = "le"

	cum := uint64(0)
	for i, ub := range f.buckets {
		cum += s.bucketCounts[i].Load()
		leVals[len(s.labelVals)] = formatFloat(ub)
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, formatLabels(leNames, leVals), cum)
	}
	count := s.count.Load()
	leVals[len(s.labelVals)] = "+Inf"
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, formatLabels(leNames, leVals), count)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, formatLabels(f.labels, s.labelVals), formatFloat(s.sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, formatLabels(f.labels, s.labelVals), count)
}

func formatLabels(names, vals []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Handler returns an http.Handler serving the exposition text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WriteText(w)
	})
}
