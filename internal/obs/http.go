package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// HTTPMetrics is the per-endpoint traffic instrumentation shared by
// every route of an HTTP service: request counts by status code, error
// counts, latency histograms, and an in-flight gauge.
type HTTPMetrics struct {
	requests *CounterVec
	errors   *CounterVec
	latency  *HistogramVec
	inFlight *Gauge
	logger   *slog.Logger
}

// NewHTTPMetrics registers the HTTP metric families on reg. A nil
// logger disables request logging.
func NewHTTPMetrics(reg *Registry, logger *slog.Logger) *HTTPMetrics {
	if logger == nil {
		logger = NopLogger()
	}
	return &HTTPMetrics{
		requests: reg.CounterVec("lpvs_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		errors: reg.CounterVec("lpvs_http_errors_total",
			"HTTP requests that returned a 4xx or 5xx status, by route.", "route"),
		latency: reg.HistogramVec("lpvs_http_request_duration_seconds",
			"HTTP request latency in seconds, by route.", DefBuckets(), "route"),
		inFlight: reg.Gauge("lpvs_http_in_flight_requests",
			"HTTP requests currently being served."),
		logger: logger,
	}
}

// statusWriter captures the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// statusWriters recycles them: one per request is the middleware's only
// allocation. A handler must not use its ResponseWriter after it
// returns (net/http's own rule), which is what makes the reuse safe.
var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Instrument wraps a handler so every request is counted, timed, and
// logged under the given route label (use the mux pattern, e.g.
// "POST /v1/report", so cardinality stays bounded).
func (m *HTTPMetrics) Instrument(route string, next http.Handler) http.Handler {
	return &instrumented{m: m, route: route, next: next, byCode: make(map[int]routeSeries)}
}

// routeSeries are the series one (route, status code) pair writes to.
type routeSeries struct {
	requests *Counter   // lpvs_http_requests_total{route,code}
	latency  *Histogram // lpvs_http_request_duration_seconds{route}
	errors   *Counter   // lpvs_http_errors_total{route}; nil below 400
}

// instrumented is one wrapped route. It keeps the series handles it has
// resolved, so a served request pays a map read instead of label
// joins, strconv and registry locks. Resolution stays lazy — per code,
// on the first request that returns it — because a series must not
// appear in the exposition before it has a sample.
type instrumented struct {
	m     *HTTPMetrics
	route string
	next  http.Handler

	mu     sync.RWMutex
	byCode map[int]routeSeries
}

// series returns the handles for a status code, resolving them through
// the registry the first time the route returns that code.
func (h *instrumented) series(code int) routeSeries {
	h.mu.RLock()
	rs, ok := h.byCode[code]
	h.mu.RUnlock()
	if ok {
		return rs
	}
	rs = routeSeries{
		requests: h.m.requests.With(h.route, strconv.Itoa(code)),
		latency:  h.m.latency.With(h.route),
	}
	if code >= 400 {
		rs.errors = h.m.errors.With(h.route)
	}
	// A series the cardinality budget refused is not kept: resolved again
	// on the next request, it is stored and exposed once the budget
	// admits it. The registry counts its label set in DroppedSeries once.
	if rs.requests.s.detached || rs.latency.s.detached || (rs.errors != nil && rs.errors.s.detached) {
		return rs
	}
	h.mu.Lock()
	h.byCode[code] = rs
	h.mu.Unlock()
	return rs
}

func (h *instrumented) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m := h.m
	start := time.Now()
	m.inFlight.Add(1)
	sw := statusWriters.Get().(*statusWriter)
	sw.ResponseWriter, sw.code = w, http.StatusOK
	h.next.ServeHTTP(sw, r)
	m.inFlight.Add(-1)
	code := sw.code
	sw.ResponseWriter = nil
	statusWriters.Put(sw)

	elapsed := time.Since(start).Seconds()
	rs := h.series(code)
	rs.requests.Inc()
	rs.latency.Observe(elapsed)
	if rs.errors != nil {
		rs.errors.Inc()
	}

	level := slog.LevelDebug
	if code >= 500 {
		level = slog.LevelWarn
	}
	// LogAttrs with typed attrs: nothing is boxed or formatted unless the
	// level is enabled.
	m.logger.LogAttrs(r.Context(), level, "http request",
		slog.String("route", h.route),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("code", code),
		slog.Float64("duration_ms", elapsed*1000),
		slog.String("remote", r.RemoteAddr),
	)
}
