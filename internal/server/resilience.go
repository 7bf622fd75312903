package server

import (
	"fmt"
	"net/http"
)

// This file implements the daemon's admission control (DESIGN.md §12):
// bounded admission on the heavy mutation routes and 429 + Retry-After
// load shedding when the bound is hit. Read-only probes (/healthz,
// /metrics, /v1/status) are deliberately ungated so operators can
// still see a saturated daemon. Panic recovery, body caps and the
// envelope 405s are the route shell's (shell.go).

// Admission limits.
const (
	// DefaultMaxInflight bounds concurrently admitted heavy requests
	// (report/tick/observe) unless Config.MaxInflight overrides it. Far
	// above the worker count: the gate exists to shed a flood, not to
	// queue-shape normal traffic.
	DefaultMaxInflight = 256
	// DefaultMaxBodyBytes caps one POST body, on the daemon and the
	// router alike. Sized for a 10k-device batch report with headroom.
	DefaultMaxBodyBytes = 16 << 20
	// retryAfterSeconds is the client back-off hint on a shed request.
	retryAfterSeconds = 1
)

// gate is a non-blocking admission semaphore. A full gate sheds
// instead of queueing: under overload, queued requests would all time
// out together, whereas an immediate 429 + Retry-After lets clients
// back off and the admitted ones finish.
type gate struct {
	sem chan struct{}
}

func newGate(n int) *gate {
	return &gate{sem: make(chan struct{}, n)}
}

// tryAcquire admits the caller if a slot is free.
func (g *gate) tryAcquire() bool {
	select {
	case g.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g *gate) release() { <-g.sem }

// inflight reports currently admitted requests (for the gauge).
func (g *gate) inflight() int { return len(g.sem) }

// admit gates a heavy route: over the in-flight bound the request is
// shed with 429 + Retry-After rather than queued. Admissions and sheds
// feed the shed-requests SLO; sheds are also counted per route (bounded
// label set: only the fixed gated routes reach here).
func (s *Server) admit(next http.Handler, routePath string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.gate.tryAcquire() {
			s.metrics.shed.Inc()
			s.metrics.shedRoute.With(routePath).Inc()
			if s.flight != nil {
				s.flight.OnShed()
			}
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
			writeErrorMsg(w, http.StatusTooManyRequests, CodeOverloaded,
				fmt.Sprintf("edge at capacity (%d in flight); retry after %ds", cap(s.gate.sem), retryAfterSeconds))
			return
		}
		defer s.gate.release()
		s.admitted.Add(1)
		next.ServeHTTP(w, r)
	})
}
