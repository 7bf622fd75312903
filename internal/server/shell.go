package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lpvs/internal/obs"
	"lpvs/internal/obs/slo"
)

// This file is the v1 route shell: everything about an HTTP
// personality that is not its handlers. The edge daemon and the router
// (internal/router) each hand it a route table; middleware order,
// envelope texts and routing fallbacks are therefore identical between
// them by construction.

// Route is one v1 endpoint.
type Route struct {
	Method  string
	Path    string
	Handler http.HandlerFunc
	// Gated routes pass the shell's admission control (heavy mutations);
	// probes stay ungated so a saturated process remains observable.
	Gated bool
}

// Shell wraps a route table into a personality's http.Handler.
type Shell struct {
	// Metrics instruments every route, the 405 fallbacks included.
	Metrics *obs.HTTPMetrics
	// Log receives the stack of a recovered handler panic.
	Log *slog.Logger
	// Admit wraps the Gated routes; nil leaves them ungated.
	Admit func(next http.Handler, path string) http.Handler
	// OnPanic, when set, is told of each recovered panic.
	OnPanic func(path string, rec any)

	// Ready, Registry and SLO back the probe routes every personality
	// serves, which the shell registers itself: /healthz (liveness),
	// /readyz (Ready; 503 while draining), /metrics (Registry) and
	// /v1/slo (SLO, evaluated on demand). All four are ungated.
	Ready    *atomic.Bool
	Registry *obs.Registry
	SLO      *slo.Engine
}

// Handler builds the mux over routes plus the shell's probe routes.
// Every route runs observability → panic recovery → (admission gate) →
// (body cap) → handler; a registered path under an unregistered method
// answers an envelope 405 with the Allow header, and an unknown path an
// envelope 404.
func (sh Shell) Handler(routes []Route) http.Handler {
	mux := http.NewServeMux()
	allow := map[string][]string{}
	for _, rt := range append(routes, sh.probes()...) {
		var h http.Handler = rt.Handler
		if rt.Method == "POST" {
			h = capBody(h)
		}
		if rt.Gated && sh.Admit != nil {
			h = sh.Admit(h, rt.Path)
		}
		pattern := rt.Method + " " + rt.Path
		mux.Handle(pattern, sh.Metrics.Instrument(pattern, sh.recoverPanics(h)))
		allow[rt.Path] = append(allow[rt.Path], rt.Method)
	}
	// Bare-path fallbacks: a registered path with an unregistered method
	// is 405 + Allow, not the mux's plain-text default.
	for path, methods := range allow {
		mux.Handle(path, sh.Metrics.Instrument(path, methodNotAllowed(methods)))
	}
	mux.Handle("/", sh.Metrics.Instrument("fallback", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeErrorMsg(w, http.StatusNotFound, CodeNotFound, "no such route: "+r.URL.Path)
	})))
	return mux
}

// probes are the liveness, readiness, metrics and SLO routes.
func (sh Shell) probes() []Route {
	return []Route{
		{Method: "GET", Path: "/healthz", Handler: func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		}},
		{Method: "GET", Path: "/readyz", Handler: func(w http.ResponseWriter, _ *http.Request) {
			if !sh.Ready.Load() {
				WriteJSON(w, http.StatusServiceUnavailable, ReadyResponse{Ready: false, Reason: "draining"})
				return
			}
			WriteJSON(w, http.StatusOK, ReadyResponse{Ready: true})
		}},
		{Method: "GET", Path: "/metrics", Handler: sh.Registry.Handler().ServeHTTP},
		{Method: "GET", Path: "/v1/slo", Handler: func(w http.ResponseWriter, _ *http.Request) {
			// Evaluate on demand (not just Snapshot): a polling dashboard
			// then sharpens the burn windows beyond the background
			// sampling interval.
			states := sh.SLO.Evaluate()
			WriteJSON(w, http.StatusOK, SLOResponse{
				EvalUnixSec: float64(time.Now().UnixNano()) / 1e9,
				Objectives:  states,
			})
		}},
	}
}

// recoverPanics converts a handler panic into an envelope 500 instead
// of killing the connection (and, under http.Server, spamming a stack
// trace per request). The stack is logged once, server-side.
func (sh Shell) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				sh.Log.Error("handler panic",
					"path", r.URL.Path, "panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()))
				if sh.OnPanic != nil {
					sh.OnPanic(r.URL.Path, rec)
				}
				// The handler may have written already; this is then a
				// no-op, and the client sees a truncated body — the best
				// available outcome.
				writeErrorMsg(w, http.StatusInternalServerError, CodeInternal, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// capBody bounds a POST body to DefaultMaxBodyBytes: a read past it
// fails with *http.MaxBytesError, which the decode helpers (readBody,
// DecodeReport) answer with 413. A body of known length within the cap
// is left as it is: net/http's body reader already stops at
// ContentLength.
func capBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength < 0 || r.ContentLength > DefaultMaxBodyBytes {
			r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// methodNotAllowed writes the envelope 405 with the Allow header —
// registered on the bare path so any method without its own pattern
// lands here instead of the mux's plain-text default.
func methodNotAllowed(allow []string) http.HandlerFunc {
	sort.Strings(allow)
	allowHeader := strings.Join(allow, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allowHeader)
		writeErrorMsg(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; allowed: %s", r.Method, allowHeader))
	}
}
