package server

import (
	"encoding/json"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"lpvs/internal/obs/audit"
	"lpvs/internal/obs/flight"
	"lpvs/internal/obs/history"
	"lpvs/internal/obs/slo"
)

// newFlightRecorder arms the black-box recorder (DESIGN.md §15). The
// SLO and history sources are closures over s so they read whatever
// is live at capture time; the SLO-transition hook itself is wired in
// newSLOEngine.
func (s *Server) newFlightRecorder() error {
	version := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		version = bi.Main.Version
	}
	rec, err := flight.New(flight.Config{
		Dir:        s.cfg.FlightDir,
		History:    s.history,
		Tracer:     s.tracer,
		SLOStates:  func() []slo.State { return s.slo.Snapshot() },
		Meta:       s.flightMeta,
		Version:    version,
		ConfigHash: audit.NewConfigRecord(s.pool.Scheduler().Config()).Hash(),
		Logger:     s.log,
	})
	if err != nil {
		return err
	}
	rec.Register(s.metrics.reg)
	s.flight = rec
	return nil
}

// flightMeta captures the daemon's durable-state health for bundle
// metadata: which restore path boot took and how snapshotting is
// doing. Reads only registry counters and boot-time strings, so it is
// safe from any capture site.
func (s *Server) flightMeta() map[string]string {
	m := map[string]string{}
	if s.restorePath != "" {
		m["restore_path"] = s.restorePath
		m["restore_detail"] = s.restoreDetail
	}
	if path := s.SnapshotPath(); path != "" {
		m["snapshot_path"] = path
		sm := s.metrics
		m["snapshot_writes"] = strconv.FormatUint(uint64(sm.snapWrites.Value()), 10)
		m["snapshot_errors"] = strconv.FormatUint(uint64(sm.snapErrors.Value()), 10)
		m["snapshot_last_unix_sec"] = strconv.FormatInt(int64(sm.snapLastUnix.Value()), 10)
	}
	return m
}

// History exposes the metric-history store (nil when disabled).
func (s *Server) History() *history.Store { return s.history }

// handleHistory serves GET /v1/history range queries:
//
//	?series=lpvs_ticks_total,lpvs_go_   comma-separated name prefixes
//	?since=1754650000                   unix seconds (float ok)
//	?last=5m                            only the trailing duration
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeErrorMsg(w, http.StatusNotFound, CodeNotFound,
			"metric history disabled (start with -history-window)")
		return
	}
	q := r.URL.Query()
	var prefixes []string
	if raw := q.Get("series"); raw != "" {
		for _, p := range strings.Split(raw, ",") {
			if p = strings.TrimSpace(p); p != "" {
				prefixes = append(prefixes, p)
			}
		}
	}
	var since time.Time
	if raw := q.Get("since"); raw != "" {
		sec, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			writeErrorMsg(w, http.StatusBadRequest, CodeBadRequest,
				"since must be unix seconds: "+raw)
			return
		}
		since = time.Unix(0, int64(sec*1e9))
	}
	if raw := q.Get("last"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			writeErrorMsg(w, http.StatusBadRequest, CodeBadRequest,
				"last must be a positive duration: "+raw)
			return
		}
		cut := time.Now().Add(-d)
		if cut.After(since) {
			since = cut
		}
	}
	resp := HistoryResponse{
		NowUnixSec:  float64(time.Now().UnixNano()) / 1e9,
		WindowSec:   s.history.Window().Seconds(),
		IntervalSec: s.history.Interval().Seconds(),
		Samples:     s.history.Samples(),
		Series:      s.history.Query(prefixes, since),
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleIncident serves POST /v1/incident: a manual flight-recorder
// capture. The body is optional JSON {"reason": "..."}.
func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeErrorMsg(w, http.StatusNotFound, CodeNotFound,
			"flight recorder disabled (start with -flight-dir)")
		return
	}
	reason := "operator capture"
	body, aerr := readBody(r)
	if aerr != nil {
		aerr.write(w)
		return
	}
	if len(body) > 0 {
		var req IncidentRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeErrorMsg(w, http.StatusBadRequest, CodeBadRequest, "decode body: "+err.Error())
			return
		}
		if req.Reason != "" {
			reason = req.Reason
		}
	}
	path, err := s.flight.Capture(reason)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	b := s.flight
	resp := IncidentResponse{
		Path:    path,
		Trigger: flight.TriggerManual,
		Bundles: b.BundlesWritten(),
	}
	_, resp.WrittenUnixSec = b.LastBundle()
	WriteJSON(w, http.StatusOK, resp)
}
