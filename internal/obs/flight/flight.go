// Package flight is the LPVS black-box recorder: it freezes a
// complete forensic bundle — recent metric history, the span ring,
// the last N decision audit records, SLO states, goroutine and heap
// profiles, build and config identity — the moment something goes
// wrong, and writes it atomically through internal/persist's
// versioned container so a postmortem can start from one file.
//
// Triggers (the trigger matrix is in DESIGN.md §15):
//
//   - slo-alarm:  an SLO objective transitions into alarm
//   - panic:      a request handler panicked and was recovered
//   - shed-burst: admission control shed DefaultShedBurst requests
//     within DefaultShedWindow
//   - manual:     POST /v1/incident
//
// Automatic triggers share a cooldown so an alarm flapping every
// evaluation cannot fill the disk; suppressed captures are counted.
// Bundles rotate: only the newest DefaultMaxBundles files are kept.
//
// The recorder is strictly an observer. It is fed copies of data the
// daemon already produced (encoded audit lines, gathered history,
// snapshotted spans) and never touches scheduling state, so decisions
// are byte-identical with the recorder armed or absent.
package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"lpvs/internal/obs"
	"lpvs/internal/obs/history"
	"lpvs/internal/obs/slo"
	"lpvs/internal/obs/span"
	"lpvs/internal/persist"
)

// Bundle container identity (see internal/persist: LPVSSNAP magic,
// kind, payload version).
const (
	BundleKind    = "lpvs-flight-bundle"
	BundleVersion = 1
	// BundleExt is the incident-bundle file extension.
	BundleExt = ".flight"
)

// Trigger names as they appear in bundle metadata, filenames, and the
// lpvs_flight_bundles_total trigger label.
const (
	TriggerSLO    = "slo-alarm"
	TriggerPanic  = "panic"
	TriggerShed   = "shed-burst"
	TriggerManual = "manual"
)

// The recorder's fixed bounds.
const (
	// DefaultAuditTail is how many recent audit lines a bundle carries.
	DefaultAuditTail = 64
	// DefaultMaxBundles is how many bundle files Dir retains; the
	// oldest are deleted.
	DefaultMaxBundles = 16
	// DefaultCooldown suppresses automatic captures (slo/panic/shed)
	// that follow a previous automatic capture too closely. Manual
	// captures are never suppressed.
	DefaultCooldown = 30 * time.Second
	// DefaultShedBurst sheds within DefaultShedWindow trip the
	// shed-burst trigger.
	DefaultShedBurst  = 32
	DefaultShedWindow = 10 * time.Second
)

// Bundle is the forensic payload carried inside the persist container.
// Audit records are kept as raw JSONL lines so replay compares the
// exact bytes the daemon logged, not a re-encoding.
type Bundle struct {
	Schema         int     `json:"schema"`
	WrittenUnixSec float64 `json:"written_unix_sec"`
	Trigger        string  `json:"trigger"`
	Reason         string  `json:"reason,omitempty"`

	// Identity: which binary (always lpvsd; the field stays so older
	// bundles decode), which build, which effective config.
	Binary     string `json:"binary,omitempty"`
	Version    string `json:"version,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	ConfigHash string `json:"config_hash,omitempty"`
	// Meta carries daemon status snippets (restore path/detail,
	// snapshot health) captured at bundle time.
	Meta map[string]string `json:"meta,omitempty"`

	SLO     []slo.State      `json:"slo,omitempty"`
	History []history.Series `json:"history,omitempty"`
	Spans   []span.Data      `json:"spans,omitempty"`
	// SpansDropped is the span ring's drop counter at capture time.
	SpansDropped uint64 `json:"spans_dropped,omitempty"`
	// AuditRecords are the last N audit lines, byte-exact (each is one
	// JSON object, without the trailing newline).
	AuditRecords []json.RawMessage `json:"audit_records,omitempty"`

	// GoroutineProfile is the text form (debug=1); HeapProfile the
	// binary pprof form, base64-wrapped by encoding/json.
	GoroutineProfile string `json:"goroutine_profile,omitempty"`
	HeapProfile      []byte `json:"heap_profile,omitempty"`
}

// Encode wraps the bundle in the versioned persist container.
func (b *Bundle) Encode() ([]byte, error) {
	payload, err := json.Marshal(b)
	if err != nil {
		return nil, fmt.Errorf("flight: encode bundle: %w", err)
	}
	return persist.EncodeContainer(BundleKind, BundleVersion, payload), nil
}

// DecodeBundle unwraps and validates a container produced by Encode.
// The payload is one JSON bundle; anything but whitespace after it fails.
func DecodeBundle(data []byte) (*Bundle, error) {
	payload, err := persist.DecodeContainer(data, BundleKind, BundleVersion)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var b Bundle
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("flight: decode bundle: %w", err)
	}
	if rest := bytes.TrimLeft(payload[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("flight: decode bundle: %d bytes after the bundle", len(rest))
	}
	return &b, nil
}

// LoadBundle reads and decodes one bundle file.
func LoadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBundle(data)
}

// ListBundles returns the bundle files in dir sorted by name — the
// filename embeds a zero-padded capture timestamp and sequence, so
// name order is capture order.
func ListBundles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), BundleExt) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Config parameterizes a Recorder. Only Dir is required; nil sources
// simply leave the matching bundle section empty. Every trigger is
// armed, and every bundle carries goroutine and heap profiles.
type Config struct {
	// Dir receives the bundle files (created if missing).
	Dir string

	// History, Tracer, and SLOStates supply the bundle sections; each
	// is read only at capture time.
	History   *history.Store
	Tracer    *span.Tracer
	SLOStates func() []slo.State
	// Meta is evaluated at capture time for daemon status snippets.
	Meta func() map[string]string

	// Identity stamped into every bundle.
	Version    string
	ConfigHash string

	// Now supplies the capture clock (default time.Now); tests inject
	// a fake one.
	Now func() time.Time

	Logger *slog.Logger
}

// Recorder is the armed flight recorder. All methods are safe for
// concurrent use; captures serialize on an internal mutex.
type Recorder struct {
	cfg Config

	mu        sync.Mutex
	auditTail [DefaultAuditTail][]byte // ring of encoded audit lines (no trailing \n)
	tailStart int
	tailN     int
	lastAuto  time.Time
	autoSet   bool
	seq       uint64
	shedTimes []time.Time
	written   map[string]uint64 // per-trigger bundle counts
	lastPath  string
	lastUnix  float64
	errors    uint64
	suppress  uint64

	// bundlesVec is set by Register; nil until then.
	bundlesVec *obs.CounterVec
}

// New builds a Recorder and creates cfg.Dir.
func New(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flight: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Recorder{cfg: cfg, written: make(map[string]uint64)}, nil
}

// Dir reports where bundles are written.
func (r *Recorder) Dir() string { return r.cfg.Dir }

// NoteAudit keeps one encoded audit line (with or without the trailing
// newline) in the bounded tail ring. The line is handed over: the
// caller builds it for the ring (the daemon tees the stream it writes
// to the log into it) and never touches it again.
func (r *Recorder) NoteAudit(line []byte) {
	cp := bytes.TrimRight(line, "\n")
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tailN < len(r.auditTail) {
		r.auditTail[(r.tailStart+r.tailN)%len(r.auditTail)] = cp
		r.tailN++
		return
	}
	r.auditTail[r.tailStart] = cp
	r.tailStart = (r.tailStart + 1) % len(r.auditTail)
}

// OnSLOTransition is the slo.Config.OnTransition hook: entering alarm
// captures a bundle; clearing does not.
func (r *Recorder) OnSLOTransition(st slo.State) {
	if !st.Alarming {
		return
	}
	reason := fmt.Sprintf("slo %s alarm", st.Name)
	if len(st.Windows) == 2 {
		reason = fmt.Sprintf("slo %s alarm (burn fast=%.1f slow=%.1f)",
			st.Name, st.Windows[0].BurnRate, st.Windows[1].BurnRate)
	}
	r.capture(TriggerSLO, reason, true)
}

// OnPanic is the recovered-panic hook.
func (r *Recorder) OnPanic(detail string) {
	r.capture(TriggerPanic, "recovered panic: "+detail, true)
}

// OnShed records one shed request; a burst of DefaultShedBurst sheds
// inside DefaultShedWindow captures a bundle.
func (r *Recorder) OnShed() {
	now := r.cfg.Now()
	r.mu.Lock()
	cutoff := now.Add(-DefaultShedWindow)
	keep := r.shedTimes[:0]
	for _, t := range r.shedTimes {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	r.shedTimes = append(keep, now)
	burst := len(r.shedTimes) >= DefaultShedBurst
	if burst {
		r.shedTimes = r.shedTimes[:0]
	}
	r.mu.Unlock()
	if burst {
		r.capture(TriggerShed,
			fmt.Sprintf("admission control shed %d requests within %s", DefaultShedBurst, DefaultShedWindow), true)
	}
}

// Capture writes a manual bundle (never suppressed by cooldown) and
// returns its path.
func (r *Recorder) Capture(reason string) (string, error) {
	return r.capture(TriggerManual, reason, false)
}

func (r *Recorder) capture(trigger, reason string, auto bool) (string, error) {
	now := r.cfg.Now()

	r.mu.Lock()
	if auto && r.autoSet && now.Sub(r.lastAuto) < DefaultCooldown {
		r.suppress++
		r.mu.Unlock()
		return "", nil
	}
	if auto {
		r.lastAuto = now
		r.autoSet = true
	}
	r.seq++
	seq := r.seq
	audit := make([]json.RawMessage, 0, r.tailN)
	for i := 0; i < r.tailN; i++ {
		audit = append(audit, json.RawMessage(r.auditTail[(r.tailStart+i)%len(r.auditTail)]))
	}
	r.mu.Unlock()

	b := &Bundle{
		Schema:         BundleVersion,
		WrittenUnixSec: float64(now.UnixNano()) / 1e9,
		Trigger:        trigger,
		Reason:         reason,
		Binary:         "lpvsd",
		Version:        r.cfg.Version,
		GoVersion:      runtime.Version(),
		ConfigHash:     r.cfg.ConfigHash,
		AuditRecords:   audit,
	}
	if r.cfg.Meta != nil {
		b.Meta = r.cfg.Meta()
	}
	if r.cfg.SLOStates != nil {
		b.SLO = r.cfg.SLOStates()
	}
	if r.cfg.History != nil {
		b.History = r.cfg.History.Query(nil, time.Time{})
	}
	if r.cfg.Tracer != nil {
		b.Spans = r.cfg.Tracer.Snapshot()
		b.SpansDropped = r.cfg.Tracer.Dropped()
	}
	var goroutines bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&goroutines, 1); err == nil {
		b.GoroutineProfile = goroutines.String()
	}
	var heap bytes.Buffer
	if err := pprof.WriteHeapProfile(&heap); err == nil {
		b.HeapProfile = heap.Bytes()
	}

	data, err := b.Encode()
	if err != nil {
		r.noteError(err)
		return "", err
	}
	name := fmt.Sprintf("incident-%020d-%04d-%s%s", now.UnixNano(), seq, trigger, BundleExt)
	path := filepath.Join(r.cfg.Dir, name)
	if err := persist.WriteFileAtomic(path, data); err != nil {
		r.noteError(err)
		return "", err
	}

	r.mu.Lock()
	r.written[trigger]++
	r.lastPath = path
	r.lastUnix = b.WrittenUnixSec
	vec := r.bundlesVec
	r.mu.Unlock()
	if vec != nil {
		vec.With(trigger).Inc()
	}
	r.rotate()
	r.cfg.Logger.Warn("flight bundle written",
		"trigger", trigger, "reason", reason, "path", path, "bytes", len(data))
	return path, nil
}

func (r *Recorder) noteError(err error) {
	r.mu.Lock()
	r.errors++
	r.mu.Unlock()
	r.cfg.Logger.Error("flight capture failed", "err", err)
}

// rotate deletes the oldest bundles beyond DefaultMaxBundles.
func (r *Recorder) rotate() {
	paths, err := ListBundles(r.cfg.Dir)
	if err != nil || len(paths) <= DefaultMaxBundles {
		return
	}
	for _, p := range paths[:len(paths)-DefaultMaxBundles] {
		if err := os.Remove(p); err != nil {
			r.cfg.Logger.Warn("flight rotate", "err", err)
		}
	}
}

// BundlesWritten reports the lifetime bundle count across triggers.
func (r *Recorder) BundlesWritten() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, c := range r.written {
		n += c
	}
	return n
}

// LastBundle reports the newest bundle's path and write time (zeroes
// before the first capture).
func (r *Recorder) LastBundle() (path string, unixSec float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastPath, r.lastUnix
}

// Suppressed reports automatic captures skipped by the cooldown.
func (r *Recorder) Suppressed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suppress
}

// Errors reports failed capture attempts.
func (r *Recorder) Errors() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errors
}

// AuditTailLen reports how many audit lines the tail ring holds.
func (r *Recorder) AuditTailLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tailN
}

// Register exposes the recorder's self-telemetry on reg.
func (r *Recorder) Register(reg *obs.Registry) {
	vec := reg.CounterVec("lpvs_flight_bundles_total",
		"Incident bundles written, by trigger.", "trigger")
	r.mu.Lock()
	r.bundlesVec = vec
	r.mu.Unlock()
	reg.CounterFunc("lpvs_flight_errors_total",
		"Incident-bundle capture attempts that failed.",
		func() float64 { return float64(r.Errors()) })
	reg.CounterFunc("lpvs_flight_suppressed_total",
		"Automatic captures skipped by the capture cooldown.",
		func() float64 { return float64(r.Suppressed()) })
	reg.GaugeFunc("lpvs_flight_last_bundle_unix_seconds",
		"Write time of the newest incident bundle (0 = none yet).",
		func() float64 { _, ts := r.LastBundle(); return ts })
	reg.GaugeFunc("lpvs_flight_audit_tail_records",
		"Audit records currently held in the flight tail ring.",
		func() float64 { return float64(r.AuditTailLen()) })
	reg.GaugeFunc("lpvs_flight_armed",
		"1 while the flight recorder is armed.",
		func() float64 { return 1 })
}
