// Package audit implements the LPVS decision audit log: an append-only
// JSONL stream with one self-contained record per scheduling tick. A
// record carries everything needed to re-run the decision — the request
// set in its exact scheduling order, the scheduler configuration (with
// a tamper-evident hash), and the decision in the scheduler's canonical
// byte encoding — plus the per-device verdicts that explain it.
//
// Because the scheduler is deterministic (see internal/scheduler's
// differential harness), replaying a record through a freshly built
// scheduler must reproduce the logged decision byte for byte. That
// makes the log three things at once: an event-sourced audit trail
// ("why was device N transformed at 14:05?"), a determinism check
// runnable in CI (`lpvsctl audit replay`, `make cli-smoke`), and a
// debugging corpus — any production tick can be replayed on a laptop.
//
// Wall-clock fields (UnixSec, span durations) are informational and
// excluded from the replay comparison. Floating-point fields survive
// the JSON round trip exactly: encoding/json emits the shortest
// representation that parses back to the same float64.
package audit

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"lpvs/internal/anxiety"
	"lpvs/internal/appendjson"
	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/scheduler"
	"lpvs/internal/video"
)

// SchemaVersion is the layout NewRecord writes, bumped on any
// incompatible record change. Version 2 logs each distinct chunk window
// once, in a per-record table the requests index into; its encoding is
// pinned by testdata/record.v2.golden.jsonl.
const SchemaVersion = 2

// schemaInline is the retired version-1 layout: every request carries
// its own inline copy of its chunk window and the record has no table.
// Nothing writes it any more, but version-1 logs exist on disk, so
// Decode and Verify still accept it (testdata/record.golden.jsonl pins
// what they must keep reading) and a decoded version-1 record
// re-encodes as version 1.
const schemaInline = 1

// FileName is the log file created inside an audit directory.
const FileName = "audit.jsonl"

// Record is one tick's audit entry.
type Record struct {
	// Schema is the record format version: SchemaVersion on everything
	// NewRecord builds, schemaInline on records decoded from old logs.
	Schema int `json:"schema"`
	// Slot and VC identify the tick: the scheduling slot counter and
	// the virtual-cluster ID it solved.
	Slot int    `json:"slot"`
	VC   string `json:"vc"`
	// Seed is the workload seed of the producing process (0 = unknown);
	// informational, the record replays without it.
	Seed int64 `json:"seed,omitempty"`
	// UnixSec is the wall-clock time the record was written.
	// Informational only — excluded from replay comparison.
	UnixSec float64 `json:"unix_sec,omitempty"`
	// TraceID links the record to the tick's span trace when tracing
	// sampled it.
	TraceID string `json:"trace_id,omitempty"`
	// ConfigHash is the SHA-256 of Config's canonical JSON; Verify
	// recomputes it so tampering (or a drifted encoder) is detected.
	ConfigHash string `json:"config_hash"`
	// Config is the scheduler configuration the decision ran under.
	Config ConfigRecord `json:"config"`
	// Windows is the chunk-window table: every distinct stream window the
	// tick's requests watched, once each, in first-use order. A stream's
	// viewers all watch the same window, so the table has one entry per
	// stream however many devices the tick scheduled. Absent in schema 1.
	Windows [][]ChunkRecord `json:"windows,omitempty"`
	// Requests is the tick's request set in its exact scheduling order.
	// Order matters: the scheduler is deterministic for a fixed input
	// order, so replay feeds the identical permutation.
	Requests []RequestRecord `json:"requests"`
	// DecisionCanonical is the logged decision in the scheduler's
	// canonical byte encoding (Decision.Canonical) — the replay target.
	DecisionCanonical CanonicalText `json:"decision_canonical"`
	// Degraded records the anytime-mode shortcuts the tick took under a
	// scheduling deadline (DESIGN.md §12), absent on a full solve. The
	// degraded paths are pure functions of (config, requests,
	// degradation), so replay forces the same shortcuts instead of
	// racing a wall clock. Optional, so schema version 1 is preserved:
	// pre-anytime records decode unchanged and old readers never see the
	// field on full solves.
	Degraded *DegradedRecord `json:"degraded,omitempty"`
	// Verdicts explains every device's outcome, sorted by device ID.
	Verdicts []VerdictRecord `json:"verdicts"`
	// Spans summarises the tick's stage timings (from the span tracer
	// or the decision's timing fields). Informational.
	Spans []StageSpan `json:"spans,omitempty"`
}

// CanonicalText is a decision's canonical text (Decision.Canonical)
// held as bytes, so a Builder's record carries the text in the
// builder's own reused buffer instead of a string copy of it. In JSON
// it is the string the text spells, byte for byte what a string field
// wrote before it, not encoding/json's base64 of a []byte.
type CanonicalText []byte

// MarshalJSON writes the text as a JSON string.
func (c CanonicalText) MarshalJSON() ([]byte, error) { return appendjson.String(nil, c), nil }

// UnmarshalJSON reads a JSON string (or null, which leaves c as it is)
// into c's storage.
func (c *CanonicalText) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	*c = append((*c)[:0], s...)
	return nil
}

// DegradedRecord mirrors scheduler.Degradation: which anytime-mode
// shortcuts a deadline forced on the tick.
type DegradedRecord struct {
	// Phase1Greedy: the Phase-1 branch-and-bound expired and the greedy
	// solution was adopted.
	Phase1Greedy bool `json:"phase1_greedy,omitempty"`
	// Phase2Skipped: the deadline was already spent before the swap
	// pass, which was skipped entirely.
	Phase2Skipped bool `json:"phase2_skipped,omitempty"`
}

// Degradation converts back to the scheduler's type.
func (d *DegradedRecord) Degradation() scheduler.Degradation {
	if d == nil {
		return scheduler.Degradation{}
	}
	return scheduler.Degradation{Phase1Greedy: d.Phase1Greedy, Phase2Skipped: d.Phase2Skipped}
}

// StageSpan is one stage's timing inside the tick.
type StageSpan struct {
	Name   string  `json:"name"`
	DurSec float64 `json:"dur_sec"`
}

// VerdictRecord pairs a device ID with its decision verdict.
type VerdictRecord struct {
	Device string `json:"device"`
	scheduler.Verdict
}

// AnxietyRecord serialises an anxiety model. Kind "canonical" carries
// the closed-form curve's parameters; "rescaled" adds the personal
// warning threshold over a canonical base; "custom" marks a model this
// schema cannot rebuild — such records do not replay.
type AnxietyRecord struct {
	Kind             string  `json:"kind"`
	AnxietyAtWarning float64 `json:"anxiety_at_warning,omitempty"`
	ConvexPower      float64 `json:"convex_power,omitempty"`
	ConcavePower     float64 `json:"concave_power,omitempty"`
	Warning          float64 `json:"warning,omitempty"`
}

// NewAnxietyRecord classifies a model; nil means the scheduler default
// (canonical).
func NewAnxietyRecord(m anxiety.Model) AnxietyRecord {
	switch a := m.(type) {
	case nil:
		c := anxiety.NewCanonical()
		return AnxietyRecord{Kind: "canonical", AnxietyAtWarning: c.AnxietyAtWarning,
			ConvexPower: c.ConvexPower, ConcavePower: c.ConcavePower}
	case *anxiety.Canonical:
		return AnxietyRecord{Kind: "canonical", AnxietyAtWarning: a.AnxietyAtWarning,
			ConvexPower: a.ConvexPower, ConcavePower: a.ConcavePower}
	case *anxiety.Rescaled:
		base := NewAnxietyRecord(a.Base)
		if base.Kind == "canonical" {
			base.Kind = "rescaled"
			base.Warning = a.Warning
			return base
		}
		return AnxietyRecord{Kind: "custom"}
	default:
		return AnxietyRecord{Kind: "custom"}
	}
}

// Model rebuilds the anxiety model; "custom" records are not
// replayable.
func (a AnxietyRecord) Model() (anxiety.Model, error) {
	base := &anxiety.Canonical{
		AnxietyAtWarning: a.AnxietyAtWarning,
		ConvexPower:      a.ConvexPower,
		ConcavePower:     a.ConcavePower,
	}
	switch a.Kind {
	case "canonical":
		return base, nil
	case "rescaled":
		return anxiety.NewRescaled(base, a.Warning)
	default:
		return nil, fmt.Errorf("audit: anxiety kind %q is not replayable", a.Kind)
	}
}

// ConfigRecord is the decision-relevant scheduler configuration, which
// is all of scheduler.Config but the no-op DisableIncremental. How a
// decision was computed is not recorded: a pool's parallel compacting
// fan-out is its worker count, proven decision-neutral, and replay
// compacts serially.
type ConfigRecord struct {
	SlotSec           float64       `json:"slot_sec"`
	Lambda            float64       `json:"lambda"`
	Unbounded         bool          `json:"unbounded"`
	ComputeCapacity   float64       `json:"compute_capacity"`
	StorageCapacityMB float64       `json:"storage_capacity_mb"`
	ExactThreshold    int           `json:"exact_threshold"`
	MaxNodes          int           `json:"max_nodes"`
	DisableSwap       bool          `json:"disable_swap"`
	MaxSwapPasses     int           `json:"max_swap_passes"`
	Anxiety           AnxietyRecord `json:"anxiety"`
}

// NewConfigRecord captures a scheduler configuration.
func NewConfigRecord(cfg scheduler.Config) ConfigRecord {
	rec := ConfigRecord{
		SlotSec:        cfg.SlotSec,
		Lambda:         cfg.Lambda,
		Unbounded:      cfg.Server == nil,
		ExactThreshold: cfg.ExactThreshold,
		MaxNodes:       cfg.MaxNodes,
		DisableSwap:    cfg.DisableSwap,
		MaxSwapPasses:  cfg.MaxSwapPasses,
		Anxiety:        NewAnxietyRecord(cfg.Anxiety),
	}
	if cfg.Server != nil {
		rec.ComputeCapacity = cfg.Server.ComputeCapacity
		rec.StorageCapacityMB = cfg.Server.StorageCapacityMB
	}
	return rec
}

// SchedulerConfig rebuilds the scheduler configuration for replay.
func (c ConfigRecord) SchedulerConfig() (scheduler.Config, error) {
	model, err := c.Anxiety.Model()
	if err != nil {
		return scheduler.Config{}, err
	}
	cfg := scheduler.Config{
		SlotSec:        c.SlotSec,
		Lambda:         c.Lambda,
		Anxiety:        model,
		ExactThreshold: c.ExactThreshold,
		MaxNodes:       c.MaxNodes,
		DisableSwap:    c.DisableSwap,
		MaxSwapPasses:  c.MaxSwapPasses,
	}
	if !c.Unbounded {
		cfg.Server = &edge.Server{
			ComputeCapacity:   c.ComputeCapacity,
			StorageCapacityMB: c.StorageCapacityMB,
		}
	}
	return cfg, nil
}

// Hash returns the SHA-256 hex digest of the record's canonical JSON.
func (c ConfigRecord) Hash() string {
	b, err := json.Marshal(c)
	if err != nil {
		// ConfigRecord contains only marshalable fields.
		panic(fmt.Sprintf("audit: config hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// RequestRecord is one device's slot request, restricted to the fields
// the scheduler reads (keyframes, for instance, never influence the
// decision and are dropped).
type RequestRecord struct {
	Device           string         `json:"device"`
	DisplayType      string         `json:"display_type"`
	Width            int            `json:"width"`
	Height           int            `json:"height"`
	DiagonalInch     float64        `json:"diagonal_inch"`
	Brightness       float64        `json:"brightness"`
	EnergyFrac       float64        `json:"energy_frac"`
	BatteryCapacityJ float64        `json:"battery_capacity_j"`
	BasePowerW       float64        `json:"base_power_w"`
	Gamma            float64        `json:"gamma"`
	Anxiety          *AnxietyRecord `json:"anxiety,omitempty"`
	// Window indexes the record's Windows table. Set on every schema-2
	// request, nil on schema 1.
	Window *int `json:"window,omitempty"`
	// Chunks is a schema-1 request's inline window; nil on schema 2.
	Chunks []ChunkRecord `json:"chunks,omitempty"`
}

// ChunkRecord is one chunk's decision-relevant metadata.
type ChunkRecord struct {
	Index       int     `json:"index"`
	DurationSec float64 `json:"duration_sec"`
	BitrateKbps int     `json:"bitrate_kbps"`
	MeanLuma    float64 `json:"mean_luma"`
	PeakLuma    float64 `json:"peak_luma"`
	MeanR       float64 `json:"mean_r"`
	MeanG       float64 `json:"mean_g"`
	MeanB       float64 `json:"mean_b"`
}

// chunkRecordsInto captures one chunk window in dst's storage when it
// is large enough.
func chunkRecordsInto(dst []ChunkRecord, chunks []video.Chunk) []ChunkRecord {
	out := grown(dst, len(chunks))
	for i := range chunks {
		c := &chunks[i]
		out[i] = ChunkRecord{
			Index:       c.Index,
			DurationSec: c.DurationSec,
			BitrateKbps: c.BitrateKbps,
			MeanLuma:    c.Stats.MeanLuma,
			PeakLuma:    c.Stats.PeakLuma,
			MeanR:       c.Stats.MeanR,
			MeanG:       c.Stats.MeanG,
			MeanB:       c.Stats.MeanB,
		}
	}
	return out
}

// videoChunks rebuilds a chunk window for replay.
func videoChunks(recs []ChunkRecord) []video.Chunk {
	out := make([]video.Chunk, len(recs))
	for i, c := range recs {
		out[i] = video.Chunk{
			Index:       c.Index,
			DurationSec: c.DurationSec,
			BitrateKbps: c.BitrateKbps,
			Stats: display.ContentStats{
				MeanLuma: c.MeanLuma,
				PeakLuma: c.PeakLuma,
				MeanR:    c.MeanR,
				MeanG:    c.MeanG,
				MeanB:    c.MeanB,
			},
		}
	}
	return out
}

// windowRef identifies a chunk-window slice by backing-array identity,
// as the scheduler's window validation does (scheduler.chunkRef).
type windowRef struct {
	first *video.Chunk
	n     int
}

// windowTable interns the chunk windows of one record. The fast path is
// slice identity: a stream's viewers share one []video.Chunk, so every
// viewer after the first is one map lookup. Requests built with private
// slices (the emulator's) fall back to content equality, found through a
// content hash, so they still collapse to one entry per distinct window.
// An entry's records are written into the storage the entry at the same
// position held before the last reset, so a table that sees the same
// windows tick after tick allocates nothing.
type windowTable struct {
	windows [][]ChunkRecord
	byRef   map[windowRef]int
	byHash  map[uint64]int
}

// reset empties the table, keeping its maps, its entry list's backing
// array and each entry's records.
func (t *windowTable) reset() {
	clear(t.byRef)
	clear(t.byHash)
	t.windows = t.windows[:0]
}

// intern returns the table index of a chunk window, adding it on first
// sight. Allocation is per distinct window, never per request.
func (t *windowTable) intern(chunks []video.Chunk) int {
	var ref windowRef
	if len(chunks) > 0 {
		ref = windowRef{first: &chunks[0], n: len(chunks)}
	}
	if i, ok := t.byRef[ref]; ok {
		return i
	}
	if t.byRef == nil {
		t.byRef = make(map[windowRef]int)
		t.byHash = make(map[uint64]int)
	}
	h := hashWindow(chunks)
	i, ok := t.byHash[h]
	if !ok || !sameWindow(t.windows[i], chunks) {
		// A hash collision between two distinct windows only costs the
		// later one its content dedupe: it is logged again, never wrongly
		// merged.
		i = len(t.windows)
		var recs []ChunkRecord
		if i < cap(t.windows) {
			recs = t.windows[:i+1][i]
		}
		t.windows = append(t.windows, chunkRecordsInto(recs, chunks))
		if !ok {
			t.byHash[h] = i
		}
	}
	t.byRef[ref] = i
	return i
}

// hashWindow is FNV-1a over the decision-relevant chunk fields, floats
// by bit pattern.
func hashWindow(chunks []video.Chunk) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (v >> s & 0xff)) * 1099511628211
		}
	}
	mix(uint64(len(chunks)))
	for i := range chunks {
		c := &chunks[i]
		mix(uint64(c.Index))
		mix(math.Float64bits(c.DurationSec))
		mix(uint64(c.BitrateKbps))
		mix(math.Float64bits(c.Stats.MeanLuma))
		mix(math.Float64bits(c.Stats.PeakLuma))
		mix(math.Float64bits(c.Stats.MeanR))
		mix(math.Float64bits(c.Stats.MeanG))
		mix(math.Float64bits(c.Stats.MeanB))
	}
	return h
}

// sameWindow reports whether a logged window is bit-for-bit the given
// chunk window (floats by bit pattern, so -0 and NaN payloads never
// merge with anything but themselves).
func sameWindow(recs []ChunkRecord, chunks []video.Chunk) bool {
	if len(recs) != len(chunks) {
		return false
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range chunks {
		r, c := &recs[i], &chunks[i]
		if r.Index != c.Index || r.BitrateKbps != c.BitrateKbps ||
			!same(r.DurationSec, c.DurationSec) ||
			!same(r.MeanLuma, c.Stats.MeanLuma) || !same(r.PeakLuma, c.Stats.PeakLuma) ||
			!same(r.MeanR, c.Stats.MeanR) || !same(r.MeanG, c.Stats.MeanG) || !same(r.MeanB, c.Stats.MeanB) {
			return false
		}
	}
	return true
}

// newRequestRecord captures one scheduler request; window points at the
// request's index in the record's window table.
func newRequestRecord(r *scheduler.Request, window *int) RequestRecord {
	rec := RequestRecord{
		Device:           r.DeviceID,
		DisplayType:      r.Display.Type.String(),
		Width:            r.Display.Resolution.Width,
		Height:           r.Display.Resolution.Height,
		DiagonalInch:     r.Display.DiagonalInch,
		Brightness:       r.Display.Brightness,
		EnergyFrac:       r.EnergyFrac,
		BatteryCapacityJ: r.BatteryCapacityJ,
		BasePowerW:       r.BasePowerW,
		Gamma:            r.Gamma,
		Window:           window,
	}
	if r.Anxiety != nil {
		a := NewAnxietyRecord(r.Anxiety)
		rec.Anxiety = &a
	}
	return rec
}

// request rebuilds the scheduler request for replay around its already
// resolved chunk window.
func (r *RequestRecord) request(chunks []video.Chunk) (scheduler.Request, error) {
	var ty display.Type
	switch r.DisplayType {
	case display.LCD.String():
		ty = display.LCD
	case display.OLED.String():
		ty = display.OLED
	default:
		return scheduler.Request{}, fmt.Errorf("audit: request %s: unknown display type %q", r.Device, r.DisplayType)
	}
	req := scheduler.Request{
		DeviceID: r.Device,
		Display: display.Spec{
			Type:         ty,
			Resolution:   display.Resolution{Width: r.Width, Height: r.Height},
			DiagonalInch: r.DiagonalInch,
			Brightness:   r.Brightness,
		},
		EnergyFrac:       r.EnergyFrac,
		BatteryCapacityJ: r.BatteryCapacityJ,
		BasePowerW:       r.BasePowerW,
		Gamma:            r.Gamma,
		Chunks:           chunks,
	}
	if r.Anxiety != nil {
		model, err := r.Anxiety.Model()
		if err != nil {
			return scheduler.Request{}, fmt.Errorf("audit: request %s: %w", r.Device, err)
		}
		req.Anxiety = model
	}
	return req, nil
}

// SchedulerRequests verifies the record and rebuilds its request set in
// the logged order. Each window of the table is rebuilt once and shared
// by every request that indexes it, so the replaying scheduler sees the
// slice identity the live one saw; a schema-1 request gets a private
// rebuild of its inline window.
func (r *Record) SchedulerRequests() ([]scheduler.Request, error) {
	if err := r.Verify(); err != nil {
		return nil, err
	}
	windows := make([][]video.Chunk, len(r.Windows))
	for i, w := range r.Windows {
		windows[i] = videoChunks(w)
	}
	reqs := make([]scheduler.Request, len(r.Requests))
	for i := range r.Requests {
		rr := &r.Requests[i]
		var chunks []video.Chunk
		if rr.Window != nil {
			chunks = windows[*rr.Window]
		} else {
			chunks = videoChunks(rr.Chunks)
		}
		var err error
		if reqs[i], err = rr.request(chunks); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// Builder builds audit records in storage it owns and reuses, and
// streams them to a log (Writer.Append): the request and verdict
// slices, the per-request window indexes, the window table and its
// entries' records and the canonical decision text stay at their
// high-water mark from one Build to the next, the line goes out through
// one buffer of fixed size, and the config hash is recomputed only when
// the config changes, so a caller that logs every tick (the daemon, the
// emulator) allocates nothing per record once the builder has seen the
// tick's shape, and never holds a whole line.
//
// The price is a lifetime rule: the *Record Build returns aliases that
// storage and is valid only until the next Build. A Builder is not safe
// for concurrent use; the zero value is ready.
type Builder struct {
	rec      Record
	degraded DegradedRecord
	spans    [3]StageSpan
	// windowOf holds every request's table index in one backing array;
	// the per-request Window pointers point into it.
	windowOf []int
	table    windowTable
	// canon is the decision's canonical text, which the record's
	// DecisionCanonical is; line is the lineBuf-byte buffer the record
	// streams through.
	canon, line []byte
	// cfgJSON is the canonical JSON of the config last hashed, cfgHash
	// its hash; cfgNext is where the next config's JSON is compared from.
	cfgJSON, cfgNext []byte
	cfgHash          string
}

// grown returns s resized to n elements, reallocating only when its
// capacity is short. Never nil: an empty request set encodes as [],
// not null.
func grown[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Build assembles a tick's audit record from the request set (in
// scheduling order), the configuration the scheduler ran under, and
// the decision made for that request set, whose positional view it
// reads: dec.PerDevice[i] is reqs[i]'s verdict. Wall-clock fields
// (UnixSec, TraceID, Spans, Seed) are left for the caller to stamp on
// the returned record, which is valid until the next Build.
func (b *Builder) Build(slot int, vcID string, cfg scheduler.Config, reqs []scheduler.Request, dec scheduler.Decision) *Record {
	rec := &b.rec
	b.canon = dec.AppendCanonical(b.canon[:0])
	*rec = Record{
		Schema:            SchemaVersion,
		Slot:              slot,
		VC:                vcID,
		Config:            NewConfigRecord(cfg),
		Requests:          grown(rec.Requests, len(reqs)),
		DecisionCanonical: b.canon,
		Verdicts:          grown(rec.Verdicts, len(dec.PerDevice)),
	}
	rec.ConfigHash = b.configHash(&rec.Config)
	if dec.Degraded.Any() {
		b.degraded = DegradedRecord{
			Phase1Greedy:  dec.Degraded.Phase1Greedy,
			Phase2Skipped: dec.Degraded.Phase2Skipped,
		}
		rec.Degraded = &b.degraded
	}
	// The table starts empty every time: its fast path keys on slice
	// identity, and a window of the previous batch may have been freed
	// and its address handed to a different one since.
	b.table.reset()
	b.windowOf = grown(b.windowOf, len(reqs))
	for i := range reqs {
		b.windowOf[i] = b.table.intern(reqs[i].Chunks)
		rec.Requests[i] = newRequestRecord(&reqs[i], &b.windowOf[i])
	}
	rec.Windows = b.table.windows
	// Verdicts go out in device-ID order, which is the batch's own order
	// whenever the batch is sorted (the daemon's always is).
	order := dec.IDOrder()
	for k := range rec.Verdicts {
		i := k
		if order != nil {
			i = order[k]
		}
		rec.Verdicts[k] = VerdictRecord{Device: reqs[i].DeviceID, Verdict: dec.PerDevice[i]}
	}
	b.spans = [3]StageSpan{
		{Name: "compact", DurSec: dec.CompactSeconds},
		{Name: "phase1", DurSec: dec.Phase1Seconds},
		{Name: "phase2", DurSec: dec.Phase2Seconds},
	}
	rec.Spans = b.spans[:]
	return rec
}

// configHash is c.Hash(), recomputed only when c's canonical JSON is
// not the JSON last hashed: the same bytes hash the same, and a config
// that differs in any field, -0 against 0 included, differs in them.
func (b *Builder) configHash(c *ConfigRecord) string {
	e := encoder{buf: b.cfgNext[:0], ok: true}
	c.encode(&e)
	b.cfgNext = e.buf
	if !e.ok || b.cfgHash == "" || !bytes.Equal(b.cfgNext, b.cfgJSON) {
		b.cfgHash = c.Hash()
		b.cfgJSON, b.cfgNext = b.cfgNext, b.cfgJSON
	}
	return b.cfgHash
}

// NewRecord is Build on a Builder of its own: a record that shares
// storage with nothing and stays valid for as long as it is held.
func NewRecord(slot int, vcID string, cfg scheduler.Config, reqs []scheduler.Request, dec scheduler.Decision) *Record {
	return new(Builder).Build(slot, vcID, cfg, reqs, dec)
}

// Verdict returns the verdict for a device (found=false when the device
// is absent from the record).
func (r *Record) Verdict(device string) (VerdictRecord, bool) {
	i := sort.Search(len(r.Verdicts), func(i int) bool { return r.Verdicts[i].Device >= device })
	if i < len(r.Verdicts) && r.Verdicts[i].Device == device {
		return r.Verdicts[i], true
	}
	return VerdictRecord{}, false
}

// Layout describes the record's shape for the CLIs' listings: its
// schema, device count, and how its chunk windows are stored.
func (r *Record) Layout() string {
	if r.Schema == schemaInline {
		return fmt.Sprintf("schema %d, %d devices, windows inline", r.Schema, len(r.Requests))
	}
	return fmt.Sprintf("schema %d, %d devices, %d-entry window table", r.Schema, len(r.Requests), len(r.Windows))
}

// Verify checks the record's internal consistency: a known schema
// version, the config hash, and a chunk-window layout that is wholly
// the one its schema declares. Schema 2 means a table and an in-range
// index on every request, with no inline chunks; schema 1 means inline
// chunks only. Any mixture is rejected. A table entry no request
// indexes is harmless and accepted.
func (r *Record) Verify() error {
	if r.Schema != SchemaVersion && r.Schema != schemaInline {
		return fmt.Errorf("audit: schema %d, want %d or %d", r.Schema, schemaInline, SchemaVersion)
	}
	if got := r.Config.Hash(); got != r.ConfigHash {
		return fmt.Errorf("audit: config hash mismatch: record says %s, config hashes to %s", r.ConfigHash, got)
	}
	if r.Schema == schemaInline {
		if r.Windows != nil {
			return fmt.Errorf("audit: schema %d record carries a window table", schemaInline)
		}
		for i := range r.Requests {
			if rr := &r.Requests[i]; rr.Window != nil {
				return fmt.Errorf("audit: request %d (%s): schema %d request carries a window index", i, rr.Device, schemaInline)
			}
		}
		return nil
	}
	for i := range r.Requests {
		rr := &r.Requests[i]
		switch {
		case rr.Chunks != nil:
			return fmt.Errorf("audit: request %d (%s): schema %d request carries inline chunks", i, rr.Device, SchemaVersion)
		case rr.Window == nil:
			return fmt.Errorf("audit: request %d (%s): schema %d request has no window index", i, rr.Device, SchemaVersion)
		case *rr.Window < 0 || *rr.Window >= len(r.Windows):
			return fmt.Errorf("audit: request %d (%s): window %d outside the record's %d-entry table", i, rr.Device, *rr.Window, len(r.Windows))
		}
	}
	return nil
}

// Encode renders the record as one JSONL line (with trailing newline)
// in a slice of its own, sized once for the whole line.
func (r *Record) Encode() ([]byte, error) {
	line, err := r.AppendJSON(make([]byte, 0, r.sizeHint()))
	if err != nil {
		return nil, err
	}
	return line, nil
}

// Decode parses one JSONL line into a verified record. The line is the
// record and nothing else: anything but whitespace after it — a second
// record glued on by a lost newline, a stray brace — fails the line.
func Decode(line []byte) (*Record, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var rec Record
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("audit: decode: %w", err)
	}
	if rest := bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("audit: decode: %d bytes after the record", len(rest))
	}
	if err := rec.Verify(); err != nil {
		return nil, err
	}
	return &rec, nil
}

// maxLine bounds one record line. A schema-2 line is about half a
// kilobyte per device plus its window table; the bound is sized for the
// schema-1 logs still on disk, where a 10k-device tick inlined its
// 30-chunk window once per device (~64 MB).
const maxLine = 256 << 20

// scan decodes the records of a JSONL stream one at a time, in order,
// and hands each to visit, which may keep it: only the line being read
// is held. Blank lines are skipped; a malformed line fails with its
// line number, after name when it is not "". visit's error stops the
// scan and is returned as it is.
func scan(r io.Reader, name string, visit func(*Record) error) error {
	if name != "" {
		name += ": "
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), maxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, err := Decode(line)
		if err != nil {
			return fmt.Errorf("%sline %d: %w", name, lineNo, err)
		}
		if err := visit(rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s%w", name, err)
	}
	return nil
}

// ReadAll decodes every record of a JSONL stream. Blank lines are
// skipped; a malformed line fails with its line number.
func ReadAll(r io.Reader) ([]*Record, error) {
	var out []*Record
	if err := scan(r, "", func(rec *Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// EachFile decodes a JSONL file a record at a time, as scan does, for a
// caller that folds a log rather than holding it (audit recovery). A
// file that cannot be opened fails with os.Open's error as it is.
func EachFile(path string, visit func(*Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return scan(f, path, visit)
}

// ReadFile decodes every record of a JSONL file.
func ReadFile(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// Writer appends records to an underlying stream, one JSONL line each.
// Safe for concurrent use.
type Writer struct {
	mu sync.Mutex
	w  io.Writer
	// cut, set for a Log, cuts a line that stopped partway off the end
	// of the file; torn is set while one is there, not yet cut.
	cut  func() error
	torn bool
}

// NewWriter wraps a stream.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Append writes the record b last built — with whatever the caller
// stamped on it since — as one JSONL line, streamed through b's
// fixed-size buffer with the lock held for the whole line, so lines of
// concurrent appends never interleave. tee, when not nil, is handed the
// same bytes in the same pieces, so a copy kept beside the log (the
// flight recorder's audit tail) is byte-exact by construction.
//
// A record holding a float JSON cannot carry fails with ErrNoJSONFloat
// before a byte is written anywhere: a dry pass of the same encoder
// checks every float first. A write error stops the log's share of the
// line, not tee's, and is returned once the line is through. On a Log
// the part of the line that did reach the file is cut off it at once,
// or, if that fails too, before the next line, which is refused until
// it is: every line of the file starts on a line boundary.
func (w *Writer) Append(b *Builder, tee io.Writer) error {
	if b.line == nil {
		b.line = make([]byte, 0, lineBuf)
	}
	e := encoder{buf: b.line[:0], ok: true, dry: true, out: io.Discard}
	b.rec.encode(&e)
	if !e.ok {
		return ErrNoJSONFloat
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.torn {
		if err := w.cut(); err != nil {
			return fmt.Errorf("audit: cutting a torn line: %w", err)
		}
		w.torn = false
	}
	e = encoder{buf: b.line[:0], ok: true, out: w.w, tee: tee}
	b.rec.encode(&e)
	e.flush()
	b.line = e.buf
	if e.err != nil && w.cut != nil {
		w.torn = w.cut() != nil
	}
	// The dry pass and this one check floats alike; should they ever
	// part, the caller hears of the line it got as an encode failure.
	if !e.ok {
		return ErrNoJSONFloat
	}
	return e.err
}

// Log is a Writer backed by an append-only file inside an audit
// directory (created on open).
type Log struct {
	*Writer
	f    *os.File
	path string
}

// Open creates dir if needed and opens (appending) its audit log file.
// A line with no newline at the end of the file is one a write stopped
// partway through (the process was killed mid-line, or a write failed
// and could not be taken back), never a record: it is cut off, so the
// first line appended starts on a line boundary.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := cutTorn(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("audit: %s: cutting a torn line: %w", path, err)
	}
	w := NewWriter(f)
	w.cut = func() error { return cutTorn(f) }
	return &Log{Writer: w, f: f, path: path}, nil
}

// cutTorn truncates f after its last newline, if anything follows it.
func cutTorn(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	keep, buf := fi.Size(), make([]byte, 32<<10)
	for keep > 0 {
		n := min(keep, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], keep-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			keep -= n - int64(i) - 1
			break
		}
		keep -= n
	}
	if keep == fi.Size() {
		return nil
	}
	return f.Truncate(keep)
}

// Path returns the log file path.
func (l *Log) Path() string { return l.path }

// Close flushes and closes the file.
func (l *Log) Close() error { return l.f.Close() }
