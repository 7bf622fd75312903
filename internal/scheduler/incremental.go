package scheduler

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"

	"lpvs/internal/anxiety"
	"lpvs/internal/ilp"
	"lpvs/internal/video"
)

// This file implements the cross-slot incremental layer (DESIGN.md §11).
// Consecutive scheduling slots share most of their input — the paper's
// Twitch trace shows viewers persisting across many 5-minute slots — so
// a Pool keeps per-stream state that makes slot t+1 cost
// proportional to churn: a plan cache keyed by a content fingerprint of
// each Request, the chunk-window intern table those fingerprints name
// windows by, and a Phase-1 problem memo. Every shortcut is keyed on
// byte equality of the exact inputs the cold path would consume, so
// decisions remain byte-identical to a cold Schedule — the invariant the
// differential corpus, the churn suite and audit replay enforce.

// cachedPlan is one device's plan-cache entry: the plan built from the
// device's last request, valid while the request's content fingerprint
// stays byte-identical. A miss is compacted straight into the entry's
// plan, and a refresh reuses the key's capacity, so a known device
// whose content changed costs no allocation and the stream holds the
// device once.
type cachedPlan struct {
	key  []byte // fingerprint of the request p was built from (the device ID is the map key)
	p    plan
	seen uint64 // last call that looked the device up
}

// chunkRef identifies a chunk-window slice by backing-array identity for
// the per-call window memo. Every device in a virtual cluster shares one
// chunk slice, so this collapses the window-checking and -encoding cost
// from once-per-request to once-per-distinct-window. Sound within a call
// because request storage is read-only while the scheduler runs.
type chunkRef struct {
	ptr *video.Chunk
	n   int
}

// refOf identifies a chunk window by slice identity.
func refOf(chunks []video.Chunk) chunkRef {
	if len(chunks) == 0 {
		return chunkRef{}
	}
	return chunkRef{ptr: &chunks[0], n: len(chunks)}
}

// internedWindow binds one distinct chunk-window encoding to a stable
// ID. IDs are allocated monotonically from 1 and never reused, so a
// request fingerprint embedding an ID can only compare equal while the
// byte-identical window stays interned; a window that is evicted and
// later reappears gets a fresh ID, forcing a conservative plan rebuild
// rather than ever aliasing stale bytes.
type internedWindow struct {
	id   uint64
	seen uint64 // last slot sequence that referenced the window
}

// slotState is the cross-slot memory of one scheduling stream: its plan
// cache, window intern table and Phase-1 problem memo. Only a Pool holds
// them, one per VC state key. All fields are guarded by mu; a scheduling
// call holds the lock end to end, so a stream serialises internally
// while distinct streams (pool VCs) stay concurrent.
type slotState struct {
	mu sync.Mutex

	// cfgSig guards against a state ever being consulted by a scheduler
	// with a different effective configuration: on mismatch every cache
	// is dropped before use.
	cfgSig []byte

	seq   uint64 // scheduling-call sequence, for eviction sweeps
	plans map[string]*cachedPlan

	// Chunk-window intern table: request fingerprints embed the 8-byte
	// window ID instead of the multi-KB window encoding, so the per-slot
	// fingerprint pass costs O(requests + distinct windows), not
	// O(requests x window size).
	windows    map[string]*internedWindow
	nextWindow uint64

	// Per-call scratch (valid only while mu is held).
	scratch planScratch
	spill   []int  // requests built into the slab: uncacheable, or a device's second copy
	keyBuf  []byte // one request's fingerprint, or one Phase-1 problem row
	winBuf  []byte // chunk-window encoding scratch

	// Phase-1 problem memo: the last problem solved undegraded, and its
	// solution.
	probKey   []byte
	prevSol   ilp.Solution
	probValid bool
}

// newState builds an empty slot state bound to the scheduler's config,
// for Pool.stateFor — the one place a stream comes into being. Returns
// nil when incremental scheduling is off or the config is not
// fingerprintable (a custom anxiety model), in which case the pool
// solves cold.
func (s *Scheduler) newState() *slotState {
	if s.cfg.DisableIncremental || s.cfgSig == nil {
		return nil
	}
	return &slotState{
		cfgSig:  s.cfgSig,
		plans:   make(map[string]*cachedPlan),
		windows: make(map[string]*internedWindow),
	}
}

// reset drops every cache; used when the config fingerprint changes.
// nextWindow stays monotonic so window IDs are never reused even across
// resets.
func (st *slotState) reset(cfgSig []byte) {
	st.cfgSig = cfgSig
	st.plans = make(map[string]*cachedPlan)
	st.windows = make(map[string]*internedWindow)
	st.probValid = false
}

// begin starts one scheduling call over a validated batch. It
// fingerprints each request and looks its entry up once: a hit points
// scratch.plans[i] at the entry's plan as it is, a miss at the entry's
// plan for the caller to compact there (a new device gets its entry
// now). A request that cannot be cached, and a device's second copy when
// the batch names it twice, are built into the per-call slab and never
// cached, so the stream keeps the device's first copy. The requests to
// build are left in scratch.misses; the call's hit count is returned.
// Caller holds mu.
func (st *slotState) begin(reqs []Request) (hits int) {
	// The sequence advances before any lookup so entries and interned
	// windows are stamped with this call; sweep evicts what it missed.
	st.seq++
	sc := &st.scratch
	sc.plans = grown(sc.plans, len(reqs))
	misses, spill := sc.misses[:0], st.spill[:0]
	for i := range reqs {
		r := &reqs[i]
		key, ok := st.appendRequestKey(st.keyBuf[:0], r)
		st.keyBuf = key
		var e *cachedPlan
		if ok {
			e = st.plans[r.DeviceID]
		}
		switch {
		case !ok, e != nil && e.seen == st.seq:
			spill = append(spill, i)
		case e == nil:
			e = &cachedPlan{key: bytes.Clone(key), seen: st.seq}
			st.plans[r.DeviceID] = e
			sc.plans[i] = &e.p
		case bytes.Equal(e.key, key):
			e.seen = st.seq
			e.p.req = r // rebind to this call's request storage
			sc.plans[i] = &e.p
			hits++
			continue
		default:
			e.seen = st.seq
			e.key = append(e.key[:0], key...)
			sc.plans[i] = &e.p
		}
		misses = append(misses, i)
	}
	sc.slab = grown(sc.slab, len(spill))
	for k, i := range spill {
		sc.plans[i] = &sc.slab[k]
	}
	sc.misses, st.spill = misses, spill
	return hits
}

// sweep drops the entries of devices this call did not name and the
// windows no request referenced, returning the evicted entry count.
// Caller holds mu.
func (st *slotState) sweep() (evicted int) {
	for id, e := range st.plans {
		if e.seen != st.seq {
			delete(st.plans, id)
			evicted++
		}
	}
	// Plans whose fingerprints embed a swept window ID can never hit again
	// (the ID is never reissued) and are themselves swept or replaced by
	// the same churn that retired the window. Internal dedup, not
	// surfaced in Evictions.
	for k, e := range st.windows {
		if e.seen != st.seq {
			delete(st.windows, k)
		}
	}
	return evicted
}

// probLookup reports whether the Phase-1 problem (eligible IDs, knapsack
// values, per-device resource weights; capacities are fixed by the
// config the state is bound to) is byte-equal to the one prevSol
// solves, in which case prevSol can be reused verbatim — the solver is a
// deterministic function of the problem. The comparison runs row by row
// against probKey and writes nothing, so a problem solved degraded —
// never stored — leaves the last stored one in force. Caller holds mu.
func (st *slotState) probLookup(eligible []placed, values []float64) bool {
	if !st.probValid {
		return false
	}
	rest := st.probKey
	for k, e := range eligible {
		st.keyBuf = appendProbRow(st.keyBuf[:0], e, values[k])
		if !bytes.HasPrefix(rest, st.keyBuf) {
			return false
		}
		rest = rest[len(st.keyBuf):]
	}
	return len(rest) == 0
}

// probStore records a solved Phase-1 problem and its solution. Caller
// holds mu.
func (st *slotState) probStore(eligible []placed, values []float64, sol ilp.Solution) {
	b := st.probKey[:0]
	for k, e := range eligible {
		b = appendProbRow(b, e, values[k])
	}
	st.probKey, st.prevSol, st.probValid = b, sol, true
}

// appendProbRow appends one Phase-1 problem row. Rows are
// self-delimiting (the ID is length-prefixed), so equal concatenations
// are equal problems.
func appendProbRow(b []byte, e placed, value float64) []byte {
	b = appendString(b, e.p.req.DeviceID)
	b = appendFloat64(b, value)
	b = appendFloat64(b, e.p.g)
	return appendFloat64(b, e.p.h)
}

// --- content fingerprints -------------------------------------------

// cfgSigVersion versions the fingerprint encoding; bump on any change
// so persisted or cross-build state can never alias.
const cfgSigVersion = 1

// configSig fingerprints every decision-relevant config field. Fields
// that cannot change the decision bytes (CompactWorkers, CompactChunk,
// DisableIncremental — mirrored by the audit log's ConfigRecord) are
// excluded. Returns nil for configs the encoding cannot capture (a
// custom anxiety model), which disables incremental state.
func configSig(cfg Config) []byte {
	b := []byte{cfgSigVersion}
	b = appendFloat64(b, cfg.SlotSec)
	b = appendFloat64(b, cfg.Lambda)
	var ok bool
	if b, ok = appendAnxietyKey(b, cfg.Anxiety); !ok {
		return nil
	}
	if cfg.Server == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = appendFloat64(b, cfg.Server.ComputeCapacity)
		b = appendFloat64(b, cfg.Server.StorageCapacityMB)
	}
	b = appendUint64(b, uint64(cfg.ExactThreshold))
	b = appendUint64(b, uint64(cfg.MaxNodes))
	if cfg.DisableSwap {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendUint64(b, uint64(cfg.MaxSwapPasses))
	return b
}

// appendRequestKey appends the content fingerprint of a request: every
// field the compacting step reads (display spec, energy state, gamma,
// anxiety model, and the full chunk window — represented by its
// interned window ID; see windowID for why ID equality implies byte
// equality of the window encoding) but the device ID, which keys the
// entry the fingerprint is kept in. Two requests of one device with
// equal fingerprints produce bit-identical plans. ok is false for
// requests carrying an anxiety model the encoding cannot capture; such
// requests are never cached.
func (st *slotState) appendRequestKey(b []byte, r *Request) (out []byte, ok bool) {
	b = appendUint64(b, uint64(r.Display.Type))
	b = appendUint64(b, uint64(r.Display.Resolution.Width))
	b = appendUint64(b, uint64(r.Display.Resolution.Height))
	b = appendFloat64(b, r.Display.DiagonalInch)
	b = appendFloat64(b, r.Display.Brightness)
	b = appendFloat64(b, r.EnergyFrac)
	b = appendFloat64(b, r.BatteryCapacityJ)
	b = appendFloat64(b, r.BasePowerW)
	b = appendFloat64(b, r.Gamma)
	if b, ok = appendAnxietyKey(b, r.Anxiety); !ok {
		return b, false
	}
	b = appendUint64(b, st.windowID(r.Chunks))
	return b, true
}

// windowID interns a request's chunk window and returns its stable ID.
// The encoding covers every chunk field the compacting step reads —
// index, duration, bitrate and content statistics; Chunk.Keyframe is
// excluded because the scheduling path derives nothing from it. Equal
// IDs imply byte-equal encodings (one live entry per encoding); distinct
// live windows always have distinct IDs; and because IDs are never
// reused, a fingerprint that embeds an evicted window's ID can never
// collide with a later window — at worst a returning window costs one
// conservative rebuild. The per-call window memo (planScratch.windows,
// filled with 0 by validate) keys on slice identity, so a virtual
// cluster whose requests share one chunk slice encodes it once per slot
// instead of once per device.
func (st *slotState) windowID(chunks []video.Chunk) uint64 {
	ref := refOf(chunks)
	if id := st.scratch.windows[ref]; id != 0 {
		return id
	}
	b := st.winBuf[:0]
	b = appendUint64(b, uint64(len(chunks)))
	for i := range chunks {
		c := &chunks[i]
		b = appendUint64(b, uint64(c.Index))
		b = appendFloat64(b, c.DurationSec)
		b = appendUint64(b, uint64(c.BitrateKbps))
		b = appendFloat64(b, c.Stats.MeanLuma)
		b = appendFloat64(b, c.Stats.PeakLuma)
		b = appendFloat64(b, c.Stats.MeanR)
		b = appendFloat64(b, c.Stats.MeanG)
		b = appendFloat64(b, c.Stats.MeanB)
	}
	st.winBuf = b
	e, ok := st.windows[string(b)]
	if !ok {
		st.nextWindow++
		e = &internedWindow{id: st.nextWindow}
		st.windows[string(b)] = e
	}
	e.seen = st.seq
	st.scratch.windows[ref] = e.id
	return e.id
}

// appendAnxietyKey fingerprints the anxiety models the repo ships;
// anything else reports ok=false (uncacheable rather than wrong).
func appendAnxietyKey(b []byte, m anxiety.Model) (out []byte, ok bool) {
	switch m := m.(type) {
	case nil:
		return append(b, 0), true
	case *anxiety.Canonical:
		b = append(b, 1)
		b = appendFloat64(b, m.AnxietyAtWarning)
		b = appendFloat64(b, m.ConvexPower)
		b = appendFloat64(b, m.ConcavePower)
		return b, true
	case anxiety.Linear:
		return append(b, 2), true
	case *anxiety.Rescaled:
		b = append(b, 3)
		b = appendFloat64(b, m.Warning)
		return appendAnxietyKey(b, m.Base)
	case *anxiety.Curve:
		b = append(b, 4)
		for level := 1; level <= anxiety.Levels; level++ {
			b = appendFloat64(b, m.AtLevel(level))
		}
		return b, true
	default:
		return b, false
	}
}

func appendUint64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}

func appendFloat64(b []byte, v float64) []byte {
	return appendUint64(b, math.Float64bits(v))
}

// appendString length-prefixes the string so concatenated fingerprints
// stay self-delimiting.
func appendString(b []byte, s string) []byte {
	b = appendUint64(b, uint64(len(s)))
	return append(b, s...)
}
