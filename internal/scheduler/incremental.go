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
// each Request, a whole-decision replay for bit-unchanged slots, and a
// Phase-1 problem cache. Every shortcut is keyed on byte equality of
// the exact inputs the cold path would consume, so decisions remain
// byte-identical to a cold Schedule — the invariant the differential
// corpus, the churn suite and audit replay enforce.

// CacheStats reports the lifetime effectiveness of one scheduling
// stream's incremental caches.
type CacheStats struct {
	// Hits and Misses count per-request plan-cache outcomes (a replayed
	// slot counts every request as a hit).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts cached plans dropped because their device left
	// the stream or changed content.
	Evictions uint64 `json:"evictions"`
}

// HitRate is Hits/(Hits+Misses), or 0 before any lookup.
func (c CacheStats) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// add merges another stream's counters (pool aggregation).
func (c *CacheStats) add(o CacheStats) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Evictions += o.Evictions
}

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
	pos  int    // batch position in that call; -1 when it named the device twice
}

// chunkRef identifies a chunk-window slice by backing-array identity for
// the per-call intern memo. Every device in a virtual cluster shares one
// chunk slice, so this collapses the window-encoding cost from
// once-per-request to once-per-distinct-window. Sound within a call
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
// ID. IDs are allocated monotonically and never reused, so a request
// fingerprint embedding an ID can only compare equal while the
// byte-identical window stays interned; a window that is evicted and
// later reappears gets a fresh ID, forcing a conservative plan rebuild
// rather than ever aliasing stale bytes.
type internedWindow struct {
	id   uint64
	seen uint64 // last slot sequence that referenced the window
}

// slotState is the cross-slot memory of one scheduling stream. Only a
// Pool holds them, one per VC state key. All fields are guarded by mu; a
// scheduling call holds the lock end to end, so a stream serialises
// internally while distinct streams (pool VCs) stay concurrent.
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
	scratch  planScratch
	ents     []*cachedPlan       // ents[i]: reqs[i]'s entry as the call found it (nil: none, or uncacheable)
	spill    []int               // requests built into the slab: uncacheable, or a device's other copy
	keyBuf   []byte              // one request's fingerprint, or one Phase-1 problem row
	winBuf   []byte              // chunk-window encoding scratch
	winMemo  map[chunkRef]uint64 // per-call slice-identity -> window ID
	allCache bool

	// Whole-decision replay: the previous call's outcome, kept while it
	// was all-cacheable and undegraded. Its batch is the entries' pos.
	prevN   int
	prevDec *Decision

	// Phase-1 caches.
	probKey   []byte // the problem prevSol solves
	prevSol   ilp.Solution
	probValid bool

	hits, misses, evictions uint64
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
	st.prevN = 0
	st.prevDec = nil
	st.probValid = false
}

// begin starts one scheduling call over a validated batch. It points
// scratch.plans[i] at the plan that serves reqs[i] — a cached entry's
// own on a hit and on a cacheable miss, which the caller compacts there,
// or a slab slot for an uncacheable request and for a device's other
// copy when the batch names it twice — and leaves the requests to build
// in scratch.misses, returning the call's hit count. When the call
// repeats the previous one, rep is that decision, copied into rep's own
// storage, and nothing is to build. Caller holds mu.
func (st *slotState) begin(reqs []Request, rep *Decision) (replayed bool, hits int) {
	n := len(reqs)
	// The sequence advances before any lookup so the passes below and
	// window interning can stamp entries; eviction sweeps only run in
	// sweep, within the same call as the stamps, so advancing on a
	// replayed call (which skips the sweep) is harmless.
	st.seq++
	if st.winMemo == nil {
		st.winMemo = make(map[chunkRef]uint64)
	}
	clear(st.winMemo)

	// First pass: find every cacheable request's entry before any is
	// written, marking those the batch names twice, whose pre-call key
	// each copy must be compared with. The call repeats the previous one
	// when every request finds the entry the previous call left at its
	// own position — and, below, hits it.
	replay := st.prevDec != nil && n == st.prevN
	st.ents = grown(st.ents, n)
	for i := range reqs {
		var e *cachedPlan
		var ok bool
		if st.keyBuf, ok = appendAnxietyKey(st.keyBuf[:0], reqs[i].Anxiety); ok {
			e = st.plans[reqs[i].DeviceID]
		}
		st.ents[i] = e
		switch {
		case e == nil:
			replay = false
		case e.seen == st.seq:
			e.pos, replay = -1, false
		default:
			replay = replay && e.pos == i
			e.seen, e.pos = st.seq, i
		}
	}

	// Second pass: fingerprint each request into keyBuf and compare it
	// with its entry's key. A miss on an entry only this request uses is
	// rebuilt in place; a new device gets its entry now.
	sc := &st.scratch
	sc.plans = grown(sc.plans, n)
	misses, spill := sc.misses[:0], st.spill[:0]
	st.allCache = true
	for i := range reqs {
		r := &reqs[i]
		key, ok := st.appendRequestKey(st.keyBuf[:0], r)
		st.keyBuf = key
		e := st.ents[i]
		switch {
		case !ok:
			st.allCache = false
			spill = append(spill, i)
		case e == nil:
			if e = st.plans[r.DeviceID]; e != nil {
				// A device new to the stream, named again: every copy misses.
				e.pos = -1
				spill = append(spill, i)
			} else {
				e = &cachedPlan{key: bytes.Clone(key), seen: st.seq, pos: i}
				st.plans[r.DeviceID] = e
				sc.plans[i] = &e.p
			}
		case bytes.Equal(e.key, key):
			e.p.req = r // rebind to this call's request storage
			sc.plans[i] = &e.p
			hits++
			continue
		case e.pos < 0:
			spill = append(spill, i)
		default:
			e.key = append(e.key[:0], key...)
			sc.plans[i] = &e.p
		}
		misses = append(misses, i)
		replay = false
	}
	sc.slab = grown(sc.slab, len(spill))
	for k, i := range spill {
		sc.plans[i] = &sc.slab[k]
	}
	sc.misses, st.spill = misses, spill

	// Whole-decision replay: the same ordered request set as the previous
	// call, which was all-cacheable and undegraded. The decision is a
	// deterministic function of (config, requests), so the previous one
	// is returned as is. No eviction runs: cached entries keep their
	// stamps and are re-stamped on the next non-replay call.
	if replay {
		copyDecisionInto(rep, st.prevDec)
		rep.batch = reqs
		rep.Replayed = true
		rep.Phase1Cached = true
		rep.Phase1Nodes = 0
		rep.PlanCacheHits = n
		rep.PlanCacheMisses = 0
		rep.PlanCacheEvictions = 0
		rep.CompactSeconds = 0
		rep.Phase1Seconds = 0
		rep.Phase2Seconds = 0
		st.hits += uint64(n)
		return true, 0
	}
	return false, hits
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
	st.evictions += uint64(evicted)
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

// finish records the call's outcome once nothing reads its plans again:
// lifetime counters, the decision for whole-set replay, and the
// slab-built copies of a device named twice into its entry — the last
// copy wins, as if the copies had been cached in batch order. A degraded
// decision is never stored for replay: replaying it into a later,
// unpressured slot would leak deadline-shaped bytes into a tick the cold
// path would have solved in full. Caller holds mu.
func (st *slotState) finish(reqs []Request, dec *Decision) {
	st.hits += uint64(dec.PlanCacheHits)
	st.misses += uint64(dec.PlanCacheMisses)
	if dec.Degraded.Any() || !st.allCache {
		st.prevN, st.prevDec = 0, nil
	} else {
		if st.prevDec == nil {
			st.prevDec = &Decision{}
		}
		copyDecisionInto(st.prevDec, dec)
		// The entries' positions pin the batch's IDs in order, so the
		// stored outcome needs none of its own — and must not pin the
		// caller's request storage.
		st.prevDec.batch = nil
		st.prevN = len(reqs)
	}
	for _, i := range st.spill {
		key, ok := st.appendRequestKey(st.keyBuf[:0], &reqs[i])
		st.keyBuf = key
		if !ok {
			continue
		}
		e := st.plans[reqs[i].DeviceID]
		e.key = append(e.key[:0], key...)
		e.p = *st.scratch.plans[i]
	}
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

// stats snapshots the lifetime counters.
func (st *slotState) stats() CacheStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return CacheStats{Hits: st.hits, Misses: st.misses, Evictions: st.evictions}
}

// copyDecisionInto deep-copies src into dst, reusing the capacity of
// dst's positional slices, so cached state and caller-held results
// never alias each other's. finish runs it every non-replayed slot and
// begin every replayed one: with a kept destination the steady state
// copies two slices and allocates nothing.
func copyDecisionInto(dst, src *Decision) {
	x, per := dst.X[:0], dst.PerDevice[:0]
	*dst = *src
	dst.X = append(x, src.X...)
	dst.PerDevice = append(per, src.PerDevice...)
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
// conservative rebuild. The per-call memo keys on slice identity, so a
// virtual cluster whose requests share one chunk slice encodes it once
// per slot instead of once per device.
func (st *slotState) windowID(chunks []video.Chunk) uint64 {
	ref := refOf(chunks)
	if id, ok := st.winMemo[ref]; ok {
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
	st.winMemo[ref] = e.id
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
