// Package span is a dependency-free, context-propagated span tracer in
// the Dapper style: a request (one scheduling tick, one observation
// round-trip) becomes a tree of named spans with durations and
// attributes, so a single slot's path through the system — HTTP handler
// → pool → per-VC compacting → Phase-1 → Phase-2 → Bayesian update —
// renders as one causally ordered trace.
//
// Design constraints, in order:
//
//   - Zero overhead when tracing is off. A Tracer with a sample rate <= 0
//     never takes a lock, never draws randomness, and returns nil
//     spans; every (*Span) method is nil-safe, so instrumented code
//     needs no branches. The scheduler hot path is guarded by a
//     benchmark; its untraced-vs-sampling-off figures are quoted in
//     CHANGES.md (PR 3).
//   - Determinism. Trace and span IDs come from a fixed-seed RNG, so
//     a traced run is reproducible end to end; only the wall-clock
//     timestamps differ between runs.
//   - Boundedness. Finished spans land in a fixed-capacity ring
//     buffer; a long-running daemon keeps the most recent spans and
//     never grows without bound. The ring is made when the first span
//     is committed, so a tracer that never samples holds no span
//     memory at all (the default ring is 1.5 MB).
//
// Spans propagate through context.Context: the component that owns the
// Tracer starts a root span with Tracer.Start, and downstream code —
// which needs no reference to the tracer — opens children with the
// package-level Child. Child spans may be created concurrently from
// the same parent (the pool's workers do).
package span

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// ctxKey carries the active span through a context.
type ctxKey struct{}

// ringCapacity is the finished-span ring's size: enough for several
// thousand ticks of the five-span tick tree.
const ringCapacity = 16384

// Tracer creates spans and collects the finished ones. Safe for
// concurrent use. A nil *Tracer is valid and never samples.
type Tracer struct {
	sample   float64
	capacity int // ring size: ringCapacity, which tests lower before the first span

	mu    sync.Mutex
	rng   *rand.Rand // nil when sample <= 0: nothing ever draws from it
	ring  []Data     // nil until the first span is committed (End)
	next  int        // ring write cursor
	wrap  bool       // ring has wrapped at least once
	drops uint64
}

// NewTracer builds a tracer that begins a recorded trace with
// probability sample: <= 0 disables tracing entirely (the zero-overhead
// path); >= 1 records every trace. Trace and span IDs come from a
// stream seeded with 1.
func NewTracer(sample float64) *Tracer {
	t := &Tracer{sample: sample, capacity: ringCapacity}
	if sample > 0 {
		// Only a sampled Start and the children below it draw IDs, and
		// only their End writes the ring: a disabled tracer is this
		// struct and nothing else.
		t.rng = rand.New(rand.NewSource(1))
	}
	return t
}

// Data is one finished span as exported: IDs, nesting, timing and
// attributes. Attribute keys marshal in sorted order (encoding/json on
// maps), so the JSONL export of a seeded run is stable up to wall-clock
// fields.
type Data struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartUnixNano is the wall-clock start; DurationSec the span's
	// elapsed time. These are the only non-deterministic fields.
	StartUnixNano int64              `json:"start_unix_nano"`
	DurationSec   float64            `json:"duration_sec"`
	Attrs         map[string]float64 `json:"attrs,omitempty"`
	StrAttrs      map[string]string  `json:"str_attrs,omitempty"`
}

// Span is one live span. Methods on a nil *Span are no-ops, so
// instrumented code never branches on whether tracing is on. A span's
// mutating methods (Set*, End) must be called from the goroutine that
// owns it; creating children from other goroutines is safe.
type Span struct {
	tracer *Tracer
	data   Data
	start  time.Time
	ended  bool
}

// Start begins a root span, applying the sampling decision. When the
// trace is not sampled (or t is nil) it returns ctx unchanged and a nil
// span; the whole downstream tree then short-circuits.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || t.sample <= 0 {
		return ctx, nil
	}
	t.mu.Lock()
	sampled := t.sample >= 1 || t.rng.Float64() < t.sample
	var traceID, spanID string
	if sampled {
		traceID = fmt.Sprintf("%016x", uint64(t.rng.Int63()))
		spanID = fmt.Sprintf("%08x", uint32(t.rng.Int63()))
	}
	t.mu.Unlock()
	if !sampled {
		return ctx, nil
	}
	sp := &Span{
		tracer: t,
		start:  time.Now(),
		data:   Data{TraceID: traceID, SpanID: spanID, Name: name},
	}
	sp.data.StartUnixNano = sp.start.UnixNano()
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Child opens a child of the context's active span. With no active span
// (tracing off, or the trace was not sampled) it returns ctx unchanged
// and a nil span — the only cost is one context lookup.
func Child(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	t := parent.tracer
	t.mu.Lock()
	spanID := fmt.Sprintf("%08x", uint32(t.rng.Int63()))
	t.mu.Unlock()
	sp := &Span{
		tracer: t,
		start:  time.Now(),
		data: Data{
			TraceID:  parent.data.TraceID,
			SpanID:   spanID,
			ParentID: parent.data.SpanID,
			Name:     name,
		},
	}
	sp.data.StartUnixNano = sp.start.UnixNano()
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// TraceID returns the span's trace ID ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// Set records a numeric attribute.
func (s *Span) Set(key string, v float64) {
	if s == nil {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]float64)
	}
	s.data.Attrs[key] = v
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int) { s.Set(key, float64(v)) }

// SetStr records a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	if s.data.StrAttrs == nil {
		s.data.StrAttrs = make(map[string]string)
	}
	s.data.StrAttrs[key] = v
}

// End finishes the span and commits it to the tracer's ring buffer,
// making the ring if this is the first span the tracer commits. Ending
// twice is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.data.DurationSec = time.Since(s.start).Seconds()
	t := s.tracer
	t.mu.Lock()
	if t.ring == nil {
		t.ring = make([]Data, 0, t.capacity)
	}
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, s.data)
	} else {
		t.ring[t.next] = s.data
		t.wrap = true
		t.drops++
	}
	t.next = (t.next + 1) % t.capacity
	t.mu.Unlock()
}

// Snapshot returns the finished spans in commit order (oldest first).
// A nil tracer snapshots empty.
func (t *Tracer) Snapshot() []Data {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrap {
		return append([]Data(nil), t.ring...)
	}
	out := make([]Data, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dropped reports how many finished spans the ring buffer has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// Node is one span with its children resolved — the tree view of a
// trace.
type Node struct {
	Data
	Children []*Node
}

// Tree reconstructs the span trees of one trace ID from a span set,
// children sorted by start time then name. Spans whose parent is
// missing from the set surface as roots, so partially evicted traces
// still render.
func Tree(spans []Data, traceID string) []*Node {
	nodes := make(map[string]*Node)
	var ordered []*Node
	for _, d := range spans {
		if d.TraceID != traceID {
			continue
		}
		n := &Node{Data: d}
		nodes[d.SpanID] = n
		ordered = append(ordered, n)
	}
	var roots []*Node
	for _, n := range ordered {
		if p, ok := nodes[n.ParentID]; ok && n.ParentID != "" {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	for _, n := range ordered {
		sortNodes(n.Children)
	}
	return roots
}

func sortNodes(ns []*Node) {
	sort.SliceStable(ns, func(a, b int) bool {
		if ns[a].StartUnixNano != ns[b].StartUnixNano {
			return ns[a].StartUnixNano < ns[b].StartUnixNano
		}
		return ns[a].Name < ns[b].Name
	})
}
