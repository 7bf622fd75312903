package span

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lpvs/internal/testenv"
)

func TestDisabledTracerIsInert(t *testing.T) {
	ctx := context.Background()
	for _, tr := range []*Tracer{nil, NewTracer(0)} {
		got, sp := tr.Start(ctx, "tick")
		if sp != nil {
			t.Fatal("disabled tracer returned a span")
		}
		if got != ctx {
			t.Fatal("disabled tracer changed the context")
		}
		// The whole downstream tree short-circuits and every method is
		// nil-safe.
		childCtx, child := Child(got, "vc")
		if child != nil || childCtx != ctx {
			t.Fatal("child of inactive context not inert")
		}
		child.Set("k", 1)
		child.SetInt("n", 2)
		child.SetStr("s", "v")
		child.End()
		if child.TraceID() != "" {
			t.Fatal("nil span has a trace ID")
		}
		if snap := tr.Snapshot(); len(snap) != 0 {
			t.Fatalf("disabled tracer collected %d spans", len(snap))
		}
		if tr.Dropped() != 0 {
			t.Fatal("disabled tracer dropped spans")
		}
	}
}

func TestTreeMatchesCallGraph(t *testing.T) {
	tr := NewTracer(1)
	ctx, root := tr.Start(context.Background(), "tick")
	root.SetInt("slot", 3)
	vcCtx, vc := Child(ctx, "vc")
	for _, stage := range []string{"compact", "phase1", "phase2"} {
		_, sp := Child(vcCtx, stage)
		sp.End()
	}
	vc.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	roots := Tree(spans, root.TraceID())
	if len(roots) != 1 || roots[0].Name != "tick" {
		t.Fatalf("roots = %+v", roots)
	}
	if got := roots[0].Attrs["slot"]; got != 3 {
		t.Fatalf("slot attr = %v", got)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "vc" {
		t.Fatalf("tick children = %+v", roots[0].Children)
	}
	stages := roots[0].Children[0].Children
	if len(stages) != 3 {
		t.Fatalf("vc has %d children, want 3", len(stages))
	}
	for i, want := range []string{"compact", "phase1", "phase2"} {
		if stages[i].Name != want {
			t.Fatalf("stage %d = %q, want %q", i, stages[i].Name, want)
		}
		if stages[i].ParentID != roots[0].Children[0].SpanID {
			t.Fatalf("stage %q not parented to vc", stages[i].Name)
		}
	}
}

func TestConcurrentChildrenOfOneParent(t *testing.T) {
	tr := NewTracer(1)
	ctx, root := tr.Start(context.Background(), "tick")
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, sp := Child(ctx, "vc")
			sp.SetInt("worker", w)
			sp.End()
		}(w)
	}
	wg.Wait()
	root.End()
	roots := Tree(tr.Snapshot(), root.TraceID())
	if len(roots) != 1 || len(roots[0].Children) != workers {
		t.Fatalf("want 1 root with %d children, got %+v", workers, roots)
	}
	ids := map[string]bool{}
	for _, c := range roots[0].Children {
		if ids[c.SpanID] {
			t.Fatalf("duplicate span ID %s", c.SpanID)
		}
		ids[c.SpanID] = true
	}
}

func TestSeededIDsAreDeterministic(t *testing.T) {
	run := func() []string {
		tr := NewTracer(1)
		var out []string
		for i := 0; i < 3; i++ {
			ctx, root := tr.Start(context.Background(), "tick")
			_, c := Child(ctx, "vc")
			c.End()
			root.End()
			out = append(out, root.TraceID())
		}
		for _, d := range tr.Snapshot() {
			out = append(out, d.SpanID)
		}
		return out
	}
	a, b := run(), run()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("seeded runs diverged:\n%v\n%v", a, b)
	}
}

func TestSamplingSkipsTraces(t *testing.T) {
	tr := NewTracer(0.5)
	sampled := 0
	const n = 200
	for i := 0; i < n; i++ {
		_, sp := tr.Start(context.Background(), "tick")
		if sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled == 0 || sampled == n {
		t.Fatalf("sample=0.5 kept %d of %d traces", sampled, n)
	}
	if got := len(tr.Snapshot()); got != sampled {
		t.Fatalf("ring holds %d spans, want %d", got, sampled)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := NewTracer(1)
	tr.capacity = 4
	var last string
	for i := 0; i < 10; i++ {
		_, sp := tr.Start(context.Background(), "s")
		sp.SetInt("i", i)
		sp.End()
		last = sp.TraceID()
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap))
	}
	for i, d := range snap {
		if want := float64(6 + i); d.Attrs["i"] != want {
			t.Fatalf("slot %d holds span %v, want %v (oldest-first order)", i, d.Attrs["i"], want)
		}
	}
	if snap[3].TraceID != last {
		t.Fatal("newest span missing after wrap")
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

// TestIdleTracerAllocs guards what -trace-sample 0 costs a daemon:
// nothing. A tracer that never samples is its struct — no ID stream, no
// ring (the default one is 16,384 x 96 B) — and its Start/End pairs
// allocate nothing at all.
func TestIdleTracerAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ctx := context.Background()
	// TotalAlloc is process-wide, so the fewest bytes of a few attempts
	// is the tracer's own: what the runtime and the test binary allocate
	// in the background only ever adds.
	var tr *Tracer
	best := uint64(0)
	for attempt := 0; attempt < 5; attempt++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr = NewTracer(0)
		for i := 0; i < 1000; i++ {
			_, sp := tr.Start(ctx, "tick")
			sp.SetInt("slot", i)
			sp.End()
		}
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; attempt == 0 || got < best {
			best = got
		}
	}
	if best > 1024 {
		t.Fatalf("an idle tracer and 1,000 unsampled spans allocated %d B, want at most 1 KiB", best)
	}
	if snap := tr.Snapshot(); len(snap) != 0 || tr.Dropped() != 0 {
		t.Fatalf("a tracer that never sampled holds %d spans and dropped %d, want none", len(snap), tr.Dropped())
	}
}

// TestRingMadeAtFirstSpanWrapsAlike pins the ring's behaviour across the
// change that made it lazily: after every commit a capacity-3 tracer
// holds what the eagerly allocated ring held — the newest three spans,
// oldest first, and a drop per span beyond three — whether the first
// span arrives at once or after a long stretch of being read while
// empty.
func TestRingMadeAtFirstSpanWrapsAlike(t *testing.T) {
	for _, tc := range []struct {
		name string
		idle int // Snapshot/Dropped reads before the first span
	}{
		{"fresh", 0},
		{"long-idle", 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracer(1)
			tr.capacity = 3
			for i := 0; i < tc.idle; i++ {
				if snap := tr.Snapshot(); len(snap) != 0 || tr.Dropped() != 0 {
					t.Fatalf("idle read %d: %d spans, %d dropped, want none", i, len(snap), tr.Dropped())
				}
			}
			for i := 0; i < 10; i++ {
				_, sp := tr.Start(context.Background(), "s")
				sp.SetInt("i", i)
				sp.End()
				held := min(i+1, 3)
				snap := tr.Snapshot()
				if len(snap) != held {
					t.Fatalf("after span %d the ring holds %d, want %d", i, len(snap), held)
				}
				for k, d := range snap {
					if want := float64(i + 1 - held + k); d.Attrs["i"] != want {
						t.Fatalf("after span %d slot %d holds span %v, want %v (oldest first)", i, k, d.Attrs["i"], want)
					}
				}
				if snap[held-1].TraceID != sp.TraceID() {
					t.Fatalf("after span %d the newest span is missing", i)
				}
				if want := uint64(i + 1 - held); tr.Dropped() != want {
					t.Fatalf("after span %d dropped = %d, want %d", i, tr.Dropped(), want)
				}
			}
		})
	}
}

func TestDoubleEndCommitsOnce(t *testing.T) {
	tr := NewTracer(1)
	_, sp := tr.Start(context.Background(), "s")
	sp.End()
	sp.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("double End committed %d spans", got)
	}
}

func TestTreeSurvivesMissingParent(t *testing.T) {
	// Partially evicted traces: a child whose parent fell out of the
	// ring must surface as a root, not vanish.
	spans := []Data{
		{TraceID: "t", SpanID: "b", ParentID: "missing", Name: "orphan"},
		{TraceID: "t", SpanID: "a", Name: "root"},
		{TraceID: "other", SpanID: "x", Name: "noise"},
	}
	roots := Tree(spans, "t")
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (root + orphan)", len(roots))
	}
}
