package audit

import (
	"fmt"
	"runtime"
	"testing"

	"lpvs/internal/scheduler"
	"lpvs/internal/testenv"
	"lpvs/internal/video"
)

// sharedWindowInstance builds n requests spread over two shared
// 30-chunk windows — the shape of a daemon tick, where a stream's
// viewers all hold the same chunk slice — and their decision.
func sharedWindowInstance(t testing.TB, n int) (scheduler.Config, []scheduler.Request, scheduler.Decision) {
	t.Helper()
	base := fixedRequest("", false, 0, 0).Chunks
	windows := make([][]video.Chunk, 2)
	for w := range windows {
		windows[w] = make([]video.Chunk, 30)
		for i := range windows[w] {
			windows[w][i] = base[i%len(base)]
			windows[w][i].Index = i
			windows[w][i].BitrateKbps += 7 * (w + i)
		}
	}
	reqs := make([]scheduler.Request, n)
	for i := range reqs {
		reqs[i] = fixedRequest(fmt.Sprintf("dev-%05d", i), i%3 == 0, 0.1+0.8*float64(i%97)/97, 0.2+0.2*float64(i%13)/13)
		reqs[i].Chunks = windows[i%2]
	}
	s, err := scheduler.New(scheduler.Config{SlotSec: 300, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return s.Config(), reqs, dec
}

// TestNewRecordAllocsDoNotScaleWithRequests guards the schema-2 build:
// the window table is interned by slice identity and the verdicts are
// copied by position out of the decision, so a record costs a handful
// of allocations (the request, verdict and index slices, the pre-sized
// canonical decision, two table entries) however many viewers share its
// windows: 23 at 1,000 requests and at 2,000.
func TestNewRecordAllocsDoNotScaleWithRequests(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	build := func(n int) float64 {
		cfg, reqs, dec := sharedWindowInstance(t, n)
		return testing.AllocsPerRun(10, func() {
			if rec := NewRecord(1, "vc", cfg, reqs, dec); len(rec.Windows) != 2 {
				t.Fatalf("%d windows, want 2", len(rec.Windows))
			}
		})
	}
	small, large := build(1000), build(2000)
	t.Logf("%.0f allocs at 1,000 requests, %.0f at 2,000", small, large)
	if large-small >= 4 || large >= 40 {
		t.Fatalf("NewRecord allocates %.0f at 1,000 requests and %.0f at 2,000: still scales with requests", small, large)
	}
}

// countingWriter counts what is written to it and keeps none of it.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// TestBuilderSteadyStateAllocs guards what a logging tick pays per
// record once its Builder is warm: nothing, at 1,000 requests and at
// 2,000, and a line that leaves through the builder's one fixed buffer,
// never grown. The record carries the canonical text in the builder's
// own buffer, the window table rewrites its entries' records in place
// and the config hash is kept while the config stands. It read 7
// objects and 37 KB at 2,000 while the record held a string copy of the
// text and rebuilt the rest, and 70 KB while the text was built by fmt
// in a buffer of its own. A fresh NewRecord + Encode of the same tick
// is 1.5 MB.
func TestBuilderSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(n int) (allocs, bytes float64) {
		cfg, reqs, dec := sharedWindowInstance(t, n)
		var b Builder
		var written countingWriter
		log := NewWriter(&written)
		cycle := func() {
			rec := b.Build(1, "vc", cfg, reqs, dec)
			rec.UnixSec = 1754400000.5
			before := written
			if err := log.Append(&b, nil); err != nil || int(written-before) < 400*n || cap(b.line) != lineBuf {
				t.Fatalf("%d-byte line through a %d-byte buffer, err %v", written-before, cap(b.line), err)
			}
		}
		cycle()
		allocs = testing.AllocsPerRun(10, cycle)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cycle()
		runtime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	smallAllocs, _ := measure(1000)
	largeAllocs, largeBytes := measure(2000)
	t.Logf("warm Build+Append: %.0f allocs at 1,000 requests, %.0f at 2,000 (%.0f B)", smallAllocs, largeAllocs, largeBytes)
	if smallAllocs != 0 || largeAllocs != 0 || largeBytes != 0 {
		t.Fatalf("a warm Build+Append allocates %.0f at 1,000 requests and %.0f (%.0f B) at 2,000, want nothing", smallAllocs, largeAllocs, largeBytes)
	}
}

// TestReplayAllocsBytes guards the cold replay: a 2,000-request record
// replays through a Scheduler that keeps nothing, so what it allocates
// is the rebuilt requests, one cold solve with its two ID-keyed maps and
// the canonical string. A scheduler that grew a plan cache, request
// fingerprints and a replay copy to throw away made this 3.9 MB.
func TestReplayAllocsBytes(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg, reqs, dec := sharedWindowInstance(t, 2000)
	rec := NewRecord(1, "vc", cfg, reqs, dec)
	replay := func() {
		if res, err := rec.Replay(); err != nil || !res.Match {
			t.Fatalf("replay: %+v, err %v", res, err)
		}
	}
	replay()
	best := 0.0
	var m0, m1 runtime.MemStats
	for run := 0; run < 3; run++ {
		runtime.ReadMemStats(&m0)
		replay()
		runtime.ReadMemStats(&m1)
		if got := float64(m1.TotalAlloc - m0.TotalAlloc); run == 0 || got < best {
			best = got
		}
	}
	t.Logf("Record.Replay of 2,000 requests: %.0f B", best)
	if best >= 1.5e6 {
		t.Fatalf("Record.Replay of 2,000 requests allocates %.0f B, want under 1.5 MB: the cold replay is paying for a cache", best)
	}
}

// BenchmarkAuditEncode times one 2,000-request record from decision to
// encoded line: cold is NewRecord + Encode, what a one-off caller (and
// the load generator's audit.encode_ms probe) pays; warm is the
// daemon's path, a Builder that has seen the tick's shape before
// streaming its line to a log (here one that discards it).
func BenchmarkAuditEncode(b *testing.B) {
	cfg, reqs, dec := sharedWindowInstance(b, 2000)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			line, err := NewRecord(1, "vc", cfg, reqs, dec).Encode()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(line)))
		}
	})
	b.Run("warm", func(b *testing.B) {
		var builder Builder
		var written countingWriter
		log := NewWriter(&written)
		builder.Build(1, "vc", cfg, reqs, dec)
		if err := log.Append(&builder, nil); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(written))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			builder.Build(1, "vc", cfg, reqs, dec)
			if err := log.Append(&builder, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAuditDecode times Decode of the same 2,000-request line, the
// step behind every replay (lpvsctl audit, the boot-time audit rung,
// the load generator's replay check).
func BenchmarkAuditDecode(b *testing.B) {
	cfg, reqs, dec := sharedWindowInstance(b, 2000)
	line, err := NewRecord(1, "vc", cfg, reqs, dec).Encode()
	if err != nil {
		b.Fatal(err)
	}
	line = line[:len(line)-1]
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(line); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodedLineSizeSharedWindows bounds the line itself: 2,000
// requests over two windows encode to well under the 12.8 MB the inline
// layout wrote for the same tick.
func TestEncodedLineSizeSharedWindows(t *testing.T) {
	cfg, reqs, dec := sharedWindowInstance(t, 2000)
	line, err := NewRecord(1, "vc", cfg, reqs, dec).Encode()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d bytes for %d requests", len(line), len(reqs))
	if len(line) >= 1_200_000 {
		t.Fatalf("encoded line is %d bytes, want < 1.2 MB", len(line))
	}
	rec, err := Decode(line[:len(line)-1])
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatalf("shared-window record does not replay:\n%s", res.Diff())
	}
}
