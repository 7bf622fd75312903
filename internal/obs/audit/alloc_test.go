package audit

import (
	"fmt"
	"testing"

	"lpvs/internal/scheduler"
	"lpvs/internal/testenv"
	"lpvs/internal/video"
)

// sharedWindowInstance builds n requests spread over two shared
// 30-chunk windows — the shape of a daemon tick, where a stream's
// viewers all hold the same chunk slice — and their decision.
func sharedWindowInstance(t *testing.T, n int) (scheduler.Config, []scheduler.Request, scheduler.Decision) {
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
// windows: 24 at 1,000 requests and at 2,000.
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
