package audit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpvs/internal/anxiety"
	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/scheduler"
	"lpvs/internal/video"
)

// fixedRequest hand-builds a deterministic request (no RNG, no video
// generator) so the golden file is stable byte for byte.
func fixedRequest(id string, oled bool, energy, gamma float64) scheduler.Request {
	ty := display.LCD
	if oled {
		ty = display.OLED
	}
	chunks := make([]video.Chunk, 3)
	for i := range chunks {
		f := float64(i)
		chunks[i] = video.Chunk{
			Index:       i,
			DurationSec: 10,
			BitrateKbps: 4000 + 100*i,
			Stats: display.ContentStats{
				MeanLuma: 0.40 + 0.05*f,
				PeakLuma: 0.80 + 0.05*f,
				MeanR:    0.35 + 0.01*f,
				MeanG:    0.45 + 0.01*f,
				MeanB:    0.25 + 0.01*f,
			},
		}
	}
	return scheduler.Request{
		DeviceID: id,
		Display: display.Spec{
			// 720p: one device exactly fills the golden scenario's
			// capacity-1 server, forcing a selected/rejected mix.
			Type:         ty,
			Resolution:   display.Res720p,
			DiagonalInch: 6,
			Brightness:   0.6,
		},
		EnergyFrac:       energy,
		BatteryCapacityJ: 50_000,
		BasePowerW:       0.9,
		Chunks:           chunks,
		Gamma:            gamma,
	}
}

// fixedInstance is the golden scenario: a capacity-1 server forcing a
// mix of selected and capacity-rejected devices.
func fixedInstance(t *testing.T) (scheduler.Config, []scheduler.Request, scheduler.Decision) {
	t.Helper()
	server, err := edge.NewServer(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scheduler.Config{SlotSec: 30, Lambda: 1, Server: server}
	s, err := scheduler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []scheduler.Request{
		fixedRequest("dev-a", false, 0.30, 0.30),
		fixedRequest("dev-b", true, 0.15, 0.25),
		fixedRequest("dev-c", false, 0.80, 0.40),
	}
	dec, err := s.Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return s.Config(), reqs, dec
}

func goldenRecord(t *testing.T) *Record {
	t.Helper()
	return goldenBuild(t, new(Builder))
}

// goldenBuild is goldenRecord built in b, for a test that appends it to
// a log.
func goldenBuild(t *testing.T, b *Builder) *Record {
	t.Helper()
	cfg, reqs, dec := fixedInstance(t)
	rec := b.Build(7, "slot-7", cfg, reqs, dec)
	// Wall-clock fields are pinned so the encoding is reproducible; the
	// schema is what the golden file guards.
	rec.Seed = 42
	rec.UnixSec = 1754400000.5
	rec.TraceID = "00000000deadbeef"
	rec.Spans = []StageSpan{
		{Name: "compact", DurSec: 0.001},
		{Name: "phase1", DurSec: 0.002},
		{Name: "phase2", DurSec: 0.0005},
	}
	return rec
}

// readGolden returns a golden file's one line, trailing newline
// included.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create the schema-2 golden)", err)
	}
	return data
}

// TestDecodeTrailingBytes holds Decode to one record per line: a golden
// line with whitespace after it decodes, one with anything else after it
// — a second record glued on by a lost newline, a stray brace — fails
// instead of decoding as its first record.
func TestDecodeTrailingBytes(t *testing.T) {
	for _, name := range []string{"record.golden.jsonl", "record.v2.golden.jsonl"} {
		line := bytes.TrimSpace(readGolden(t, name))
		for _, tc := range []struct {
			tail string
			ok   bool
		}{
			{"", true},
			{"\n", true},
			{" \t\r\n ", true},
			{` {"schema":99} garbage`, false},
			{"}", false},
			{" }\n", false},
			{"\n" + string(line), false},
			{string(line), false},
			{"x", false},
		} {
			_, err := Decode(append(append([]byte(nil), line...), tc.tail...))
			if (err == nil) != tc.ok {
				t.Errorf("%s + %q: error %v, want ok=%v", name, tc.tail, err, tc.ok)
			}
		}
	}
}

// TestGoldenRecordSchema pins both wire formats against the same
// fixedInstance. record.v2.golden.jsonl is the writer's golden: any
// field rename, reorder, or type change in what NewRecord + Encode
// produce shows up as a diff and must come with a schema-version bump
// (refresh with UPDATE_GOLDEN=1 go test ./internal/obs/audit/).
// record.golden.jsonl is the reader's golden for the retired schema 1:
// nothing can regenerate it, and it must keep decoding, verifying,
// replaying and re-encoding to the same bytes. Both must replay to the
// same canonical decision.
func TestGoldenRecordSchema(t *testing.T) {
	rec := goldenRecord(t)
	got, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(filepath.Join("testdata", "record.v2.golden.jsonl"), got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := readGolden(t, "record.v2.golden.jsonl"); !bytes.Equal(got, want) {
		t.Fatalf("audit record schema drifted from golden file:\ngot:  %s\nwant: %s", got, want)
	}
	for name, schema := range map[string]int{"record.golden.jsonl": 1, "record.v2.golden.jsonl": 2} {
		want := readGolden(t, name)
		dec, err := Decode(bytes.TrimSpace(want))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dec.Schema != schema {
			t.Fatalf("%s: decoded as schema %d, want %d", name, dec.Schema, schema)
		}
		res, err := dec.Replay()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Match {
			t.Fatalf("%s does not replay:\n%s", name, res.Diff())
		}
		if res.Got != string(rec.DecisionCanonical) {
			t.Fatalf("%s replays to a different decision than the fixed instance:\n%s\nvs\n%s",
				name, res.Got, rec.DecisionCanonical)
		}
		again, err := dec.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("%s does not re-encode in the schema it was read in:\ngot:  %s\nwant: %s", name, again, want)
		}
	}
}

// TestNewRecordDedupesWindows covers both interning paths: requests
// sharing one chunk slice hit the slice-identity fast path, requests
// with private but equal slices (fixedRequest builds a fresh one per
// call, as the emulator does) fall back to content equality, and a
// window that differs in one field gets its own entry.
func TestNewRecordDedupesWindows(t *testing.T) {
	cfg, reqs, dec := fixedInstance(t)
	rec := NewRecord(0, "vc", cfg, reqs, dec)
	if len(rec.Windows) != 1 {
		t.Fatalf("equal private windows logged %d times, want 1", len(rec.Windows))
	}
	shared := reqs[0].Chunks
	for i := range reqs {
		reqs[i].Chunks = shared
	}
	if rec = NewRecord(0, "vc", cfg, reqs, dec); len(rec.Windows) != 1 {
		t.Fatalf("shared window logged %d times, want 1", len(rec.Windows))
	}
	other := append([]video.Chunk(nil), shared...)
	other[1].Stats.MeanLuma += 0.01
	reqs[2].Chunks = other
	rec = NewRecord(0, "vc", cfg, reqs, dec)
	if len(rec.Windows) != 2 || *rec.Requests[0].Window != 0 || *rec.Requests[1].Window != 0 || *rec.Requests[2].Window != 1 {
		t.Fatalf("distinct window not split out: %d windows, indices %d %d %d", len(rec.Windows),
			*rec.Requests[0].Window, *rec.Requests[1].Window, *rec.Requests[2].Window)
	}
	for i := range rec.Requests {
		if rec.Requests[i].Chunks != nil {
			t.Fatalf("request %d carries inline chunks", i)
		}
	}
	if err := rec.Verify(); err != nil {
		t.Fatal(err)
	}
	// All viewers of a window share one rebuilt slice on replay.
	back, err := rec.SchedulerRequests()
	if err != nil {
		t.Fatal(err)
	}
	if &back[0].Chunks[0] != &back[1].Chunks[0] || &back[0].Chunks[0] == &back[2].Chunks[0] {
		t.Fatal("replayed requests do not share their window's slice")
	}
}

// TestVerifyRejectsMixedLayouts pins the schema gate: a record is
// wholly schema 1 (inline chunks) or wholly schema 2 (table + indices).
func TestVerifyRejectsMixedLayouts(t *testing.T) {
	v1 := func(t *testing.T) *Record {
		rec, err := Decode(bytes.TrimSpace(readGolden(t, "record.golden.jsonl")))
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	for _, tc := range []struct {
		name   string
		build  func(t *testing.T) *Record
		mutate func(r *Record)
		want   string // "" = accepted
	}{
		{"v2 window out of range", goldenRecord, func(r *Record) { r.Requests[1].Window = windowIndex(1) },
			"audit: request 1 (dev-b): window 1 outside the record's 1-entry table"},
		{"v2 window negative", goldenRecord, func(r *Record) { r.Requests[0].Window = windowIndex(-1) },
			"audit: request 0 (dev-a): window -1 outside the record's 1-entry table"},
		{"v2 window missing", goldenRecord, func(r *Record) { r.Requests[2].Window = nil },
			"audit: request 2 (dev-c): schema 2 request has no window index"},
		{"v2 inline chunks", goldenRecord, func(r *Record) { r.Requests[0].Chunks = r.Windows[0] },
			"audit: request 0 (dev-a): schema 2 request carries inline chunks"},
		{"v2 unreferenced window", goldenRecord, func(r *Record) { r.Windows = append(r.Windows, r.Windows[0]) }, ""},
		{"v1 with table", v1, func(r *Record) { r.Windows = [][]ChunkRecord{r.Requests[0].Chunks} },
			"audit: schema 1 record carries a window table"},
		{"v1 with index", v1, func(r *Record) { r.Requests[1].Window = windowIndex(0) },
			"audit: request 1 (dev-b): schema 1 request carries a window index"},
		{"v1 untouched", v1, func(r *Record) {}, ""},
		{"unknown schema", goldenRecord, func(r *Record) { r.Schema = 3 }, "audit: schema 3, want 1 or 2"},
	} {
		rec := tc.build(t)
		tc.mutate(rec)
		err := rec.Verify()
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: Verify = %q, want %q", tc.name, got, tc.want)
			continue
		}
		// Whatever Verify says, Decode of the encoded line must say too:
		// the gate holds on the wire, not only on in-memory records.
		line, eerr := rec.Encode()
		if eerr != nil {
			t.Fatal(eerr)
		}
		if _, derr := Decode(bytes.TrimSpace(line)); fmt.Sprint(derr) != fmt.Sprint(err) {
			t.Errorf("%s: Decode = %v, Verify = %v", tc.name, derr, err)
		}
	}
}

func TestVerdictsSortedAndComplete(t *testing.T) {
	rec := goldenRecord(t)
	if len(rec.Verdicts) != len(rec.Requests) {
		t.Fatalf("%d verdicts for %d requests", len(rec.Verdicts), len(rec.Requests))
	}
	for i := 1; i < len(rec.Verdicts); i++ {
		if rec.Verdicts[i-1].Device >= rec.Verdicts[i].Device {
			t.Fatalf("verdicts not sorted: %q before %q", rec.Verdicts[i-1].Device, rec.Verdicts[i].Device)
		}
	}
	if _, ok := rec.Verdict("dev-b"); !ok {
		t.Fatal("Verdict lookup failed for present device")
	}
	if _, ok := rec.Verdict("dev-zz"); ok {
		t.Fatal("Verdict lookup invented a device")
	}
	// With capacity 1 the instance must contain both outcomes, and both
	// must carry non-empty reasons.
	selected, rejected := 0, 0
	for _, v := range rec.Verdicts {
		if v.Reason == "" {
			t.Fatalf("device %s has an empty reason", v.Device)
		}
		if v.Selected {
			selected++
		} else {
			rejected++
		}
	}
	if selected == 0 || rejected == 0 {
		t.Fatalf("golden instance lost its mix: %d selected, %d rejected", selected, rejected)
	}
}

func TestConfigHashDetectsTampering(t *testing.T) {
	rec := goldenRecord(t)
	if err := rec.Verify(); err != nil {
		t.Fatal(err)
	}
	rec.Config.Lambda += 0.5
	if err := rec.Verify(); err == nil {
		t.Fatal("tampered config passed verification")
	}
	for _, schema := range []int{0, SchemaVersion + 1} {
		rec = goldenRecord(t)
		rec.Schema = schema
		if err := rec.Verify(); err == nil {
			t.Fatalf("schema version %d accepted", schema)
		}
	}
}

func TestReplayFlagsForgedDecision(t *testing.T) {
	rec := goldenRecord(t)
	rec.DecisionCanonical = CanonicalText(strings.Replace(string(rec.DecisionCanonical), "=true", "=false", 1))
	res, err := rec.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if res.Match {
		t.Fatal("forged decision replayed as matching")
	}
	if res.Diff() == "" {
		t.Fatal("mismatch without a diff")
	}
}

func TestReplayFlagsForgedReason(t *testing.T) {
	rec := goldenRecord(t)
	for i := range rec.Verdicts {
		rec.Verdicts[i].Reason = scheduler.ReasonNoTransform
	}
	res, err := rec.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if res.Match || len(res.ReasonDiffs) == 0 {
		t.Fatal("forged reasons replayed as matching")
	}
}

// TestReplayFlagsForgedWindow tampers with one entry of the shared
// window table. Every viewer of the window is rebuilt around the forged
// chunk, so the replayed decision cannot match the logged one. The
// forged field is duration_sec because chunk energy is power x duration
// on both display types; mean_luma is logged but only range-checked
// (the LCD model ignores content, the OLED model reads the channel
// means), so forging it alone would leave the decision bytes unmoved.
func TestReplayFlagsForgedWindow(t *testing.T) {
	rec := goldenRecord(t)
	rec.Windows[0][1].DurationSec = 7
	res, err := rec.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if res.Match || res.Got == res.Want || res.Diff() == "" {
		t.Fatal("forged window table replayed as matching")
	}
	reqs, err := rec.SchedulerRequests()
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if reqs[i].Chunks[1].DurationSec != 7 {
			t.Fatalf("viewer %s replayed around an unforged window", reqs[i].DeviceID)
		}
	}
}

func TestAnxietyRecordRoundTrip(t *testing.T) {
	canonical := anxiety.NewCanonical()
	rescaled, err := anxiety.NewRescaled(canonical, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []anxiety.Model{nil, canonical, rescaled} {
		rec := NewAnxietyRecord(m)
		back, err := rec.Model()
		if err != nil {
			t.Fatalf("%+v: %v", rec, err)
		}
		want := m
		if want == nil {
			want = canonical
		}
		for _, e := range []float64{0, 0.1, 0.2, 0.5, 0.9, 1} {
			if got, exp := back.Anxiety(e), want.Anxiety(e); got != exp {
				t.Fatalf("kind %s: anxiety(%v) = %v, want %v", rec.Kind, e, got, exp)
			}
		}
	}
	custom := NewAnxietyRecord(customModel{})
	if custom.Kind != "custom" {
		t.Fatalf("custom model classified as %q", custom.Kind)
	}
	if _, err := custom.Model(); err == nil {
		t.Fatal("custom anxiety record replayed")
	}
}

type customModel struct{}

func (customModel) Anxiety(float64) float64 { return 0.5 }

// TestLogOpenAppendRead also covers the mixed log a daemon upgraded
// mid-log leaves behind: a schema-1 line written by the old binary,
// then schema-2 records appended to the same file.
func TestLogOpenAppendRead(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "audit")
	log, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.OpenFile(log.Path(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Write(readGolden(t, "record.golden.jsonl")); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	var b Builder
	goldenBuild(t, &b)
	if err := log.Append(&b, nil); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open appends, never truncates.
	log, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	goldenBuild(t, &b).Slot = 8
	if err := log.Append(&b, nil); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile(log.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Slot != 7 || recs[1].Slot != 7 || recs[2].Slot != 8 {
		t.Fatalf("read back %d records: %+v", len(recs), recs)
	}
	if recs[0].Schema != 1 || recs[1].Schema != 2 || recs[2].Schema != 2 {
		t.Fatalf("schemas %d %d %d, want 1 2 2", recs[0].Schema, recs[1].Schema, recs[2].Schema)
	}
	if string(recs[0].DecisionCanonical) != string(recs[1].DecisionCanonical) {
		t.Fatal("the two layouts of the fixed instance disagree on its decision")
	}
	diverged, err := ReplayAll(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diverged != 0 {
		t.Fatalf("%d records diverged", diverged)
	}
}

// failAfter passes its first n writes through to w and fails every
// write after them, as a disk that fills up partway through a line does.
type failAfter struct {
	w      io.Writer
	n      int
	passed int // bytes written through
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errors.New("no space left on device")
	}
	f.n--
	f.passed += len(p)
	return f.w.Write(p)
}

// TestTornLineIsCut: a line that stops partway never has the next
// record glued onto it. When a write fails after the line's first piece
// reached the file, the piece is cut off at once; when that cut fails
// too, the log refuses lines until it succeeds; and a fragment a killed
// process left is cut when the log is opened again. Every complete
// record reads back.
func TestTornLineIsCut(t *testing.T) {
	dir := t.TempDir()
	log, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		t.Helper()
		info, err := os.Stat(log.Path())
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	var small, large Builder
	appendSlot := func(slot int) {
		t.Helper()
		goldenBuild(t, &small).Slot = slot
		if err := log.Append(&small, nil); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	cfg, reqs, dec := sharedWindowInstance(t, 400)
	large.Build(9, "vc", cfg, reqs, dec)
	appendSlot(7)
	whole := size()

	file := log.w
	failing := &failAfter{w: file, n: 1}
	log.w = failing
	if err := log.Append(&large, nil); err == nil || failing.passed == 0 {
		t.Fatalf("a write failing after %d bytes of the line: err %v, want the write's error after a piece went out", failing.passed, err)
	}
	if size() != whole {
		t.Fatalf("the log holds %d bytes after a torn line, want the %d it held before", size(), whole)
	}

	cut := log.cut
	log.cut = func() error { return errors.New("read-only file system") }
	log.w = &failAfter{w: file, n: 1}
	if err := log.Append(&large, nil); err == nil {
		t.Fatal("a torn line that could not be cut: no error")
	}
	torn := size()
	log.w = file
	goldenBuild(t, &small)
	if err := log.Append(&small, nil); err == nil || size() != torn {
		t.Fatalf("a line appended after a torn one that is still there: err %v, log %d -> %d bytes", err, torn, size())
	}
	log.cut = cut
	appendSlot(8)

	line, err := large.rec.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write(line[:len(line)/2]); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if log, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	appendSlot(10)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var slots []int
	if err := EachFile(log.Path(), func(rec *Record) error {
		slots = append(slots, rec.Slot)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(slots) != "[7 8 10]" {
		t.Fatalf("read back the records of slots %v, want [7 8 10]", slots)
	}
}

func TestReadAllRejectsMalformed(t *testing.T) {
	rec := goldenRecord(t)
	line, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	in := string(line) + "\n\n{not json}\n"
	if _, err := ReadAll(strings.NewReader(in)); err == nil {
		t.Fatal("malformed line accepted")
	}
	// Blank lines alone are fine.
	recs, err := ReadAll(strings.NewReader("\n" + string(line) + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
}

func TestUnknownDisplayTypeFailsReplay(t *testing.T) {
	rec := goldenRecord(t)
	rec.Requests[0].DisplayType = "CRT"
	if _, err := rec.Replay(); err == nil {
		t.Fatal("unknown display type replayed")
	}
	if _, err := rec.SchedulerRequests(); err == nil {
		t.Fatal("unknown display type rebuilt")
	}
}

// TestReplayMatchesWarmDecisions covers the scratch-reuse compatibility
// contract: records written from a pool's decisions — each slot solved
// in the scratch the slot before it left, unchanged slots and a one-
// device change among them — must replay byte for byte through the
// fresh scheduler Replay rebuilds. Divergence here would mean reused
// scratch leaked from one slot into the next.
func TestReplayMatchesWarmDecisions(t *testing.T) {
	server, err := edge.NewServer(1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := scheduler.NewPool(scheduler.Config{SlotSec: 30, Lambda: 1, Server: server}, scheduler.PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := pool.Scheduler()
	reqs := []scheduler.Request{
		fixedRequest("dev-a", false, 0.30, 0.30),
		fixedRequest("dev-b", true, 0.15, 0.25),
		fixedRequest("dev-c", false, 0.80, 0.40),
	}
	var recs []*Record
	for slot := 0; slot < 4; slot++ {
		if slot == 2 {
			// Partial churn: dev-b's battery moved.
			reqs[1].EnergyFrac = 0.22
		}
		var res scheduler.PoolResult
		if err := pool.DecideInto(context.Background(), []scheduler.VC{{ID: "vc", Requests: reqs}}, &res); err != nil {
			t.Fatal(err)
		}
		dec := res.Decision()
		recs = append(recs, NewRecord(slot, "vc", s.Config(), reqs, dec))
	}
	diverged, err := ReplayAll(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diverged != 0 {
		t.Fatalf("%d pool records diverged on cold replay", diverged)
	}
}
