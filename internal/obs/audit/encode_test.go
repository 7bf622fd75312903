package audit

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lpvs/internal/anxiety"
	"lpvs/internal/edge"
	"lpvs/internal/scheduler"
	"lpvs/internal/video"
)

// referenceEncode is the writer AppendJSON replaced, kept here as the
// reference every test of the append encoder compares against: the
// record through a json.Encoder, struct tags and all.
func referenceEncode(rec *Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkEncode holds rec.Encode to the reference: the same bytes, or an
// error exactly when json.Encoder refuses the record.
func checkEncode(t *testing.T, what string, rec *Record) []byte {
	t.Helper()
	want, wantErr := referenceEncode(rec)
	got, err := rec.Encode()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: Encode error %v, json.Encoder error %v", what, err, wantErr)
	case err != nil && got != nil:
		t.Fatalf("%s: Encode returned %d bytes with its error", what, len(got))
	case !bytes.Equal(got, want):
		t.Fatalf("%s: Encode differs from json.Encoder:\ngot:  %s\nwant: %s", what, got, want)
	}
	return got
}

// appendLine appends the record b last built to a log over a buffer,
// with a tee, and returns what the log got once the tee is checked to
// have got the same.
func appendLine(t *testing.T, b *Builder) ([]byte, error) {
	t.Helper()
	var log, tee bytes.Buffer
	err := NewWriter(&log).Append(b, &tee)
	if !bytes.Equal(log.Bytes(), tee.Bytes()) {
		t.Fatalf("the tee got %d bytes, the log %d", tee.Len(), log.Len())
	}
	return log.Bytes(), err
}

// fullRecord has every field of every record type set — both layouts
// at once, which Verify would refuse but the encoder must still write
// as encoding/json does.
func fullRecord() *Record {
	rec := seedRecord()
	rec.Seed, rec.UnixSec, rec.TraceID = 42, 1754400000.5, "00000000deadbeef"
	rec.Config.Anxiety.Warning = 0.25
	chunk := ChunkRecord{Index: 1, DurationSec: 10, BitrateKbps: 4000, MeanLuma: 0.4, PeakLuma: 0.8, MeanR: 0.35, MeanG: 0.45, MeanB: 0.25}
	rec.Windows = [][]ChunkRecord{{chunk, chunk}, nil, {}}
	rec.Requests = []RequestRecord{{
		Device: "dev-a", DisplayType: "OLED", Width: 1280, Height: 720, DiagonalInch: 6, Brightness: 0.6,
		EnergyFrac: 0.3, BatteryCapacityJ: 50000, BasePowerW: 0.9, Gamma: 0.3,
		Anxiety: &AnxietyRecord{Kind: "rescaled", AnxietyAtWarning: 0.72, ConvexPower: 2.2, ConcavePower: 1.6, Warning: 0.3},
		Window:  windowIndex(0),
		Chunks:  []ChunkRecord{chunk},
	}, {Device: "dev-b"}}
	rec.Degraded = &DegradedRecord{Phase1Greedy: true, Phase2Skipped: true}
	rec.Verdicts = []VerdictRecord{{Device: "dev-a", Verdict: scheduler.Verdict{
		Selected: true, Eligible: true, Reason: scheduler.ReasonPhase1,
		AnxietyBefore: 0.5367230083141112, AnxietyAfter: 0.5378754593495548, Gamma: 0.3, SavingFrac: 0.00033319999999999997,
	}}, {Device: "dev-b"}}
	rec.Spans = []StageSpan{{Name: "compact", DurSec: 0.001}, {Name: "phase1"}}
	return rec
}

// leaves collects every settable scalar reachable from v, through
// structs, slices and non-nil pointers. A CanonicalText is one scalar:
// it is written as a string.
func leaves(v reflect.Value, out *[]reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), out)
		}
	case reflect.Slice:
		if v.Type() == reflect.TypeOf(CanonicalText(nil)) {
			*out = append(*out, v)
			return
		}
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), out)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			leaves(v.Elem(), out)
		}
	default:
		*out = append(*out, v)
	}
}

// TestAppendJSONMatchesEncoderFieldByField perturbs every scalar of a
// fully populated record, one at a time, to the values encoding/json
// treats specially — the omitempty zero, an exponent-form float, NaN
// and the infinities, a string needing every kind of escape — and
// holds each result to json.Encoder. A field the appender forgot, or
// wrote under the wrong key or rule, differs on at least one of them.
func TestAppendJSONMatchesEncoderFieldByField(t *testing.T) {
	rec := fullRecord()
	checkEncode(t, "full record", rec)
	var fields []reflect.Value
	leaves(reflect.ValueOf(rec).Elem(), &fields)
	floats := 0
	for i, f := range fields {
		old := reflect.ValueOf(f.Interface())
		what := func(v any) string { return fmt.Sprintf("scalar %d (%s) = %v", i, f.Kind(), v) }
		switch f.Kind() {
		case reflect.Float64:
			floats++
			for _, x := range []float64{0, math.Copysign(0, -1), 1e-7, -9.99e20, 1e21, 5e-324, math.NaN(), math.Inf(1), math.Inf(-1)} {
				f.SetFloat(x)
				checkEncode(t, what(x), rec)
			}
		case reflect.String:
			for _, s := range []string{"", "a\"b\\c<d>&e\n\t\x01\x7f\xff\xe2\x80\xa8\xc3\xa9"} {
				f.SetString(s)
				checkEncode(t, what(s), rec)
			}
		case reflect.Slice: // a CanonicalText
			for _, s := range []string{"", "a\"b\\c<d>&e\n\t\x01\x7f\xff\xe2\x80\xa8\xc3\xa9"} {
				f.SetBytes([]byte(s))
				checkEncode(t, what(s), rec)
			}
			f.SetBytes(nil)
			checkEncode(t, what(nil), rec)
		case reflect.Int, reflect.Int64:
			for _, n := range []int64{0, -7, math.MaxInt64} {
				f.SetInt(n)
				checkEncode(t, what(n), rec)
			}
		case reflect.Bool:
			f.SetBool(!f.Bool())
			checkEncode(t, what(f.Bool()), rec)
		default:
			t.Fatalf("scalar %d has kind %s, which this test does not perturb", i, f.Kind())
		}
		f.Set(old)
	}
	if floats < 40 {
		t.Fatalf("walked %d float fields of the full record, expected every one of them (40+)", floats)
	}

	// Slice and pointer shapes: nil against empty, and what omitempty
	// does with each.
	for name, edit := range map[string]func(r *Record){
		"nil requests":      func(r *Record) { r.Requests = nil },
		"empty requests":    func(r *Record) { r.Requests = []RequestRecord{} },
		"nil verdicts":      func(r *Record) { r.Verdicts = nil },
		"empty verdicts":    func(r *Record) { r.Verdicts = []VerdictRecord{} },
		"nil windows":       func(r *Record) { r.Windows = nil },
		"empty windows":     func(r *Record) { r.Windows = [][]ChunkRecord{} },
		"one nil window":    func(r *Record) { r.Windows = [][]ChunkRecord{nil} },
		"nil spans":         func(r *Record) { r.Spans = nil },
		"empty spans":       func(r *Record) { r.Spans = []StageSpan{} },
		"no degradation":    func(r *Record) { r.Degraded = nil },
		"empty degradation": func(r *Record) { r.Degraded = &DegradedRecord{} },
		"phase-2 only":      func(r *Record) { r.Degraded = &DegradedRecord{Phase2Skipped: true} },
		"phase-1 only":      func(r *Record) { r.Degraded = &DegradedRecord{Phase1Greedy: true} },
		"bare request": func(r *Record) {
			r.Requests[0].Anxiety, r.Requests[0].Window, r.Requests[0].Chunks = nil, nil, nil
		},
		"empty inline chunks": func(r *Record) { r.Requests[0].Chunks = []ChunkRecord{} },
	} {
		edited := fullRecord()
		edit(edited)
		checkEncode(t, name, edited)
	}
}

// TestCheckedInLinesReencode: every record line in the repository —
// the three fixtures here and the schema-1 session log in testdata/v1 —
// decodes and re-encodes to its own bytes. They were all written by
// json.Encoder, two of them by builds that no longer exist.
func TestCheckedInLinesReencode(t *testing.T) {
	lines := 0
	for _, path := range []string{
		filepath.Join("testdata", "record.golden.jsonl"),
		filepath.Join("testdata", "record.v2.golden.jsonl"),
		filepath.Join("testdata", nodeCappedFixture),
		filepath.Join("testdata", "v1", FileName),
	} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, maxLine)
		for n := 1; sc.Scan(); n++ {
			rec, err := Decode(sc.Bytes())
			if err != nil {
				t.Fatalf("%s:%d: %v", path, n, err)
			}
			got := checkEncode(t, fmt.Sprintf("%s:%d", path, n), rec)
			if want := append(bytes.Clone(sc.Bytes()), '\n'); !bytes.Equal(got, want) {
				t.Fatalf("%s:%d does not re-encode to its own bytes:\ngot:  %s\nwant: %s", path, n, got, want)
			}
			lines++
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		f.Close()
	}
	if lines != 9 {
		t.Fatalf("re-encoded %d lines, want 9 (3 fixtures + the 6-slot v1 log)", lines)
	}
}

// TestEncodeRefusesNaN: a record holding a float with no JSON form
// fails in both encoders, and a log it is appended to gets no byte.
func TestEncodeRefusesNaN(t *testing.T) {
	cfg, reqs, dec := fixedInstance(t)
	reqs[1].EnergyFrac = math.NaN()
	var b Builder
	rec := b.Build(1, "vc", cfg, reqs, dec)
	if line, err := appendLine(t, &b); err != ErrNoJSONFloat || len(line) != 0 {
		t.Fatalf("Writer.Append of a NaN energy: %d bytes, err %v; want nothing and ErrNoJSONFloat", len(line), err)
	}
	if line, err := rec.AppendJSON([]byte("kept")); err == nil || string(line) != "kept" {
		t.Fatalf("AppendJSON of a NaN energy returned %q, err %v; want dst back and an error", line, err)
	}
	if line, err := rec.Encode(); err == nil {
		t.Fatalf("Record.Encode accepted a NaN energy: %d bytes", len(line))
	}
	checkEncode(t, "NaN energy", rec)
}

// TestBuilderReuseMatchesNewRecord is the stale-state check: one
// Builder driven through batches that grow, shrink, change windows,
// arrive unsorted, carry a per-request anxiety model, degrade and go
// empty must stream for each the bytes a fresh NewRecord encodes, and
// AppendJSON of its own record. Two batches make lines that leave the
// builder's buffer in pieces: a large one, and one whose device IDs are
// longer than a string piece and cut across multi-byte runes.
func TestBuilderReuseMatchesNewRecord(t *testing.T) {
	s, err := scheduler.New(scheduler.Config{SlotSec: 30, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	window := func(seed int) []video.Chunk {
		w := append([]video.Chunk(nil), fixedRequest("", false, 0, 0).Chunks...)
		for i := range w {
			w[i].BitrateKbps += seed
		}
		return w
	}
	winA, winB := window(1), window(2)
	batch := func(n int, windows ...[]video.Chunk) []scheduler.Request {
		reqs := make([]scheduler.Request, n)
		for i := range reqs {
			reqs[i] = fixedRequest(fmt.Sprintf("dev-%03d", i), i%2 == 0, 0.1+0.8*float64(i%17)/17, 0.2+0.01*float64(i%7))
			reqs[i].Chunks = windows[i%len(windows)]
		}
		return reqs
	}
	personal, err := anxiety.NewRescaled(anxiety.NewCanonical(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	unsorted := batch(9, winB, winA)
	unsorted[0], unsorted[7] = unsorted[7], unsorted[0]
	unsorted[2], unsorted[3] = unsorted[3], unsorted[2]
	withAnxiety := batch(6, winA)
	withAnxiety[1].Anxiety, withAnxiety[4].Anxiety = personal, anxiety.NewCanonical()
	longIDs := batch(5, winA, winB)
	for i := range longIDs {
		longIDs[i].DeviceID = fmt.Sprintf("%d<", i) + strings.Repeat("é", 1500) + "\u2028&"
	}
	// Schedulers under other configs: the builder rehashes a config only
	// when its JSON changes, -0 against 0 included.
	other := func(cfg scheduler.Config) *scheduler.Scheduler {
		o, err := scheduler.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	bounded := other(scheduler.Config{SlotSec: 30, Lambda: 2, Server: &edge.Server{ComputeCapacity: 9, StorageCapacityMB: 900}})
	noLambda := other(scheduler.Config{SlotSec: 30})
	negZeroLambda := other(scheduler.Config{SlotSec: 30, Lambda: math.Copysign(0, -1)})

	type step struct {
		name     string
		reqs     []scheduler.Request
		degraded scheduler.Degradation
		before   func()
		sched    *scheduler.Scheduler // nil: s
	}
	steps := []step{
		{name: "small", reqs: batch(5, winA, winB)},
		{name: "grown", reqs: batch(40, winA, winB)},
		{name: "shrunk onto the second window only", reqs: batch(3, winB)},
		// The same slice, new content: what an address handed to another
		// window looks like to a table keyed on slice identity.
		{name: "window rewritten in place", reqs: batch(4, winB, winA), before: func() { winB[1].BitrateKbps += 500 }},
		{name: "three private windows", reqs: batch(7, window(3), window(4), window(3))},
		{name: "unsorted", reqs: unsorted},
		{name: "per-request anxiety", reqs: withAnxiety},
		{name: "anxiety gone", reqs: batch(6, winA)},
		{name: "degraded", reqs: batch(8, winA, winB), degraded: scheduler.Degradation{Phase1Greedy: true, Phase2Skipped: true}},
		{name: "half degraded", reqs: batch(8, winA, winB), degraded: scheduler.Degradation{Phase2Skipped: true}},
		{name: "full solve again", reqs: batch(8, winA, winB)},
		{name: "large", reqs: batch(1500, winA, winB)},
		{name: "long multi-byte IDs", reqs: longIDs},
		{name: "empty", reqs: nil},
		{name: "after empty", reqs: batch(2, winB)},
		{name: "config changed", reqs: batch(8, winA, winB), sched: bounded},
		{name: "config back", reqs: batch(8, winA, winB)},
		{name: "lambda 0", reqs: batch(3, winA), sched: noLambda},
		{name: "lambda -0", reqs: batch(3, winA), sched: negZeroLambda},
	}
	var b Builder
	var kept *Record
	for slot, st := range steps {
		if st.before != nil {
			st.before()
		}
		sched := s
		if st.sched != nil {
			sched = st.sched
		}
		var dec scheduler.Decision
		if st.degraded.Any() {
			dec, err = sched.ScheduleDegraded(st.reqs, st.degraded)
		} else {
			dec, err = sched.Schedule(st.reqs)
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		stamp := func(r *Record) *Record {
			r.Seed, r.UnixSec, r.TraceID = 7, 1754400000.25+float64(slot), fmt.Sprintf("%016x", slot)
			return r
		}
		want := checkEncode(t, st.name, stamp(NewRecord(slot, "vc", sched.Config(), st.reqs, dec)))
		rec := stamp(b.Build(slot, "vc", sched.Config(), st.reqs, dec))
		got, err := appendLine(t, &b)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: reused builder differs from a fresh NewRecord:\ngot:  %s\nwant: %s", st.name, got, want)
		}
		if direct, err := rec.AppendJSON(nil); err != nil || !bytes.Equal(got, direct) {
			t.Fatalf("%s: the streamed line differs from AppendJSON of the same record (err %v)", st.name, err)
		}
		decoded, err := Decode(bytes.TrimSpace(got))
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if res, err := decoded.Replay(); err != nil || !res.Match {
			t.Fatalf("%s: built record does not replay: %v", st.name, err)
		}
		// The lifetime rule, pinned rather than assumed: Build hands out
		// the builder's one record, so a pointer kept from an earlier
		// Build now reads this one.
		if kept != nil && (kept != rec || kept.Slot != slot) {
			t.Fatalf("%s: a record kept across Build did not alias the new one (slot %d)", st.name, kept.Slot)
		}
		kept = rec
	}
}

// TestEncodeSizeHintCoversTheLine: Record.Encode sizes its one slice
// from sizeHint, so the estimate has to cover the line — a short one
// costs a copy of the whole line on the cold path — without being
// wildly over it.
func TestEncodeSizeHintCoversTheLine(t *testing.T) {
	cfg, reqs, dec := sharedWindowInstance(t, 500)
	for i := range reqs {
		// Full-width floats in every per-request position.
		reqs[i].Display.DiagonalInch = 5 + 1/float64(i+3)
		reqs[i].Display.Brightness = 1 / float64(i+3)
		reqs[i].BatteryCapacityJ = 40000 + 1/float64(i+7)
		reqs[i].BasePowerW = 2.0 / float64(i+3)
	}
	records := map[string]*Record{"full-width floats": NewRecord(1, "vc", cfg, reqs, dec)}
	for _, name := range []string{"record.golden.jsonl", "record.v2.golden.jsonl"} {
		rec, err := Decode(bytes.TrimSpace(readGolden(t, name)))
		if err != nil {
			t.Fatal(err)
		}
		records[name] = rec
	}
	for name, rec := range records {
		line, err := rec.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hint := rec.sizeHint()
		t.Logf("%s: %d-byte line, hint %d", name, len(line), hint)
		if len(line) > hint || hint > 2*len(line) {
			t.Errorf("%s: sizeHint %d for a %d-byte line, want between the line and twice it", name, hint, len(line))
		}
	}
}
