package audit

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzAuditDecode hardens the JSONL decoder against arbitrary input:
// Decode must never panic, and anything it accepts — in either schema —
// must re-encode, to the bytes json.Encoder writes for it (the append
// encoder's differential, see referenceEncode), and decode to the same
// verified record. New seeds go after the first six, whose corpus names
// the gate pins.
func FuzzAuditDecode(f *testing.F) {
	valid, err := func() ([]byte, error) {
		rec := seedRecord()
		return rec.Encode()
	}()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":1}`))
	f.Add([]byte(`{"schema":1,"config_hash":"x","config":{}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"schema":1,"unknown_field":true}`))
	// One valid line per schema with requests in it, then each malformed
	// window layout Verify must refuse.
	for _, name := range []string{"record.golden.jsonl", "record.v2.golden.jsonl"} {
		line, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.TrimSpace(line))
	}
	for _, mutate := range []func(r *Record){
		func(r *Record) { r.Requests[0].Window = windowIndex(5) },
		func(r *Record) { r.Requests[0].Window = windowIndex(-1) },
		func(r *Record) { r.Requests[0].Window = nil },
		func(r *Record) { r.Requests[0].Chunks = r.Windows[0] },
		func(r *Record) { r.Schema = 1 },
		func(r *Record) { r.Windows = append(r.Windows, nil, []ChunkRecord{}) },
	} {
		rec := seedRecord()
		rec.Windows = [][]ChunkRecord{{{Index: 0, DurationSec: 10, BitrateKbps: 4000, MeanLuma: 0.4, PeakLuma: 0.8}}}
		rec.Requests = []RequestRecord{{Device: "d", DisplayType: "OLED", Window: windowIndex(0)}}
		mutate(rec)
		line, err := rec.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.TrimSpace(line))
	}
	// What the append encoder has to get right beyond plain fields:
	// escapes in every string position, exponent-form and negative-zero
	// floats, a nil window among the table's entries.
	tricky := seedRecord()
	tricky.VC, tricky.TraceID = "a\"b\\c<d>&\n\x01\x7f\xff\xe2\x80\xa8\xc3\xa9", "\t"
	tricky.UnixSec, tricky.Seed = 1e-7, -3
	tricky.Windows = [][]ChunkRecord{nil, {{DurationSec: 1e21, MeanLuma: 5e-324, PeakLuma: math.Copysign(0, -1)}}}
	tricky.Requests = []RequestRecord{{Device: "<d>", DisplayType: "LCD", Window: windowIndex(1), Gamma: -9.99e20}}
	tricky.Degraded = &DegradedRecord{}
	trickyLine, err := tricky.Encode()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Decode(bytes.TrimSpace(trickyLine)); err != nil {
		f.Fatalf("the escape-and-exponent seed is not a record Decode accepts: %v", err)
	}
	f.Add(bytes.TrimSpace(trickyLine))
	// A valid line with bytes after the record: a second value, and a
	// stray closing brace.
	f.Add(append(bytes.TrimSpace(valid), ` {"schema":99} garbage`...))
	f.Add(append(bytes.TrimSpace(valid), '}'))
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := Decode(line)
		if err != nil {
			return
		}
		if _, err := Decode(append(line[:len(line):len(line)], '}')); err == nil {
			t.Fatal("an accepted line still decodes with a '}' after it")
		}
		out := checkEncode(t, "accepted record", rec)
		if out == nil {
			t.Fatal("accepted record failed to re-encode")
		}
		again, err := Decode(bytes.TrimSpace(out))
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		out2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("encode/decode not idempotent:\n%s\n%s", out, out2)
		}
	})
}

func windowIndex(i int) *int { return &i }

// seedRecord builds a small valid record without testing.T plumbing.
func seedRecord() *Record {
	cfg := ConfigRecord{
		SlotSec:        30,
		Lambda:         1,
		Unbounded:      true,
		ExactThreshold: 220,
		MaxSwapPasses:  2,
		Anxiety:        AnxietyRecord{Kind: "canonical", AnxietyAtWarning: 0.72, ConvexPower: 2.2, ConcavePower: 1.6},
	}
	rec := &Record{
		Schema:            SchemaVersion,
		Slot:              1,
		VC:                "vc",
		Config:            cfg,
		Requests:          []RequestRecord{},
		DecisionCanonical: CanonicalText("selected=0 eligible=0 swaps=0 optimal=false phase1=0 objective=0\n"),
		Verdicts:          []VerdictRecord{},
	}
	rec.ConfigHash = cfg.Hash()
	return rec
}
