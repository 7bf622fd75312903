package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"lpvs/internal/testenv"
)

func sampleReports() []ReportRequest {
	return []ReportRequest{
		{
			DeviceID: "dev-0001", DisplayType: "OLED",
			Width: 1920, Height: 1080, DiagonalInch: 6, Brightness: 0.6,
			EnergyFrac: 0.42, BatteryCapacityJ: 50_000, BasePowerW: 0.4,
		},
		{
			DeviceID: "dev-0002", ChannelID: "music", DisplayType: "LCD",
			Width: 1280, Height: 720, DiagonalInch: 5.5, Brightness: 0.8,
			EnergyFrac: 0.07, BatteryCapacityJ: 39_960, BasePowerW: 0.55,
		},
		{
			DeviceID: "dev-0003", ChannelID: "gaming", DisplayType: "OLED",
			Width: 2400, Height: 1080, DiagonalInch: 6.7, Brightness: 1,
			EnergyFrac: 0.99, BatteryCapacityJ: 64_800, BasePowerW: 0.31,
		},
	}
}

// fleetReports returns n distinct reports, the shape of a fleet's slot:
// both display types over eight channels. At 10,000 records the frame
// is 720,010 bytes, which append alone would leave in an 884,736-byte
// array.
func fleetReports(n int) []ReportRequest {
	reqs := make([]ReportRequest, n)
	for i := range reqs {
		r := sampleReports()[i%3]
		r.DeviceID = fmt.Sprintf("dev-%05d", i)
		r.ChannelID = fmt.Sprintf("ch-%03d", i%8)
		r.EnergyFrac = 0.05 + 0.9*float64(i)/float64(n)
		reqs[i] = r
	}
	return reqs
}

// TestAppendFrameAllocs holds the encoder to one allocation per fresh
// frame: it reserves the frame's exact size before its first byte, so
// a fresh dst is allocated once, with less than one 8 KiB page
// of slack however large the frame, and a reused dst with room is not
// allocated at all.
func TestAppendFrameAllocs(t *testing.T) {
	reqs := fleetReports(10_000)
	frame, err := AppendBatch(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != EncodedBatchSize(reqs) {
		t.Fatalf("encoded %d bytes, EncodedBatchSize says %d", len(frame), EncodedBatchSize(reqs))
	}
	if slack := cap(frame) - len(frame); slack >= 8<<10 {
		t.Fatalf("a %d-byte frame has a capacity of %d: %d bytes of growth slack", len(frame), cap(frame), slack)
	}
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		name string
		want float64
		f    func()
	}{
		{"AppendBatch(nil, 10,000 records)", 1, func() { frame, _ = AppendBatch(nil, reqs) }},
		{"AppendBatch into a reused dst", 0, func() { frame, _ = AppendBatch(frame[:0], reqs) }},
	} {
		if got := testing.AllocsPerRun(10, tc.f); got != tc.want {
			t.Errorf("%s allocates %.0f, want %.0f", tc.name, got, tc.want)
		}
	}
}

// BenchmarkAppendBatch frames a 10,000-record batch into a fresh dst
// (one allocation of the exact frame) and into a reused one (none).
func BenchmarkAppendBatch(b *testing.B) {
	reqs := fleetReports(10_000)
	for _, bc := range []struct {
		name   string
		reused bool
	}{{"fresh", false}, {"reused", true}} {
		b.Run(bc.name, func(b *testing.B) {
			var dst []byte
			if bc.reused {
				dst, _ = AppendBatch(nil, reqs)
			}
			b.ReportAllocs()
			b.SetBytes(int64(EncodedBatchSize(reqs)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !bc.reused {
					dst = nil
				}
				var err error
				if dst, err = AppendBatch(dst[:0], reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestBatchRoundTrip(t *testing.T) {
	reqs := sampleReports()
	buf, err := AppendBatch(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != EncodedBatchSize(reqs) {
		t.Fatalf("encoded %d bytes, EncodedBatchSize says %d", len(buf), EncodedBatchSize(reqs))
	}
	got, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}
	// Canonicality: re-encoding the decode reproduces the input bytes.
	again, err := AppendBatch(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, buf) {
		t.Fatal("re-encoded batch differs from original bytes")
	}
}

func TestEmptyBatch(t *testing.T) {
	buf, err := AppendBatch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch decoded %d records", len(got))
	}
}

func TestEncodeRefusals(t *testing.T) {
	bad := sampleReports()[0]
	bad.DisplayType = "EINK"
	if _, err := AppendBatch(nil, []ReportRequest{bad}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown display type encoded: %v", err)
	}
	long := sampleReports()[0]
	long.DeviceID = strings.Repeat("x", MaxStringBytes+1)
	if _, err := AppendBatch(nil, []ReportRequest{long}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized device ID encoded: %v", err)
	}
	// A bad record inside a batch leaves dst untouched.
	prefix := []byte("keep")
	out, err := AppendBatch(prefix, []ReportRequest{sampleReports()[0], bad})
	if err == nil {
		t.Fatal("batch with unencodable record accepted")
	}
	if !bytes.Equal(out, prefix) {
		t.Fatalf("failed batch encode left %d bytes", len(out))
	}
}

// TestDecodeFailClosed drives the adversarial table: every truncation
// point and a bit flip in every byte must yield a typed error, never a
// panic or partial success.
func TestDecodeFailClosed(t *testing.T) {
	buf, err := AppendBatch(nil, sampleReports())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeBatch(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		} else if !isWireError(err) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		dec, err := DecodeBatch(mut)
		if err != nil {
			if !isWireError(err) {
				t.Fatalf("bitflip at %d: untyped error %v", i, err)
			}
			continue
		}
		// A flip that still decodes must decode to *different* content
		// that re-encodes to the mutated bytes (float payload bits and
		// ID bytes are opaque): canonicality, not silent corruption.
		again, err := AppendBatch(nil, dec)
		if err != nil || !bytes.Equal(again, mut) {
			t.Fatalf("bitflip at %d: decode/re-encode not canonical (%v)", i, err)
		}
	}
}

// kindOneFrame frames r as a kind-1 message: the batch header's kind
// byte set to 1 and no record count, then the one record.
func kindOneFrame(tb testing.TB, r ReportRequest) []byte {
	tb.Helper()
	batch, err := AppendBatch(nil, []ReportRequest{r})
	if err != nil {
		tb.Fatal(err)
	}
	frame := append(batch[:headerBytes-1:headerBytes-1], 1)
	return append(frame, batch[headerBytes+4:]...)
}

func isWireError(err error) bool {
	for _, s := range []error{ErrTruncated, ErrBadMagic, ErrVersion, ErrKind, ErrCorrupt} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

func TestDecodeRejectsVersionAndKindSkew(t *testing.T) {
	buf, _ := AppendBatch(nil, sampleReports()[:1])
	v := append([]byte(nil), buf...)
	v[4] = Version + 1
	if _, err := DecodeBatch(v); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version accepted: %v", err)
	}
	k := append([]byte(nil), buf...)
	k[5] = 9
	if _, err := DecodeBatch(k); !errors.Is(err, ErrKind) {
		t.Fatalf("unknown kind accepted: %v", err)
	}
	if _, err := DecodeBatch(kindOneFrame(t, sampleReports()[0])); !errors.Is(err, ErrKind) {
		t.Fatalf("kind-1 frame accepted: %v", err)
	}
	m := append([]byte(nil), buf...)
	m[0] = 'X'
	if _, err := DecodeBatch(m); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	buf, _ := AppendBatch(nil, sampleReports())
	if _, err := DecodeBatch(append(buf, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

func TestDecodeRejectsHugeCount(t *testing.T) {
	buf, _ := AppendBatch(nil, nil)
	// Stamp a count beyond MaxCount into the header.
	buf[6], buf[7], buf[8], buf[9] = 0xff, 0xff, 0xff, 0xff
	if _, err := DecodeBatch(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge count accepted: %v", err)
	}
}

// TestStreamingDecode verifies records decode as they arrive: a reader
// that trickles one byte at a time still decodes, and the decoder
// consumes exactly the framed bytes.
func TestStreamingDecode(t *testing.T) {
	reqs := sampleReports()
	buf, _ := AppendBatch(nil, reqs)
	d := NewDecoder(iotest(buf))
	_, count, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var rep ReportRequest
	for i := 0; i < count; i++ {
		if err := d.Next(&rep); err != nil {
			t.Fatal(err)
		}
		if rep != reqs[i] {
			t.Fatalf("record %d mismatch: %+v", i, rep)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if d.BytesRead() != int64(len(buf)) {
		t.Fatalf("consumed %d of %d bytes", d.BytesRead(), len(buf))
	}
}

// iotest returns a reader yielding one byte per Read call.
func iotest(b []byte) io.Reader { return &oneByteReader{b: b} }

type oneByteReader struct{ b []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	p[0] = r.b[0]
	r.b = r.b[1:]
	return 1, nil
}

// TestInterningReusesStrings proves the steady-state contract: a
// Reset-reused decoder returns the same string instances for repeated
// IDs and allocates nothing per record once warm.
func TestInterningReusesStrings(t *testing.T) {
	reqs := sampleReports()
	buf, _ := AppendBatch(nil, reqs)
	d := NewDecoder(bytes.NewReader(buf))
	first := make([]string, len(reqs))
	var rep ReportRequest
	if _, _, err := d.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if err := d.Next(&rep); err != nil {
			t.Fatal(err)
		}
		first[i] = rep.DeviceID
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(buf)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(buf)
		d.Reset(r)
		if _, _, err := d.Begin(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(reqs); i++ {
			if err := d.Next(&rep); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm decode allocates %.1f per batch, want 0", allocs)
	}
	// String identity: the interned ID is the same backing string.
	d.Reset(bytes.NewReader(buf))
	if _, _, err := d.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := d.Next(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.DeviceID != first[0] {
		t.Fatalf("interned ID %q != %q", rep.DeviceID, first[0])
	}
}

func TestDecoderOverreadFails(t *testing.T) {
	buf, _ := AppendBatch(nil, sampleReports()[:1])
	d := NewDecoder(bytes.NewReader(buf))
	var rep ReportRequest
	if err := d.Next(&rep); err != nil {
		t.Fatal(err)
	}
	if err := d.Next(&rep); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overread returned %v", err)
	}
}
