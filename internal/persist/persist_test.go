package persist

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lpvs/internal/anxiety"
	"lpvs/internal/bayes"
	"lpvs/internal/display"
	"lpvs/internal/scheduler"
	"lpvs/internal/video"
)

func testSpec(i int) display.Spec {
	ty := display.LCD
	if i%2 == 1 {
		ty = display.OLED
	}
	return display.Spec{
		Type:         ty,
		Resolution:   display.Res1080p,
		DiagonalInch: 5.5 + float64(i%4)*0.3,
		Brightness:   0.4 + float64(i%5)*0.1,
	}
}

func testEstimator(i int) bayes.Snapshot {
	return bayes.Snapshot{
		Mean:         bayes.DefaultGammaL + float64(i%7)*0.05,
		Sigma:        0.01 + float64(i%3)*0.02,
		ObsSigma:     bayes.DefaultObsSigma,
		Lo:           bayes.DefaultGammaL,
		Hi:           bayes.DefaultGammaU,
		Observations: i % 9,
	}
}

func testChunk(i int) video.Chunk {
	var c video.Chunk
	c.Index = i
	c.DurationSec = 2
	c.BitrateKbps = 4000 + 100*i
	c.Stats.MeanLuma = 0.3 + 0.01*float64(i%20)
	c.Stats.PeakLuma = 0.9
	c.Stats.MeanR = 0.4
	c.Stats.MeanG = 0.5
	c.Stats.MeanB = 0.2
	return c
}

func testRequest(i int, m anxiety.Model) scheduler.Request {
	r := scheduler.Request{
		DeviceID:         fmt.Sprintf("dev-%03d", i),
		Display:          testSpec(i),
		EnergyFrac:       0.1 + 0.01*float64(i%80),
		BatteryCapacityJ: 40000,
		BasePowerW:       1.2,
		Gamma:            0.2 + 0.001*float64(i%100),
		Anxiety:          m,
	}
	for j := 0; j < 3; j++ {
		r.Chunks = append(r.Chunks, testChunk(i*3+j))
	}
	return r
}

// snapshotTable returns named snapshots spanning the edge cases the
// payload schema must round-trip exactly.
func snapshotTable() map[string]*Snapshot {
	rescaled, err := anxiety.NewRescaled(anxiety.NewCanonical(), 0.4)
	if err != nil {
		panic(err)
	}
	big := &Snapshot{Slot: 123}
	for i := 0; i < 500; i++ {
		big.Devices = append(big.Devices, DeviceState{
			ID:        fmt.Sprintf("dev-%03d", i),
			Channel:   fmt.Sprintf("ch-%d", i%7),
			Display:   testSpec(i),
			Transform: i%3 == 0,
			Slot:      120 + i%3,
			Estimator: testEstimator(i),
		})
	}
	return map[string]*Snapshot{
		"empty":     {},
		"slot-only": {Slot: 42},
		"zero-observations": {Slot: 1, Devices: []DeviceState{{
			ID: "a", Channel: "live", Display: testSpec(0),
			Estimator: bayes.Snapshot{
				Mean: bayes.DefaultPriorMean, Sigma: bayes.DefaultPriorSigma,
				ObsSigma: bayes.DefaultObsSigma,
				Lo:       bayes.DefaultGammaL, Hi: bayes.DefaultGammaU,
			},
		}}},
		"extreme-gamma": {Slot: 9, Devices: []DeviceState{
			{ID: "lo", Display: testSpec(1), Estimator: bayes.Snapshot{
				Mean: bayes.DefaultGammaL, Sigma: 1e-9, ObsSigma: 1e-9,
				Lo: bayes.DefaultGammaL, Hi: bayes.DefaultGammaU, Observations: 1 << 30,
			}},
			{ID: "hi", Display: testSpec(2), Estimator: bayes.Snapshot{
				Mean: bayes.DefaultGammaU, Sigma: 1e6, ObsSigma: 12,
				Lo: bayes.DefaultGammaL, Hi: bayes.DefaultGammaU, Observations: 1,
			}},
		}},
		"many-devices": big,
		"pending": {Slot: 3, Pending: []scheduler.Request{
			testRequest(0, nil),
			testRequest(1, anxiety.NewCanonical()),
			testRequest(2, rescaled),
		}},
	}
}

// TestSnapshotRoundTrip asserts encode→decode→encode byte stability
// and structural equality across the edge-case table.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, snap := range snapshotTable() {
		t.Run(name, func(t *testing.T) {
			data, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			data2, err := back.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatalf("encode→decode→encode changed %d bytes", len(data2))
			}
			if back.Slot != snap.Slot {
				t.Fatalf("slot %d != %d", back.Slot, snap.Slot)
			}
			if len(back.Devices) != len(snap.Devices) || len(back.Pending) != len(snap.Pending) {
				t.Fatal("collection sizes changed in round trip")
			}
		})
	}
	// A file whose stream section holds entries decodes to the same
	// snapshot as one whose section is empty, and re-encodes to the
	// empty form.
	t.Run("streams", func(t *testing.T) {
		snap := snapshotTable()["pending"]
		want, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSnapshot(streamFile(t, snap))
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("a file with stream entries decoded to a different snapshot")
		}
	})
}

// TestSnapshotEncodeCanonical asserts encoding sorts map-order inputs:
// the same logical snapshot encodes to identical bytes regardless of
// slice order.
func TestSnapshotEncodeCanonical(t *testing.T) {
	a := &Snapshot{
		Slot: 5,
		Devices: []DeviceState{
			{ID: "b", Display: testSpec(0), Estimator: testEstimator(0)},
			{ID: "a", Display: testSpec(1), Estimator: testEstimator(1)},
		},
	}
	b := &Snapshot{
		Slot: 5,
		Devices: []DeviceState{
			{ID: "a", Display: testSpec(1), Estimator: testEstimator(1)},
			{ID: "b", Display: testSpec(0), Estimator: testEstimator(0)},
		},
	}
	da, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("encoding is order-sensitive; it must be canonical")
	}
}

// streamFile encodes snap the way snapshots written before the
// scheduler's warm start was removed were: with entries in the stream
// section (key, config signature, Phase-1 picks).
func streamFile(tb testing.TB, snap *Snapshot) []byte {
	tb.Helper()
	data, err := snap.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := DecodeContainer(data, StateKind, StateVersion)
	if err != nil {
		tb.Fatal(err)
	}
	e := Enc{b: append([]byte(nil), payload[:len(payload)-8]...)} // up to the stream count
	e.Uint64(2)
	for _, key := range []string{"alt", "live"} {
		e.String(key)
		e.Bytes([]byte{1, 2, 3})
		e.Uint64(2)
		e.String("a")
		e.String("b")
	}
	return EncodeContainer(StateKind, StateVersion, e.Data())
}

type customAnxiety struct{}

func (customAnxiety) Anxiety(float64) float64 { return 0.5 }

// TestSnapshotEncodeRefusesCustomAnxiety: a model that cannot be
// rebuilt from data must refuse to encode rather than silently drop.
func TestSnapshotEncodeRefusesCustomAnxiety(t *testing.T) {
	snap := &Snapshot{Pending: []scheduler.Request{testRequest(0, customAnxiety{})}}
	if _, err := snap.Encode(); err == nil {
		t.Fatal("encoding a custom anxiety model must fail")
	}
}

// TestPendingAnxietyRoundTrip pins the anxiety models' reconstruction.
func TestPendingAnxietyRoundTrip(t *testing.T) {
	rescaled, err := anxiety.NewRescaled(anxiety.NewCanonical(), 0.35)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Pending: []scheduler.Request{
		testRequest(0, nil),
		testRequest(1, anxiety.NewCanonical()),
		testRequest(2, rescaled),
	}}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Pending[0].Anxiety != nil {
		t.Fatal("nil anxiety did not round-trip to nil")
	}
	if !reflect.DeepEqual(back.Pending[1].Anxiety, anxiety.NewCanonical()) {
		t.Fatalf("canonical anxiety round trip: %#v", back.Pending[1].Anxiety)
	}
	if !reflect.DeepEqual(back.Pending[2].Anxiety, rescaled) {
		t.Fatalf("rescaled anxiety round trip: %#v", back.Pending[2].Anxiety)
	}
}

// TestContainerRoundTrip covers the envelope alone.
func TestContainerRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 4096)} {
		data := EncodeContainer("k", 3, payload)
		got, err := DecodeContainer(data, "k", 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload changed: %x != %x", got, payload)
		}
	}
}

// TestContainerAdversarial: every corruption class fails closed with
// its sentinel error and never panics.
func TestContainerAdversarial(t *testing.T) {
	valid := EncodeContainer(StateKind, StateVersion, []byte("payload-bytes"))

	t.Run("zero-length", func(t *testing.T) {
		if _, err := DecodeContainer(nil, StateKind, StateVersion); !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[0] ^= 0xFF
		if _, err := DecodeContainer(data, StateKind, StateVersion); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})
	t.Run("every-truncation", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			if _, err := DecodeContainer(valid[:n], StateKind, StateVersion); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
		}
	})
	t.Run("every-bitflip", func(t *testing.T) {
		for i := range valid {
			data := append([]byte(nil), valid...)
			data[i] ^= 0x01
			if _, err := DecodeContainer(data, StateKind, StateVersion); err == nil {
				t.Fatalf("flipping byte %d decoded successfully", i)
			}
		}
	})
	t.Run("checksum-flip", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[len(data)-1] ^= 0x01
		if _, err := DecodeContainer(data, StateKind, StateVersion); !errors.Is(err, ErrChecksum) {
			t.Fatalf("want ErrChecksum, got %v", err)
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		data := append(append([]byte(nil), valid...), 0xDE, 0xAD)
		if _, err := DecodeContainer(data, StateKind, StateVersion); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("container-version-skew", func(t *testing.T) {
		// A future container version must be rejected even with a valid
		// checksum: rebuild the trailer after bumping the version field.
		data := append([]byte(nil), valid[:len(valid)-checksumSize]...)
		var e Enc
		e.Uint64(ContainerVersion + 1)
		copy(data[len(Magic):], e.Data())
		data = sealContainer(data)
		if _, err := DecodeContainer(data, StateKind, StateVersion); !errors.Is(err, ErrVersion) {
			t.Fatalf("want ErrVersion, got %v", err)
		}
	})
	t.Run("payload-version-skew", func(t *testing.T) {
		data := EncodeContainer(StateKind, StateVersion+7, []byte("p"))
		if _, err := DecodeContainer(data, StateKind, StateVersion); !errors.Is(err, ErrVersion) {
			t.Fatalf("want ErrVersion, got %v", err)
		}
	})
	t.Run("kind-mismatch", func(t *testing.T) {
		data := EncodeContainer("other-kind", StateVersion, []byte("p"))
		if _, err := DecodeContainer(data, StateKind, StateVersion); !errors.Is(err, ErrKind) {
			t.Fatalf("want ErrKind, got %v", err)
		}
	})
	t.Run("huge-length-prefix", func(t *testing.T) {
		// A corrupted length prefix far beyond the input must fail the
		// bounds check, not attempt the allocation. Corrupt the payload
		// length field and re-seal so only the bounds check can object.
		data := append([]byte(nil), valid[:len(valid)-checksumSize]...)
		off := len(Magic) + 8 + 8 + len(StateKind) + 8
		var e Enc
		e.Uint64(math.MaxUint64 / 2)
		copy(data[off:], e.Data())
		data = sealContainer(data)
		if _, err := DecodeContainer(data, StateKind, StateVersion); !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
}

// sealContainer appends a fresh SHA-256 trailer over data.
func sealContainer(data []byte) []byte {
	sum := sha256.Sum256(data)
	return append(data, sum[:]...)
}

// TestSnapshotDecodeAdversarial flips and truncates a full snapshot
// encoding: decode must fail (or, for payload-interior mutations that
// cannot survive the checksum, fail) and never panic.
func TestSnapshotDecodeAdversarial(t *testing.T) {
	snap := snapshotTable()["pending"]
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n += 7 {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	for i := 0; i < len(data); i += 3 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("flipping byte %d decoded successfully", i)
		}
	}
}

// TestWriteFileAtomicCrashSafety: a torn temp file from an interrupted
// write must leave the previous snapshot loadable and not block the
// next write.
func TestWriteFileAtomicCrashSafety(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SnapshotFile)
	first := &Snapshot{Slot: 1, Devices: []DeviceState{{ID: "a", Display: testSpec(0), Estimator: testEstimator(0)}}}
	if err := first.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a half-written temp file next to the
	// real snapshot.
	valid, err := first.Encode()
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, SnapshotFile+".tmp-crashed")
	if err := os.WriteFile(torn, valid[:len(valid)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("previous snapshot unloadable after torn temp write: %v", err)
	}
	if back.Slot != 1 || len(back.Devices) != 1 {
		t.Fatal("previous snapshot content changed")
	}
	second := &Snapshot{Slot: 2}
	if err := second.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err = LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Slot != 2 {
		t.Fatalf("next write did not land: slot %d", back.Slot)
	}
}

// FuzzSnapshotDecode: no input may panic the decoder, and anything
// that decodes must re-encode byte-identically (canonical form) — up to
// a stream section with entries, which decoding drops. The corpus under
// testdata/fuzz holds such a file: the daemon snapshot
// internal/server/testdata/snapshot_parent.golden.
func FuzzSnapshotDecode(f *testing.F) {
	for _, snap := range snapshotTable() {
		data, err := snap.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	streams := streamFile(f, snapshotTable()["pending"])
	f.Add(streams)
	f.Add(streams[:len(streams)/2])
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		out, err := snap.Encode()
		if err != nil {
			t.Fatalf("decoded snapshot refused to re-encode: %v", err)
		}
		if bytes.Equal(out, data) {
			return
		}
		// Only a dropped stream section may differ: the payloads agree
		// up to the re-encoded one's empty stream count.
		in, _ := DecodeContainer(data, StateKind, StateVersion)
		re, _ := DecodeContainer(out, StateKind, StateVersion)
		head := len(re) - 8
		if len(in) <= len(re) || !bytes.Equal(in[:head], re[:head]) {
			t.Fatalf("decode→encode not byte-identical: %d vs %d bytes", len(out), len(data))
		}
	})
}

func benchSnapshot(n int) *Snapshot {
	s := &Snapshot{Slot: 77}
	for i := 0; i < n; i++ {
		s.Devices = append(s.Devices, DeviceState{
			ID:        fmt.Sprintf("dev-%05d", i),
			Channel:   "live",
			Display:   testSpec(i),
			Transform: i%2 == 0,
			Slot:      76,
			Estimator: testEstimator(i),
		})
	}
	for i := 0; i < n/10; i++ {
		s.Pending = append(s.Pending, testRequest(i, nil))
	}
	return s
}

func BenchmarkSnapshotEncode(b *testing.B) {
	s := benchSnapshot(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	data, err := benchSnapshot(1000).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSnapshot(data); err != nil {
			b.Fatal(err)
		}
	}
}
