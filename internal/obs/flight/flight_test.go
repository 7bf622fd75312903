package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lpvs/internal/obs"
	"lpvs/internal/obs/history"
	"lpvs/internal/obs/slo"
	"lpvs/internal/persist"
)

type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestRecorder(t *testing.T, mut func(*Config)) (*Recorder, *testClock) {
	t.Helper()
	clk := &testClock{t: time.Unix(5000, 0)}
	cfg := Config{
		Dir:     t.TempDir(),
		Now:     clk.now,
		Version: "v0",
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, clk
}

func TestBundleRoundTrip(t *testing.T) {
	b := &Bundle{
		Schema:         BundleVersion,
		WrittenUnixSec: 123.5,
		Trigger:        TriggerManual,
		Reason:         "drill",
		Binary:         "lpvsd",
		ConfigHash:     "abc",
		Meta:           map[string]string{"restore_path": "cold"},
		AuditRecords:   []json.RawMessage{json.RawMessage(`{"schema":1}`)},
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trigger != TriggerManual || got.Reason != "drill" || got.Meta["restore_path"] != "cold" {
		t.Fatalf("round trip = %+v", got)
	}
	if string(got.AuditRecords[0]) != `{"schema":1}` {
		t.Fatalf("audit bytes changed: %q", got.AuditRecords[0])
	}
}

func TestBundleDecodeRejectsCorruption(t *testing.T) {
	b := &Bundle{Schema: BundleVersion, Trigger: TriggerManual}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the container checksum must catch it.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if _, err := DecodeBundle(bad); err == nil {
		t.Fatal("corrupted bundle decoded")
	}
	// Truncations must fail, not panic.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeBundle(data[:cut]); err == nil {
			t.Fatalf("truncated bundle (%d bytes) decoded", cut)
		}
	}
	// Wrong kind must fail.
	other := persist.EncodeContainer("other-kind", BundleVersion, []byte("{}"))
	if _, err := DecodeBundle(other); err == nil {
		t.Fatal("wrong-kind container decoded")
	}
}

// TestBundleDecodeTrailingBytes holds a bundle's payload to one JSON
// value: whitespace may follow it, nothing else may, even inside a
// container whose checksum is good.
func TestBundleDecodeTrailingBytes(t *testing.T) {
	payload, err := json.Marshal(&Bundle{Schema: BundleVersion, Trigger: TriggerManual, Reason: "drill"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tail string
		ok   bool
	}{
		{"", true},
		{" \t\r\n", true},
		{` {"schema":99} garbage`, false},
		{"}", false},
		{"\n" + string(payload), false},
	} {
		data := persist.EncodeContainer(BundleKind, BundleVersion, append(append([]byte(nil), payload...), tc.tail...))
		b, err := DecodeBundle(data)
		if (err == nil) != tc.ok {
			t.Errorf("payload + %q: error %v, want ok=%v", tc.tail, err, tc.ok)
		}
		if err == nil && b.Reason != "drill" {
			t.Errorf("payload + %q: decoded %+v", tc.tail, b)
		}
	}
}

func TestManualCaptureWritesBundle(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x_total", "X.").Add(5)
	hist := history.New(reg, history.Config{Window: time.Minute, Interval: time.Second})
	hist.Sample()

	r, _ := newTestRecorder(t, func(c *Config) {
		c.History = hist
		c.SLOStates = func() []slo.State { return []slo.State{{Name: "tick-latency"}} }
		c.Meta = func() map[string]string { return map[string]string{"k": "v"} }
	})
	r.NoteAudit([]byte(`{"schema":1,"slot":0}` + "\n"))

	path, err := r.Capture("drill")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger != TriggerManual || b.Reason != "drill" {
		t.Fatalf("bundle = %+v", b)
	}
	if len(b.History) == 0 || len(b.SLO) != 1 || b.Meta["k"] != "v" {
		t.Fatalf("bundle sections missing: history=%d slo=%d", len(b.History), len(b.SLO))
	}
	if len(b.AuditRecords) != 1 || string(b.AuditRecords[0]) != `{"schema":1,"slot":0}` {
		t.Fatalf("audit tail = %v", b.AuditRecords)
	}
	if got := r.BundlesWritten(); got != 1 {
		t.Fatalf("BundlesWritten = %d", got)
	}
	if p, ts := r.LastBundle(); p != path || ts == 0 {
		t.Fatalf("LastBundle = %q %v", p, ts)
	}
}

func TestSLOTransitionTriggerAndCooldown(t *testing.T) {
	r, clk := newTestRecorder(t, nil)
	alarm := slo.State{Name: "tick-latency", Alarming: true}
	clear := slo.State{Name: "tick-latency", Alarming: false}

	r.OnSLOTransition(alarm)
	if got := r.BundlesWritten(); got != 1 {
		t.Fatalf("bundles = %d after first alarm", got)
	}
	// Clearing never captures.
	r.OnSLOTransition(clear)
	// A flapping alarm inside the cooldown is suppressed.
	clk.advance(time.Second)
	r.OnSLOTransition(alarm)
	if got, sup := r.BundlesWritten(), r.Suppressed(); got != 1 || sup != 1 {
		t.Fatalf("bundles = %d suppressed = %d", got, sup)
	}
	// Past the cooldown it captures again.
	clk.advance(time.Minute)
	r.OnSLOTransition(alarm)
	if got := r.BundlesWritten(); got != 2 {
		t.Fatalf("bundles = %d after cooldown", got)
	}
	// Manual captures ignore the cooldown.
	if _, err := r.Capture("drill"); err != nil {
		t.Fatal(err)
	}
	if got := r.BundlesWritten(); got != 3 {
		t.Fatalf("bundles = %d after manual", got)
	}
}

func TestShedBurstTrigger(t *testing.T) {
	r, clk := newTestRecorder(t, nil)
	for i := 1; i < DefaultShedBurst; i++ {
		r.OnShed()
	}
	if got := r.BundlesWritten(); got != 0 {
		t.Fatalf("bundles = %d before burst", got)
	}
	r.OnShed()
	if got := r.BundlesWritten(); got != 1 {
		t.Fatalf("bundles = %d after burst", got)
	}
	// Sheds spread beyond the window never trip.
	for i := 0; i < 2*DefaultShedBurst; i++ {
		clk.advance(DefaultShedWindow)
		r.OnShed()
	}
	if got := r.BundlesWritten(); got != 1 {
		t.Fatalf("bundles = %d after slow sheds", got)
	}
}

func TestAuditTailRingBounded(t *testing.T) {
	r, _ := newTestRecorder(t, nil)
	const lines = DefaultAuditTail + 7
	for i := 0; i < lines; i++ {
		r.NoteAudit([]byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	path, err := r.Capture("tail")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.AuditRecords) != DefaultAuditTail {
		t.Fatalf("tail = %d records, want %d", len(b.AuditRecords), DefaultAuditTail)
	}
	// The newest DefaultAuditTail survive, oldest first.
	first, last := fmt.Sprintf(`{"i":%d}`, lines-DefaultAuditTail), fmt.Sprintf(`{"i":%d}`, lines-1)
	if string(b.AuditRecords[0]) != first || string(b.AuditRecords[DefaultAuditTail-1]) != last {
		t.Fatalf("tail runs %s..%s, want %s..%s", b.AuditRecords[0], b.AuditRecords[DefaultAuditTail-1], first, last)
	}
}

func TestBundleRotation(t *testing.T) {
	r, clk := newTestRecorder(t, nil)
	var last string
	for i := 0; i < DefaultMaxBundles+3; i++ {
		clk.advance(time.Second)
		p, err := r.Capture("n")
		if err != nil {
			t.Fatal(err)
		}
		last = p
	}
	paths, err := ListBundles(r.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != DefaultMaxBundles {
		t.Fatalf("retained %d bundles, want %d", len(paths), DefaultMaxBundles)
	}
	if paths[len(paths)-1] != last {
		t.Fatalf("newest bundle rotated away: %v vs %s", paths, last)
	}
}

func TestRegisterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	r, _ := newTestRecorder(t, nil)
	r.Register(reg)
	if _, err := r.Capture("m"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`lpvs_flight_bundles_total{trigger="manual"} 1`,
		"lpvs_flight_errors_total 0",
		"lpvs_flight_suppressed_total 0",
		"lpvs_flight_armed 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestCaptureErrorCounted(t *testing.T) {
	r, _ := newTestRecorder(t, nil)
	// Make the directory unwritable by replacing it with a file.
	if err := os.RemoveAll(r.Dir()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r.Dir(), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Capture("fail"); err == nil {
		t.Fatal("capture into a file path succeeded")
	}
	if got := r.Errors(); got != 1 {
		t.Fatalf("Errors = %d", got)
	}
}

func TestConcurrentTriggers(t *testing.T) {
	// The clock stands still: the automatic captures race for one
	// cooldown slot and the losers are counted as suppressed, while the
	// two shed goroutines still land inside one shed window.
	r, _ := newTestRecorder(t, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The two shed goroutines together shed one burst.
			for j := 0; j < DefaultShedBurst/2; j++ {
				switch i % 4 {
				case 0:
					r.NoteAudit([]byte(`{"schema":1}`))
				case 1:
					r.OnShed()
				case 2:
					r.OnSLOTransition(slo.State{Name: "x", Alarming: true})
				case 3:
					r.Capture("c")
				}
			}
		}(i)
	}
	wg.Wait()
	paths, err := ListBundles(r.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no bundles written")
	}
	for _, p := range paths {
		if _, err := LoadBundle(p); err != nil {
			t.Fatalf("bundle %s unreadable: %v", filepath.Base(p), err)
		}
	}
}
