package server

import (
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"lpvs/internal/scheduler"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// benchForensicsServer is benchTickServer with an optional forensics
// stack: history store sampling the live registry and an armed flight
// recorder teeing every tick's audit record into its tail ring.
func benchForensicsServer(b *testing.B, nDev int, mutate func(*Config)) (*Server, []scheduler.Request) {
	b.Helper()
	extra, err := video.Generate(stats.NewRNG(2), video.DefaultGenConfig("music", video.Music, 60))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Stream:        testStream(b),
		ExtraStreams:  []*video.Video{extra},
		ServerStreams: -1,
		Lambda:        1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.mu.Lock()
	for i := 0; i < nDev; i++ {
		req := validReport(deviceID(i))
		req.EnergyFrac = 0.05 + 0.9*float64(i)/float64(nDev)
		if i%2 == 1 {
			req.ChannelID = "music"
		}
		if apiErr := s.acceptReportLocked(req); apiErr != nil {
			s.mu.Unlock()
			b.Fatalf("stage report %d: %v", i, apiErr.Message)
		}
	}
	saved := slices.Clone(s.pending)
	s.mu.Unlock()
	return s, saved
}

// BenchmarkFlightTick measures a full 10k-device tick with the
// forensics stack off versus armed (history store live, flight
// recorder encoding and teeing every tick's audit record into its
// tail ring — the entire per-tick capture cost). The recorded figures
// are quoted in CHANGES.md (PR 8); the contract is armed within noise of
// off, because capture is observation-only.
func BenchmarkFlightTick(b *testing.B) {
	const nDev = 10_000
	forensics := func(c *Config) {
		c.HistoryWindow = 15 * time.Minute
		c.HistoryInterval = 5 * time.Second
		c.FlightDir = b.TempDir()
	}
	for _, bc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"off", nil},
		{"armed", forensics},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, saved := benchForensicsServer(b, nDev, bc.mutate)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restage(s, saved)
				b.StartTimer()
				rec := httptest.NewRecorder()
				s.handleTick(rec, httptest.NewRequest("POST", "/v1/tick", nil))
				if rec.Code != 200 {
					b.Fatalf("tick: HTTP %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// BenchmarkFlightBundleWrite measures one incident capture at 1k
// devices: freeze SLO states, metric history, span ring, audit tail,
// and both profiles, encode the container, and write it atomically.
// bundle-bytes reports the on-disk size.
func BenchmarkFlightBundleWrite(b *testing.B) {
	const nDev = 1_000
	s, _ := benchForensicsServer(b, nDev, func(c *Config) {
		c.HistoryWindow = 15 * time.Minute
		c.HistoryInterval = 5 * time.Second
		c.FlightDir = b.TempDir()
		// The audit log makes the tail ring live, so the bundle carries
		// the realistic audit section.
		c.AuditDir = b.TempDir()
	})
	rec := httptest.NewRecorder()
	s.handleTick(rec, httptest.NewRequest("POST", "/v1/tick", nil))
	if rec.Code != 200 {
		b.Fatalf("tick: HTTP %d", rec.Code)
	}
	s.History().Sample()

	var bundleBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, err := s.flight.Capture("bench")
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		info, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		bundleBytes = info.Size()
		// Rotation keeps the dir bounded, but removing eagerly keeps
		// the benchmark's disk footprint flat at high -benchtime.
		if err := os.Remove(path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(bundleBytes), "bundle-bytes")
}
