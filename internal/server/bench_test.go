package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"

	"lpvs/internal/scheduler"
	"lpvs/internal/stats"
	"lpvs/internal/video"
	"lpvs/internal/wire"
)

// benchTickServer builds a two-channel daemon with nDev staged device
// reports and returns the server plus a snapshot of the pending batch,
// so iterations can refill the (tick-consumed) queue off the timer.
func benchTickServer(b *testing.B, budget, nDev int) (*Server, []scheduler.Request) {
	b.Helper()
	extra, err := video.Generate(stats.NewRNG(2), video.DefaultGenConfig("music", video.Music, 60))
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{
		Stream:        testStream(b),
		ExtraStreams:  []*video.Video{extra},
		ServerStreams: -1,
		Lambda:        1,
		VCLabelBudget: budget,
	})
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

// restage makes a saved batch the pending reports again.
func restage(s *Server, saved []scheduler.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending[:0], saved...)
	s.indexPendingLocked()
}

// pendingReport returns the report a device has staged for the next
// tick, if any.
func pendingReport(s *Server, id string) (scheduler.Request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.pending {
		if r.DeviceID == id {
			return r, true
		}
	}
	return scheduler.Request{}, false
}

func deviceID(i int) string {
	// Fixed-width IDs keep the scheduler's sort order stable across runs.
	const digits = "0123456789"
	buf := []byte("dev-00000")
	for p := len(buf) - 1; i > 0; p-- {
		buf[p] = digits[i%10]
		i /= 10
	}
	return string(buf)
}

// ingestReports builds nDev valid reports spread across energy levels,
// mirroring what a fleet posts every slot.
func ingestReports(nDev int) []ReportRequest {
	reqs := make([]ReportRequest, nDev)
	for i := range reqs {
		req := validReport(deviceID(i))
		req.EnergyFrac = 0.05 + 0.9*float64(i)/float64(nDev)
		reqs[i] = req
	}
	return reqs
}

// BenchmarkIngest measures POST /v1/report batch throughput for the
// JSON and binary codecs at fleet scale, plus the pooled steady-state
// decode in isolation. The codec cases report reports/s (the figures
// recorded with the binary codec are quoted in CHANGES.md, PR 9);
// decode-steady's allocs/op is
// the zero-alloc contract — the pooled decoder with a warm intern
// table must stay at 0 allocs (budget ≤2) per decoded batch.
func BenchmarkIngest(b *testing.B) {
	for _, nDev := range []int{10_000, 100_000} {
		reqs := ingestReports(nDev)
		jsonBody, err := json.Marshal(reqs)
		if err != nil {
			b.Fatal(err)
		}
		wireBody, err := wire.AppendBatch(nil, reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, bc := range []struct {
			name string
			ct   string
			body []byte
		}{
			{"json", "application/json", jsonBody},
			{"binary", wire.ContentType, wireBody},
		} {
			b.Run(fmt.Sprintf("%s-%dk", bc.name, nDev/1000), func(b *testing.B) {
				s, err := New(Config{Stream: testStream(b), ServerStreams: -1, Lambda: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					req := httptest.NewRequest("POST", "/v1/report", bytes.NewReader(bc.body))
					req.Header.Set("Content-Type", bc.ct)
					rec := httptest.NewRecorder()
					s.handleReport(rec, req)
					if rec.Code != 200 {
						b.Fatalf("report: HTTP %d: %s", rec.Code, rec.Body.String())
					}
				}
				b.ReportMetric(float64(nDev)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
			})
		}
	}

	b.Run("decode-steady", func(b *testing.B) {
		const nDev = 512
		reqs := ingestReports(nDev)
		body, err := wire.AppendBatch(nil, reqs)
		if err != nil {
			b.Fatal(err)
		}
		rd := bytes.NewReader(body)
		dec := wire.NewDecoder(rd)
		out := make([]ReportRequest, nDev)
		decode := func() {
			rd.Reset(body)
			dec.Reset(rd)
			if _, _, err := dec.Begin(); err != nil {
				b.Fatal(err)
			}
			for i := range out {
				if err := dec.Next(&out[i]); err != nil {
					b.Fatal(err)
				}
			}
			if err := dec.Finish(); err != nil {
				b.Fatal(err)
			}
		}
		decode() // warm the intern table
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decode()
		}
		b.ReportMetric(float64(nDev)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
	})
}

// BenchmarkFleetTick measures a full 10k-device tick with per-VC fleet
// telemetry off (budget 0: the zero-overhead path — metrics.vc is nil
// and no labeled series exist) versus on (budget 64: every per-VC
// family labeled and the fleet aggregation live). The recorded figures
// are quoted in CHANGES.md (PR 6); the contract is budget0 within
// noise of the pre-telemetry tick and budget64 within ~5% of budget0.
func BenchmarkFleetTick(b *testing.B) {
	const nDev = 10_000
	for _, bc := range []struct {
		name   string
		budget int
	}{
		{"budget0", 0},
		{"budget64", 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, saved := benchTickServer(b, bc.budget, nDev)
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

// coldTickServer builds the daemon BenchmarkTick and the tick allocation
// guard drive — nDev devices spread over two 90-chunk channels, capacity
// for 100 streams, the shape of the harness's edge-10k-cold workload —
// and returns the function that runs one slot on it: a binary report
// batch from every device, then runTickLocked. The streams hold three
// slot windows, so every slot reports a new window, the plan cache
// misses every device and the tick takes the cold path end to end.
func coldTickServer(tb testing.TB, nDev int, arrival arrivalOrder) func() {
	tb.Helper()
	_, slot := tickServer(tb, nDev, oneVC, Config{ExtraStreams: []*video.Video{musicStream(tb)}}, arrival)
	return slot
}

// arrivalOrder is the order a tickServer's batch names its devices in:
// by DeviceID, as every harness workload reports (the tick's sort finds
// nothing to move), or shuffled, so the sort does its full work.
type arrivalOrder bool

const (
	arrivalSorted   arrivalOrder = false
	arrivalShuffled arrivalOrder = true
)

// musicStream is coldTickServer's second channel.
func musicStream(tb testing.TB) *video.Video {
	tb.Helper()
	v, err := video.Generate(stats.NewRNG(2), video.DefaultGenConfig("music", video.Music, 90))
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// tickServer is coldTickServer with the knobs its variants turn: the
// tick's partition, whatever of cfg is set (extra channels, the devices
// dealt round-robin over all of them; an audit directory) and the order
// the batch names the devices in.
func tickServer(tb testing.TB, nDev int, part partition, cfg Config, arrival arrivalOrder) (*Server, func()) {
	tb.Helper()
	cfg.Stream, cfg.ServerStreams, cfg.Lambda = testStream(tb), 100, 1
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	reqs := ingestReports(nDev)
	for i := range reqs {
		if ch := i % (1 + len(cfg.ExtraStreams)); ch > 0 {
			reqs[i].ChannelID = cfg.ExtraStreams[ch-1].ID
		}
	}
	if arrival == arrivalShuffled {
		reqs = shuffled(reqs, int64(nDev))
	}
	body, err := wire.AppendBatch(nil, reqs)
	if err != nil {
		tb.Fatal(err)
	}
	rd := bytes.NewReader(body)
	slot := func() {
		rd.Reset(body)
		req := httptest.NewRequest("POST", "/v1/report", rd)
		req.Header.Set("Content-Type", wire.ContentType)
		rec := httptest.NewRecorder()
		s.handleReport(rec, req)
		if rec.Code != 200 {
			tb.Fatalf("report: HTTP %d: %s", rec.Code, rec.Body.String())
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		out, err := s.runTickLocked(context.Background(), part)
		if err != nil {
			tb.Fatal(err)
		}
		if out.stats.Reports != nDev {
			tb.Fatalf("slot scheduled %d reports, want %d", out.stats.Reports, nDev)
		}
	}
	return s, slot
}

// BenchmarkTick is one cold 10k-device slot — ingest of a binary batch,
// then the tick under s.mu — with nothing of the harness around it, so
// the tick can be profiled from the package:
//
//	go test ./internal/server/ -run '^$' -bench '^BenchmarkTick$' -benchmem \
//		-cpuprofile cpu.out -memprofile mem.out
//
// arrival=sorted is the batch every harness workload sends; under
// arrival=shuffled the tick's in-place sort has all of its work to do.
func BenchmarkTick(b *testing.B) {
	for _, bc := range []struct {
		name    string
		arrival arrivalOrder
	}{
		{"arrival=sorted", arrivalSorted},
		{"arrival=shuffled", arrivalShuffled},
	} {
		b.Run(bc.name, func(b *testing.B) {
			slot := coldTickServer(b, 10_000, bc.arrival)
			slot() // grow the scratch, learn the devices
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot()
			}
		})
	}
}
