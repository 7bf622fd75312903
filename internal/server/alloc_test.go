package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lpvs/internal/obs"
	"lpvs/internal/obs/audit"
	"lpvs/internal/testenv"
	"lpvs/internal/video"
	"lpvs/internal/wire"
)

// TestAcceptReportAllocsKnownDevice guards the per-report cost of
// ingest: staging a report of a device the daemon already knows, with
// the logger at its default Info level, allocates nothing — in
// particular not the arguments of the disabled Debug line.
func TestAcceptReportAllocsKnownDevice(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	logger, err := obs.NewLogger(io.Discard, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	req := validReport("dev-1")
	s.mu.Lock()
	defer s.mu.Unlock()
	if aerr := s.acceptReportLocked(req); aerr != nil {
		t.Fatal(aerr)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if aerr := s.acceptReportLocked(req); aerr != nil {
			t.Fatal(aerr)
		}
	})
	if allocs != 0 {
		t.Fatalf("acceptReportLocked allocates %.1f per report of a known device, want 0", allocs)
	}
}

// debugLine runs the daemon with a JSON debug logger, lets drive issue
// requests, and returns the log entry with the given message.
func debugLine(t *testing.T, msg string, drive func(url string)) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drive(ts.URL)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if entry["msg"] == msg {
			return entry
		}
	}
	t.Fatalf("no %q line in:\n%s", msg, buf.String())
	return nil
}

// wantEntry checks a log entry's message-specific keys and values (JSON
// numbers decode as float64).
func wantEntry(t *testing.T, entry, want map[string]any) {
	t.Helper()
	if entry["level"] != "DEBUG" {
		t.Errorf("level %v, want DEBUG", entry["level"])
	}
	for k, v := range want {
		if entry[k] != v {
			t.Errorf("%s = %v (%T), want %v", k, entry[k], entry[k], v)
		}
	}
	if got := len(entry) - 3; got != len(want) { // time, level, msg
		t.Errorf("entry has %d attrs, want %d: %v", got, len(want), entry)
	}
}

func TestDebugLogReportAccepted(t *testing.T) {
	entry := debugLine(t, "report accepted", func(url string) {
		postJSON(t, url+"/v1/report", validReport("dev-1"), nil)
	})
	wantEntry(t, entry, map[string]any{
		"device": "dev-1", "channel": "ch", "energy_frac": 0.5, "slot": float64(0),
	})
}

func TestDebugLogObservation(t *testing.T) {
	entry := debugLine(t, "observation", func(url string) {
		postJSON(t, url+"/v1/report", validReport("dev-1"), nil)
		postJSON(t, url+"/v1/observe", ObserveRequest{DeviceID: "dev-1", Reduction: 0.3}, nil)
	})
	gamma, ok := entry["gamma"].(float64)
	if !ok || gamma <= 0 || gamma >= 1 {
		t.Errorf("gamma = %v, want a number in (0, 1)", entry["gamma"])
	}
	delete(entry, "gamma")
	wantEntry(t, entry, map[string]any{
		"device": "dev-1", "reduction": 0.3, "observations": float64(1),
	})
}

// TestHandleReportAllocsJSONSingle guards the per-request cost of the
// per-device workload (2,000 single JSON reports per slot): one report
// of a known device through handleReport — body read, decode, staging,
// response — allocates no more than the 19 this test measures, the
// httptest request and recorder's own 9 included. It was 28 while the
// body was drained with io.ReadAll and the acknowledgement went through
// a json.Encoder, 25 while the body went through json.Unmarshal rather
// than the layout reader, and 20 while the report was read into a
// one-record slice of its own; TestRoundTripAllocs in internal/router
// counts the same request at the socket, middleware and client
// included.
func TestHandleReportAllocsJSONSingle(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(validReport("dev-1"))
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	post := func() {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		s.handleReport(rec, httptest.NewRequest("POST", "/v1/report", rd))
		if rec.Code != 200 {
			t.Fatalf("report: HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
	post()
	const bound = 19
	if allocs := testing.AllocsPerRun(100, post); allocs > bound {
		t.Fatalf("a JSON single report allocates %.1f, want at most %d", allocs, bound)
	}
}

// TestHandleReportAllocsBinaryBatchPerRecord guards the batch workload
// (one 10k-record binary body per slot): with the pooled scratch and
// its intern table warm, a batch's allocation count does not depend on
// how many records it carries.
func TestHandleReportAllocsBinaryBatchPerRecord(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, err := New(Config{Stream: testStream(t), ServerStreams: -1, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	reqs := ingestReports(512)
	perBatch := func(n int) float64 {
		body := encodeBatch(t, reqs[:n])
		rd := bytes.NewReader(body)
		post := func() {
			rd.Reset(body)
			req := httptest.NewRequest("POST", "/v1/report", rd)
			req.Header.Set("Content-Type", wire.ContentType)
			rec := httptest.NewRecorder()
			s.handleReport(rec, req)
			if rec.Code != 200 {
				t.Fatalf("report: HTTP %d: %s", rec.Code, rec.Body.String())
			}
		}
		post()
		return testing.AllocsPerRun(20, post)
	}
	large := perBatch(512) // first, so the scratch is grown before either count
	if small := perBatch(8); large != small {
		t.Fatalf("a warm binary batch allocates %.1f at 512 records and %.1f at 8, want equal (nothing per record)", large, small)
	}
}

// TestTickAllocsBytesPerDevice guards the cold slot BenchmarkTick runs,
// in bytes: ingest of the binary batch plus runTickLocked — gather,
// sort, schedule, publish, fleet fold — allocate nothing per device.
// The scheduler decides into the result the server keeps
// (Pool.DecideInto), so the one []bool and one []Verdict element per
// device that used to be the floor (57 B) are gone too; 4 B per device
// is room for the allocator's rounding of what a tick does allocate.
func TestTickAllocsBytesPerDevice(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	small, large := warmSlotBytes(coldTickServer(t, 2000, arrivalSorted)), warmSlotBytes(coldTickServer(t, 8000, arrivalSorted))
	slope := (large - small) / 6000
	t.Logf("%.0f B at 2,000 devices, %.0f B at 8,000: %.1f B per device", small, large, slope)
	if slope > 4 {
		t.Fatalf("a cold slot grows by %.1f B per device, want at most 4 (the scheduler's result is kept, not re-made)", slope)
	}
}

// warmSlotBytes runs a tickServer slot until the daemon has learned the
// devices, seen all three windows and grown its scratch, and returns
// the fewest bytes one further slot allocated.
func warmSlotBytes(slot func()) float64 {
	for warm := 0; warm < 4; warm++ {
		slot()
	}
	best := 0.0
	var m0, m1 runtime.MemStats
	for run := 0; run < 4; run++ {
		runtime.ReadMemStats(&m0)
		slot()
		runtime.ReadMemStats(&m1)
		if got := float64(m1.TotalAlloc - m0.TotalAlloc); run == 0 || got < best {
			best = got
		}
	}
	return best
}

// TestAuditedTickAllocsBytesPerDevice is the same slot with the audit
// log on. The record, its canonical text and its line live in the
// server's audit.Builder, and the scheduler's result in the server too,
// so an audited slot allocates nothing per device either: 4 B per
// device is the same room for rounding. It read about 17 B per device
// while the record held a string copy of the canonical text, 34 while
// the text was built twice, and about 800 while a record and a line
// were built afresh every tick.
func TestAuditedTickAllocsBytesPerDevice(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	bytesPerSlot := func(nDev int) float64 {
		_, slot := tickServer(t, nDev, oneVC, Config{
			ExtraStreams: []*video.Video{musicStream(t)},
			AuditDir:     t.TempDir(),
		}, arrivalSorted)
		return warmSlotBytes(slot)
	}
	small, large := bytesPerSlot(2000), bytesPerSlot(8000)
	slope := (large - small) / 6000
	t.Logf("%.0f B at 2,000 devices, %.0f B at 8,000: %.1f B per device", small, large, slope)
	if slope > 4 {
		t.Fatalf("an audited slot grows by %.1f B per device, want at most 4 (the record is the builder's)", slope)
	}
}

// TestAuditLineResidentBytes bounds the audit line storage the daemon
// keeps between ticks: after an audited 2,000-device tick its
// audit.Builder holds at most 64 KiB of it, the one buffer the line
// streamed through, while the line itself, about 1 MB, went to the log
// in pieces. It kept the whole line, 1.1 MB, while the line was encoded
// in one piece and handed to one write.
func TestAuditLineResidentBytes(t *testing.T) {
	dir := t.TempDir()
	s, slot := tickServer(t, 2000, oneVC, Config{AuditDir: dir}, arrivalSorted)
	slot()
	info, err := os.Stat(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	line := reflect.ValueOf(&s.auditRec).Elem().FieldByName("line")
	if !line.IsValid() {
		t.Fatal("audit.Builder has no line field to measure")
	}
	t.Logf("a %d-byte line, %d bytes of line storage kept", info.Size(), line.Cap())
	if info.Size() < 512<<10 || line.Cap() > 64<<10 {
		t.Fatalf("a %d-byte line left %d bytes of line storage in the builder, want at most 64 KiB", info.Size(), line.Cap())
	}
}

// TestShardTickPartitionAllocs guards the per-channel partition of a
// shard tick: the groups are refilled in the server's scratch, so once
// two ticks have grown it, partitioning 1,600 devices into 8 channels
// allocates the eight state-key strings and sort.Slice's swapper —
// under a kilobyte, where eight groups grown by append were 360 B per
// device. The count is process-wide, so it is the least of five warm
// partitions of the same batch: another goroutine's allocation can only
// add to one reading.
func TestShardTickPartitionAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	extra := make([]*video.Video, 7)
	for i := range extra {
		extra[i] = extraStream(t, fmt.Sprintf("ch-%d", i))
	}
	s, slot := tickServer(t, 1600, perChannel, Config{ExtraStreams: extra}, arrivalSorted)
	slot()
	slot()
	s.mu.Lock()
	defer s.mu.Unlock()
	batch := s.scheduled // the last tick's batch, device-sorted
	var got uint64
	for run := 0; run < 5; run++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		vcs := s.partitionLocked(perChannel, batch)
		runtime.ReadMemStats(&m1)
		n := 0
		for _, vc := range vcs {
			n += len(vc.Requests)
		}
		if len(vcs) != 8 || n != 1600 {
			t.Fatalf("partition made %d VCs of %d requests, want 8 of 1,600", len(vcs), n)
		}
		if b := m1.TotalAlloc - m0.TotalAlloc; run == 0 || b < got {
			got = b
		}
	}
	t.Logf("warm per-channel partition: %d B", got)
	if got > 1024 {
		t.Fatalf("a warm per-channel partition of 1,600 devices allocates %d B, want at most 1 KiB (nothing per request)", got)
	}
}

// TestAuditedTickHandlerAllocsFlat guards the standalone audited tick
// as the daemon serves it — POST /v1/tick through the route table, the
// report batch staged before each — once the server has seen the
// fleet: its allocations do not grow with the fleet. 500 and 2,000
// devices may differ by at most 2 objects and 512 B, room for the
// allocator's rounding and the digits of a duration. It failed while
// the audit record held a string copy of the canonical text and a fresh
// copy of each window's records, and Phase-1 solved in scratch from a
// sync.Pool with a fresh X each tick: about 26 KB more at 2,000 devices
// than at 500.
func TestAuditedTickHandlerAllocsFlat(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(nDev int) (allocs, size uint64) {
		music := musicStream(t)
		s, err := New(Config{Stream: testStream(t), ServerStreams: 100, Lambda: 1,
			ExtraStreams: []*video.Video{music}, AuditDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		h := s.Handler()
		reqs := ingestReports(nDev)
		for i := 1; i < len(reqs); i += 2 {
			reqs[i].ChannelID = music.ID
		}
		body, err := wire.AppendBatch(nil, reqs)
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(body)
		serve := func(req *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Fatalf("%s: HTTP %d: %s", req.URL.Path, rec.Code, rec.Body.String())
			}
		}
		slot := func() (allocs, size uint64) {
			rd.Reset(body)
			req := httptest.NewRequest("POST", "/v1/report", rd)
			req.Header.Set("Content-Type", wire.ContentType)
			serve(req)
			req = httptest.NewRequest("POST", "/v1/tick", nil)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			serve(req)
			runtime.ReadMemStats(&m1)
			return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
		}
		for warm := 0; warm < 4; warm++ {
			slot()
		}
		for run := 0; run < 4; run++ {
			if a, b := slot(); run == 0 || b < size {
				allocs, size = a, b
			}
		}
		return allocs, size
	}
	smallAllocs, smallBytes := measure(500)
	largeAllocs, largeBytes := measure(2000)
	t.Logf("warm audited tick: %d allocs, %d B at 500 devices; %d allocs, %d B at 2,000",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs+2 || largeBytes > smallBytes+512 {
		t.Fatalf("a warm audited tick allocates %d objects, %d B at 2,000 devices against %d, %d B at 500: it grows with the fleet",
			largeAllocs, largeBytes, smallAllocs, smallBytes)
	}
}
