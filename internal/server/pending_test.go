package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// This file tests the pending table (server.go: Server.pending, stage):
// the slot's reports kept as the batch the tick schedules, one entry
// per device, in arrival order.

// auditedServer is a daemon with the audit log on, so a test can read
// back the exact batch a tick scheduled.
func auditedServer(t *testing.T) (s *Server, url, auditDir string) {
	t.Helper()
	auditDir = t.TempDir()
	s, err := New(Config{Stream: testStream(t), ServerStreams: 3, Lambda: 1, AuditDir: auditDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts.URL, auditDir
}

// fleetReports is n distinct devices' reports, in DeviceID order.
func fleetReports(n int) []ReportRequest {
	reqs := make([]ReportRequest, n)
	for i := range reqs {
		reqs[i] = validReport(fmt.Sprintf("dev-%03d", i))
		reqs[i].EnergyFrac = 0.08 + 0.9*float64(i)/float64(n)
		if i%3 == 0 {
			reqs[i].DisplayType = "LCD"
		}
	}
	return reqs
}

// shuffled is a seeded permutation of reqs, in a copy.
func shuffled(reqs []ReportRequest, seed int64) []ReportRequest {
	out := append([]ReportRequest(nil), reqs...)
	rng := stats.NewRNG(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func mustReport(t *testing.T, resp *http.Response) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", resp.StatusCode)
	}
}

func pendingCount(t *testing.T, url string) int {
	t.Helper()
	var st StatusResponse
	getJSON(t, url+"/v1/status", &st)
	return st.PendingReports
}

// TestLastReportInSlotWins: a device that reports twice inside a slot
// holds one entry of the batch, and the tick schedules its second
// report — whichever framing brought the two, a batch naming the device
// twice included. A JSON array is refused whole and stages nothing.
func TestLastReportInSlotWins(t *testing.T) {
	first, second := validReport("dev-a"), validReport("dev-a")
	first.EnergyFrac, second.EnergyFrac = 0.91, 0.23
	other, stray := validReport("dev-b"), validReport("dev-c")
	refused := func(t *testing.T, resp *http.Response) {
		t.Helper()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("JSON array: status %d, want 400", resp.StatusCode)
		}
	}
	for _, tc := range []struct {
		name string
		send func(t *testing.T, url string)
	}{
		{"json-single", func(t *testing.T, url string) {
			for _, r := range []ReportRequest{first, other, second} {
				mustReport(t, postJSON(t, url+"/v1/report", r, nil))
			}
		}},
		{"json-batch", func(t *testing.T, url string) {
			refused(t, postJSON(t, url+"/v1/report", []ReportRequest{stray, other}, nil))
			for _, r := range []ReportRequest{first, other, second} {
				mustReport(t, postJSON(t, url+"/v1/report", r, nil))
			}
		}},
		{"json-batch-naming-it-twice", func(t *testing.T, url string) {
			refused(t, postJSON(t, url+"/v1/report", []ReportRequest{first, stray, second}, nil))
			mustReport(t, postWire(t, url, encodeBatch(t, []ReportRequest{first, other, second}), nil))
		}},
		{"binary-single", func(t *testing.T, url string) {
			for _, r := range []ReportRequest{first, other, second} {
				mustReport(t, postWire(t, url, encodeBatch(t, []ReportRequest{r}), nil))
			}
		}},
		{"binary-batch", func(t *testing.T, url string) {
			mustReport(t, postWire(t, url, encodeBatch(t, []ReportRequest{first, other}), nil))
			mustReport(t, postWire(t, url, encodeBatch(t, []ReportRequest{second}), nil))
		}},
		{"binary-batch-naming-it-twice", func(t *testing.T, url string) {
			mustReport(t, postWire(t, url, encodeBatch(t, []ReportRequest{first, other, second}), nil))
		}},
		{"mixed-codecs", func(t *testing.T, url string) {
			mustReport(t, postWire(t, url, encodeBatch(t, []ReportRequest{first, other}), nil))
			mustReport(t, postJSON(t, url+"/v1/report", second, nil))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, url, auditDir := auditedServer(t)
			tc.send(t, url)
			if got := pendingCount(t, url); got != 2 {
				t.Fatalf("%d pending reports after two devices reported, want 2", got)
			}
			var tick TickResponse
			if resp := postJSON(t, url+"/v1/tick", struct{}{}, &tick); resp.StatusCode != http.StatusOK || tick.Reports != 2 {
				t.Fatalf("tick: status %d, %d reports, want 200 and 2", resp.StatusCode, tick.Reports)
			}
			recs := readAudit(t, auditDir)
			if len(recs) != 1 || len(recs[0].Requests) != 2 {
				t.Fatalf("audit log: %d records, want one of 2 requests", len(recs))
			}
			if rr := recs[0].Requests[0]; rr.Device != "dev-a" || rr.EnergyFrac != second.EnergyFrac {
				t.Fatalf("the tick scheduled %s at energy %v, want dev-a's second report (%v)", rr.Device, rr.EnergyFrac, second.EnergyFrac)
			}
			if got := pendingCount(t, url); got != 0 {
				t.Fatalf("%d pending reports after the tick, want 0", got)
			}
		})
	}
}

// TestFailedTickKeepsReportsPending: a tick the scheduler refuses (here:
// a chunk of the slot's window is invalid) publishes nothing and leaves
// every report pending — sorted by then, so each device's position has
// moved — and a re-report after it still overwrites the device's own
// entry instead of adding a second one.
func TestFailedTickKeepsReportsPending(t *testing.T) {
	s, url, auditDir := auditedServer(t)
	fleet := fleetReports(40)
	mustReport(t, postWire(t, url, encodeBatch(t, shuffled(fleet, 5)), nil))

	s.mu.Lock()
	chunk := &s.cfg.Stream.Chunks[1]
	bitrate := chunk.BitrateKbps
	chunk.BitrateKbps = 0
	s.mu.Unlock()
	if resp := postJSON(t, url+"/v1/tick", struct{}{}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("tick over an invalid chunk window: status %d, want 500", resp.StatusCode)
	}
	if got := pendingCount(t, url); got != len(fleet) {
		t.Fatalf("%d pending reports after the failed tick, want %d", got, len(fleet))
	}
	var st StatusResponse
	getJSON(t, url+"/v1/status", &st)
	if st.Slot != 0 || st.LastTick != nil {
		t.Fatalf("failed tick advanced the daemon: slot %d, last tick %+v", st.Slot, st.LastTick)
	}

	// Every device reports again, a different order again.
	again := shuffled(fleet, 6)
	for i := range again {
		again[i].EnergyFrac /= 2
	}
	mustReport(t, postWire(t, url, encodeBatch(t, again), nil))
	if got := pendingCount(t, url); got != len(fleet) {
		t.Fatalf("%d pending reports after every device re-reported, want %d (overwritten, not appended)", got, len(fleet))
	}

	s.mu.Lock()
	chunk.BitrateKbps = bitrate
	s.mu.Unlock()
	var tick TickResponse
	if resp := postJSON(t, url+"/v1/tick", struct{}{}, &tick); resp.StatusCode != http.StatusOK || tick.Reports != len(fleet) {
		t.Fatalf("tick: status %d, %d reports, want 200 and %d", resp.StatusCode, tick.Reports, len(fleet))
	}
	recs := readAudit(t, auditDir)
	if len(recs) != 1 || len(recs[0].Requests) != len(fleet) {
		t.Fatalf("audit log: %d records, want one of %d requests", len(recs), len(fleet))
	}
	for i, rr := range recs[0].Requests {
		if want := fleet[i].EnergyFrac / 2; rr.Device != fleet[i].DeviceID || rr.EnergyFrac != want {
			t.Fatalf("request %d is %s at energy %v, want %s at %v (the re-report)", i, rr.Device, rr.EnergyFrac, fleet[i].DeviceID, want)
		}
	}
}

// TestArrivalOrderIsNotAnInput: the batch is scheduled in DeviceID
// order whatever order the reports arrived in — one sorted batch, one
// shuffled batch, shuffled JSON reports and one-record binary batches
// with a second report per device — so the canonical decision bytes and the audit
// line (but for its timestamp and stage timings) are the same.
func TestArrivalOrderIsNotAnInput(t *testing.T) {
	fleet := fleetReports(60)
	auditLine := func(t *testing.T, send func(url string)) (canonical string, line []byte) {
		_, url, auditDir := auditedServer(t)
		send(url)
		if resp := postJSON(t, url+"/v1/tick", struct{}{}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("tick: status %d", resp.StatusCode)
		}
		recs := readAudit(t, auditDir)
		if len(recs) != 1 {
			t.Fatalf("%d audit records, want 1", len(recs))
		}
		recs[0].UnixSec, recs[0].Spans = 0, nil
		line, err := recs[0].Encode()
		if err != nil {
			t.Fatal(err)
		}
		return string(recs[0].DecisionCanonical), line
	}
	wantCanonical, wantLine := auditLine(t, func(url string) {
		mustReport(t, postWire(t, url, encodeBatch(t, fleet), nil))
	})
	for _, tc := range []struct {
		name string
		send func(url string)
	}{
		{"shuffled-batch", func(url string) {
			mustReport(t, postWire(t, url, encodeBatch(t, shuffled(fleet, 11)), nil))
		}},
		{"shuffled-singles-reported-twice", func(url string) {
			for i, r := range shuffled(fleet, 12) {
				r.EnergyFrac = 0.5 // superseded below
				if i%2 == 0 {
					mustReport(t, postJSON(t, url+"/v1/report", r, nil))
				} else {
					mustReport(t, postWire(t, url, encodeBatch(t, []ReportRequest{r}), nil))
				}
			}
			mustReport(t, postWire(t, url, encodeBatch(t, shuffled(fleet, 13)), nil))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			canonical, got := auditLine(t, tc.send)
			if canonical != wantCanonical {
				t.Fatal("canonical decision differs from the sorted batch's")
			}
			if !bytes.Equal(got, wantLine) {
				t.Fatal("audit line differs from the sorted batch's")
			}
		})
	}
}

// TestScheduledBatchSurvivesIngest pins the two batches' aliasing rule
// (DESIGN.md §16): the batch tick N scheduled — what s.tickRes and its
// decisions' device IDs alias — is not written while slot N+1's reports
// are being ingested, on either side of the trade.
func TestScheduledBatchSurvivesIngest(t *testing.T) {
	s, url, _ := auditedServer(t)
	fleet := fleetReports(50)
	for slot := 0; slot < 4; slot++ {
		batch := shuffled(fleet, int64(slot))
		for i := range batch {
			batch[i].EnergyFrac = 0.1 + 0.2*float64(slot)
		}
		mustReport(t, postWire(t, url, encodeBatch(t, batch), nil))
		if resp := postJSON(t, url+"/v1/tick", struct{}{}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("slot %d tick: status %d", slot, resp.StatusCode)
		}
		s.mu.Lock()
		scheduled := append([]byte(nil), s.tickRes.VCs[0].Decision.Canonical()...)
		energy := s.scheduled[0].EnergyFrac
		s.mu.Unlock()

		// Slot N+1 arrives: every device, new values, twice over.
		for _, seed := range []int64{100, 101} {
			next := shuffled(fleet, seed+int64(slot))
			for i := range next {
				next[i].EnergyFrac = 0.99
			}
			mustReport(t, postWire(t, url, encodeBatch(t, next), nil))
		}
		s.mu.Lock()
		if len(s.scheduled) != len(fleet) || len(s.pending) != len(fleet) {
			t.Fatalf("slot %d: %d scheduled and %d pending, want %d each", slot, len(s.scheduled), len(s.pending), len(fleet))
		}
		for i := range s.scheduled {
			if r := s.scheduled[i]; r.DeviceID != fleet[i].DeviceID || r.EnergyFrac != energy {
				t.Fatalf("slot %d: scheduled[%d] is %s at energy %v after the next slot's ingest, want %s at %v",
					slot, i, r.DeviceID, r.EnergyFrac, fleet[i].DeviceID, energy)
			}
		}
		if got := s.tickRes.VCs[0].Decision.Canonical(); !bytes.Equal(got, scheduled) {
			t.Fatalf("slot %d: the kept decision's canonical bytes changed under the next slot's ingest", slot)
		}
		s.mu.Unlock()
	}
}

// TestFleetCountsPendingPerChannel: /v1/fleet reads the pending batch,
// not a per-device flag, so its per-channel counts follow re-reports
// and empty at the tick.
func TestFleetCountsPendingPerChannel(t *testing.T) {
	music := musicStream(t)
	s, err := New(Config{Stream: testStream(t), ExtraStreams: []*video.Video{music}, ServerStreams: -1, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fleet := fleetReports(9)
	for i := range fleet {
		if i%3 == 0 {
			fleet[i].ChannelID = music.ID
		}
	}
	pendingByChannel := func() map[string]int {
		var fr FleetResponse
		getJSON(t, ts.URL+"/v1/fleet", &fr)
		got := map[string]int{}
		for _, ch := range fr.Channels {
			got[ch.Channel] = ch.PendingReports
		}
		return got
	}
	mustReport(t, postWire(t, ts.URL, encodeBatch(t, fleet), nil))
	mustReport(t, postWire(t, ts.URL, encodeBatch(t, fleet[:4]), nil)) // re-reports
	if got := pendingByChannel(); got[music.ID] != 3 || got["ch"] != 6 {
		t.Fatalf("pending per channel %v, want music 3 and ch 6", got)
	}
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)
	if got := pendingByChannel(); got[music.ID] != 0 || got["ch"] != 0 {
		t.Fatalf("pending per channel %v after the tick, want none", got)
	}
}
