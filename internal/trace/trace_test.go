package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"lpvs/internal/stats"
)

func defaultTrace(tb testing.TB) *Trace {
	tb.Helper()
	tr, err := Generate(DefaultGenConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestGeneratePopulationMatchesPaper(t *testing.T) {
	tr := defaultTrace(t)
	if len(tr.Channels) != 1566 {
		t.Fatalf("channels = %d, want 1566", len(tr.Channels))
	}
	if tr.NumSessions() != 4761 {
		t.Fatalf("sessions = %d, want 4761", tr.NumSessions())
	}
	if tr.SampleIntervalMinutes != 5 {
		t.Fatalf("interval = %d, want 5", tr.SampleIntervalMinutes)
	}
}

func TestGenerateValidates(t *testing.T) {
	if err := defaultTrace(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := defaultTrace(t), defaultTrace(t)
	sa, sb := a.Sessions(), b.Sessions()
	for i := range sa {
		if sa[i].ID != sb[i].ID || sa[i].DurationMin() != sb[i].DurationMin() {
			t.Fatalf("session %d differs across equal-seed runs", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := []GenConfig{
		{NumChannels: 0, TargetSessions: 10, MedianSessionMin: 90, DurationSigma: 1, MedianViewers: 10},
		{NumChannels: 10, TargetSessions: 5, MedianSessionMin: 90, DurationSigma: 1, MedianViewers: 10},
		{NumChannels: 10, TargetSessions: 20, MedianSessionMin: 0, DurationSigma: 1, MedianViewers: 10},
		{NumChannels: 10, TargetSessions: 20, MedianSessionMin: 90, DurationSigma: 0, MedianViewers: 10},
		{NumChannels: 10, TargetSessions: 20, MedianSessionMin: 90, DurationSigma: 1, MedianViewers: 0},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func TestDurationsRespectTenHourFilter(t *testing.T) {
	tr := defaultTrace(t)
	for _, d := range tr.DurationsMin() {
		if d > MaxSessionMinutes {
			t.Fatalf("session duration %v exceeds the 10 h filter", d)
		}
		if d < float64(SampleIntervalMin) {
			t.Fatalf("session duration %v below one sampling interval", d)
		}
	}
}

func TestDurationHistogramShape(t *testing.T) {
	tr := defaultTrace(t)
	h := tr.DurationHistogram(60)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != tr.NumSessions() {
		t.Fatalf("histogram total = %d, want %d", total, tr.NumSessions())
	}
	fr := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		fr[i] = float64(c) / float64(total)
	}
	// Fig. 5 shape: unimodal with the bulk below ~3 h and a decaying
	// tail to the 10 h cap.
	if fr[0]+fr[1]+fr[2] < 0.6 {
		t.Fatalf("first three hours carry only %v of sessions, want the bulk", fr[0]+fr[1]+fr[2])
	}
	if !(fr[3] > fr[6] && fr[6] >= fr[8]) {
		t.Fatalf("tail not decaying: %v", fr)
	}
	med := stats.Percentile(tr.DurationsMin(), 50)
	if med < 60 || med > 150 {
		t.Fatalf("median duration = %v min, want 1-2.5 h", med)
	}
}

func TestSessionsWithinChannelDoNotOverlap(t *testing.T) {
	tr := defaultTrace(t)
	for _, ch := range tr.Channels {
		for i := 1; i < len(ch.Sessions); i++ {
			if ch.Sessions[i].StartSlot <= ch.Sessions[i-1].EndSlot() {
				t.Fatalf("channel %s sessions %d and %d overlap", ch.ID, i-1, i)
			}
		}
	}
}

func TestViewerCountsPlausible(t *testing.T) {
	tr := defaultTrace(t)
	peak := 0
	zeroSessions := 0
	for _, s := range tr.Sessions() {
		allZero := true
		for _, sm := range s.Samples {
			if sm.Viewers > peak {
				peak = sm.Viewers
			}
			if sm.Viewers > 0 {
				allZero = false
			}
		}
		if allZero {
			zeroSessions++
		}
	}
	if peak < 100 {
		t.Fatalf("peak viewers = %d; heavy tail expected", peak)
	}
	if frac := float64(zeroSessions) / float64(tr.NumSessions()); frac > 0.2 {
		t.Fatalf("%v of sessions have zero audience throughout", frac)
	}
}

func TestBitratesFromLadder(t *testing.T) {
	tr := defaultTrace(t)
	ladder := make(map[int]bool)
	for _, b := range BitrateLadder {
		ladder[b] = true
	}
	for _, s := range tr.Sessions() {
		if !ladder[s.BitrateKbps] {
			t.Fatalf("session %s bitrate %d not in ladder", s.ID, s.BitrateKbps)
		}
	}
}

func TestMaxSlot(t *testing.T) {
	tr := defaultTrace(t)
	maxSlot := tr.MaxSlot()
	if maxSlot <= 0 {
		t.Fatal("non-positive MaxSlot")
	}
	for _, s := range tr.Sessions() {
		if s.EndSlot() > maxSlot {
			t.Fatal("MaxSlot below a session end")
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumChannels, cfg.TargetSessions = 20, 55
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSessions() != tr.NumSessions() || len(back.Channels) != len(tr.Channels) {
		t.Fatal("round trip changed population")
	}
	sa, sb := tr.Sessions(), back.Sessions()
	for i := range sa {
		if sa[i].ID != sb[i].ID || len(sa[i].Samples) != len(sb[i].Samples) {
			t.Fatalf("session %d corrupted in round trip", i)
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// Valid JSON, invalid trace (no channels).
	if _, err := ReadJSON(strings.NewReader(`{"sample_interval_minutes":5,"channels":[]}`)); err == nil {
		t.Fatal("channel-less trace accepted")
	}
}

func TestSessionsCSV(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumChannels, cfg.TargetSessions = 5, 12
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteSessionsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 13 { // header + 12 sessions
		t.Fatalf("csv lines = %d, want 13", len(lines))
	}
	if !strings.HasPrefix(lines[0], "session_id,channel_id") {
		t.Fatalf("bad header: %s", lines[0])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mutations := []func(*Trace){
		func(tr *Trace) { tr.SampleIntervalMinutes = 0 },
		func(tr *Trace) { tr.Channels[0].ID = "" },
		func(tr *Trace) { tr.Channels[1].ID = tr.Channels[0].ID },
		func(tr *Trace) { tr.Channels[0].Sessions = nil },
		func(tr *Trace) { tr.Channels[0].Sessions[0].ChannelID = "elsewhere" },
		func(tr *Trace) { tr.Channels[0].Sessions[0].Samples = nil },
		func(tr *Trace) { tr.Channels[0].Sessions[0].BitrateKbps = 0 },
		func(tr *Trace) { tr.Channels[0].Sessions[0].Samples[0].Viewers = -1 },
		func(tr *Trace) { tr.Channels[0].Sessions[0].StartSlot = -1 },
		func(tr *Trace) {
			tr.Channels[0].Sessions[0].Samples = make([]SlotSample, MaxSessionMinutes/SampleIntervalMin+1)
		},
	}
	for i, mut := range mutations {
		cfg := DefaultGenConfig()
		cfg.NumChannels, cfg.TargetSessions = 5, 10
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mut(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeneratePropertyAlwaysValid(t *testing.T) {
	f := func(seed int64, nc, extra uint8) bool {
		cfg := DefaultGenConfig()
		cfg.Seed = seed
		cfg.NumChannels = int(nc%30) + 1
		cfg.TargetSessions = cfg.NumChannels + int(extra%50)
		tr, err := Generate(cfg)
		if err != nil {
			return false
		}
		return tr.Validate() == nil && tr.NumSessions() == cfg.TargetSessions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
