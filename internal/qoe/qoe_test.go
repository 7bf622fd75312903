package qoe

import (
	"math"
	"testing"

	"lpvs/internal/stats"
	"lpvs/internal/video"
)

func chunks(tb testing.TB, n, bitrate int) []video.Chunk {
	tb.Helper()
	cfg := video.DefaultGenConfig("q", video.Gaming, n)
	cfg.BitrateKbps = bitrate
	v, err := video.Generate(stats.NewRNG(1), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return v.Chunks
}

func TestSimulateValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := Simulate(rng, Inline, -1, chunks(t, 5, 2500)); err == nil {
		t.Fatal("negative scheduling delay accepted")
	}
	if _, err := Simulate(rng, OneSlotAhead, 0, nil); err == nil {
		t.Fatal("empty chunk list accepted")
	}
}

func TestFastNetworkNeverStalls(t *testing.T) {
	// The 6 Mbps link with 30% jitter never drops below the 2.5 Mbps
	// stream rate.
	res, err := Simulate(stats.NewRNG(2), OneSlotAhead, 0, chunks(t, 120, 2500))
	if err != nil {
		t.Fatal(err)
	}
	if res.RebufferEvents != 0 || res.RebufferSec != 0 {
		t.Fatalf("fast network stalled: %+v", res)
	}
	if res.StartupDelaySec <= 0 {
		t.Fatal("no startup delay recorded")
	}
	// All content played.
	want := 120 * video.DefaultChunkSeconds
	if math.Abs(res.PlayedSec-want) > 1e-6 {
		t.Fatalf("played %v s, want %v", res.PlayedSec, want)
	}
}

func TestSlowNetworkStalls(t *testing.T) {
	// An 8 Mbps stream over the 6 Mbps link.
	res, err := Simulate(stats.NewRNG(3), OneSlotAhead, 0, chunks(t, 60, 8000))
	if err != nil {
		t.Fatal(err)
	}
	if res.RebufferEvents == 0 {
		t.Fatal("under-provisioned network did not stall")
	}
	if res.RebufferSec <= 0 || res.PlayedSec <= 0 {
		t.Fatalf("stalled %v s over %v s played", res.RebufferSec, res.PlayedSec)
	}
}

func TestOneSlotAheadUnaffectedBySchedulerTime(t *testing.T) {
	cs := chunks(t, 90, 2500) // 3 slots of 300 s
	ahead, inline, err := CompareModes(7, cs, 15)
	if err != nil {
		t.Fatal(err)
	}
	// One-slot-ahead: scheduling charges nothing.
	if ahead.RebufferSec != 0 {
		t.Fatalf("one-slot-ahead stalled %v s", ahead.RebufferSec)
	}
	// Inline with a 15 s decision must hurt: either stalls or extra
	// startup delay.
	if inline.RebufferSec == 0 && inline.StartupDelaySec <= ahead.StartupDelaySec {
		t.Fatalf("inline scheduling cost nothing: %+v vs %+v", inline, ahead)
	}
}

func TestInlinePenaltyGrowsWithSchedulerTime(t *testing.T) {
	cs := chunks(t, 90, 2500)
	var prev float64
	for _, delay := range []float64{1, 10, 30} {
		_, inline, err := CompareModes(7, cs, delay)
		if err != nil {
			t.Fatal(err)
		}
		cost := inline.RebufferSec + inline.StartupDelaySec
		if cost < prev {
			t.Fatalf("inline cost not monotone at delay %v", delay)
		}
		prev = cost
	}
}

func TestSmallSchedDelayAbsorbedByBuffer(t *testing.T) {
	// A sub-second decision (our scheduler at N=5000 takes ~0.06 s) is
	// fully absorbed by the playout buffer even inline.
	cs := chunks(t, 90, 2500)
	_, inline, err := CompareModes(7, cs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if inline.RebufferSec > 0 {
		t.Fatalf("0.1 s scheduling stalled playback: %+v", inline)
	}
}

func TestInlineDelayBeyondBufferStalls(t *testing.T) {
	// A scheduling decision longer than the whole playout buffer must
	// stall inline playback at slot boundaries.
	cs := chunks(t, 90, 2500)
	_, inline, err := CompareModes(7, cs, 45)
	if err != nil {
		t.Fatal(err)
	}
	if inline.RebufferSec <= 0 {
		t.Fatalf("45 s inline decisions did not stall a 30 s buffer: %+v", inline)
	}
}
