// Package qoe models the conventional streaming quality-of-experience
// metrics the paper argues LPVS must not disturb (section VII-D): video
// freezing (rebuffering) time and startup delay.
//
// The paper's point is architectural: LPVS runs in "one-slot-ahead" mode
// — during slot t the scheduler decides for slot t+1 — so as long as a
// decision completes within one slot, scheduling adds zero delay to the
// chunk path. If instead the decision were computed inline at the slot
// boundary, every viewer would wait for the scheduler before the slot's
// first chunk could be served. This package provides a playout-buffer
// simulator that quantifies exactly that difference.
package qoe

import (
	"fmt"

	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// SchedulingMode places the scheduler on or off the chunk path.
type SchedulingMode int

// Scheduling modes of section VII-D.
const (
	// OneSlotAhead computes decisions during the previous slot: zero
	// added latency (the paper's deployment mode).
	OneSlotAhead SchedulingMode = iota
	// Inline computes decisions at the slot boundary: the first chunk of
	// each slot is delayed by the scheduling time.
	Inline
)

// The playout-buffer simulation's connection and player: a comfortable
// mobile link playing a 2.5 Mbps stream.
const (
	// startupBufferSec is the playout threshold before playback begins.
	startupBufferSec = 10.0
	// maxBufferSec caps the playout buffer (real players keep tens of
	// seconds, not the whole stream).
	maxBufferSec = 30.0
	// bandwidthMbps is the mean download bandwidth.
	bandwidthMbps = 6.0
	// bandwidthJitter is the relative bandwidth variation per chunk.
	bandwidthJitter = 0.3
	// slotSec is the scheduling period.
	slotSec = 300.0
)

// Result summarises a playback session's QoE.
type Result struct {
	// StartupDelaySec is the time to first frame.
	StartupDelaySec float64
	// RebufferSec is the total stall time after startup.
	RebufferSec float64
	// RebufferEvents counts distinct stalls.
	RebufferEvents int
	// PlayedSec is the content time played.
	PlayedSec float64
}

// Simulate plays the chunk sequence through a playout buffer, charging
// schedDelaySec at each slot boundary when mode is Inline, and returns
// the stall profile.
func Simulate(rng *stats.RNG, mode SchedulingMode, schedDelaySec float64, chunks []video.Chunk) (Result, error) {
	if len(chunks) == 0 {
		return Result{}, fmt.Errorf("qoe: no chunks")
	}
	if schedDelaySec < 0 {
		return Result{}, fmt.Errorf("qoe: negative scheduling delay")
	}

	var res Result
	bufferSec := 0.0 // seconds of content buffered
	started := false
	chunkOfSlot := 0.0

	for _, c := range chunks {
		if err := c.Validate(); err != nil {
			return Result{}, err
		}
		// Inline scheduling stalls the fetch pipeline at each slot
		// boundary; one-slot-ahead charges nothing.
		if mode == Inline && chunkOfSlot == 0 && schedDelaySec > 0 {
			if started {
				if bufferSec >= schedDelaySec {
					bufferSec -= schedDelaySec
					res.PlayedSec += schedDelaySec
				} else {
					res.PlayedSec += bufferSec
					stall := schedDelaySec - bufferSec
					bufferSec = 0
					res.RebufferSec += stall
					res.RebufferEvents++
				}
			} else {
				res.StartupDelaySec += schedDelaySec
			}
		}

		// A full buffer pauses downloading until there is room; the wait
		// drains the buffer in real time.
		if started && bufferSec+c.DurationSec > maxBufferSec {
			wait := bufferSec + c.DurationSec - maxBufferSec
			bufferSec -= wait
			res.PlayedSec += wait
		}

		// Download the chunk.
		bw := bandwidthMbps * rng.Uniform(1-bandwidthJitter, 1+bandwidthJitter)
		downloadSec := float64(c.BitrateKbps) / 1000 * c.DurationSec / bw

		if !started {
			res.StartupDelaySec += downloadSec
			bufferSec += c.DurationSec
			if bufferSec >= startupBufferSec {
				started = true
			}
		} else {
			// While downloading, the buffer drains in real time.
			if bufferSec >= downloadSec {
				bufferSec -= downloadSec
				res.PlayedSec += downloadSec
			} else {
				res.PlayedSec += bufferSec
				stall := downloadSec - bufferSec
				bufferSec = 0
				res.RebufferSec += stall
				res.RebufferEvents++
			}
			bufferSec += c.DurationSec
		}

		chunkOfSlot += c.DurationSec
		if chunkOfSlot >= slotSec {
			chunkOfSlot = 0
		}
	}
	// Drain what is left in the buffer.
	res.PlayedSec += bufferSec
	return res, nil
}

// CompareModes runs the same session in both scheduling modes and
// returns the results, quantifying the paper's section VII-D claim that
// one-slot-ahead scheduling leaves freezing untouched while inline
// scheduling would stall viewers whenever the decision takes long.
func CompareModes(seed int64, chunks []video.Chunk, schedDelaySec float64) (ahead, inline Result, err error) {
	ahead, err = Simulate(stats.NewRNG(seed), OneSlotAhead, 0, chunks)
	if err != nil {
		return Result{}, Result{}, err
	}
	inline, err = Simulate(stats.NewRNG(seed), Inline, schedDelaySec, chunks)
	if err != nil {
		return Result{}, Result{}, err
	}
	return ahead, inline, nil
}
