// Package edge models the edge-computing substrate LPVS runs on: the
// edge server's compute (C) and storage (S) capacities, the resource-
// consumption functions g(.) and h(.) of video transforming (paper
// section IV-D), and the chunk cache/prefetch behaviour that makes only
// part of a slot's chunks available at scheduling time (section IV-A).
//
// Capacity is expressed in transform units: one unit is the compute
// needed to transform one 720p30 stream in real time. The paper sizes
// its default server from the Nokia AirFrame open edge server and the
// Wowza transcoding benchmark at about 100 concurrently transformed
// mobile streams.
package edge

import (
	"fmt"

	"lpvs/internal/display"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// DefaultConcurrentStreams is the paper's estimate of how many mobile
// streams one commercial edge server can transform simultaneously.
const DefaultConcurrentStreams = 100

// Server holds the extra resources available for video transforming at
// one edge site.
type Server struct {
	// ComputeCapacity is C, in 720p-stream transform units.
	ComputeCapacity float64
	// StorageCapacityMB is S, the buffer space for transformed chunks.
	StorageCapacityMB float64
}

// NewServer sizes a server that can transform roughly `streams`
// concurrent 720p streams, with proportionally sized transform buffers.
func NewServer(streams int) (*Server, error) {
	if streams < 0 {
		return nil, fmt.Errorf("edge: negative stream capacity %d", streams)
	}
	return &Server{
		ComputeCapacity: float64(streams),
		// One 2.5 Mbps stream buffers ~94 MB per 5-minute slot; allow a
		// 50% margin so storage binds only for bitrate-heavy mixes.
		StorageCapacityMB: float64(streams) * 140,
	}, nil
}

// Fits reports whether a workload consuming the given totals satisfies
// constraints (6) and (7).
func (s *Server) Fits(totalCompute, totalStorageMB float64) bool {
	return totalCompute <= s.ComputeCapacity+1e-9 && totalStorageMB <= s.StorageCapacityMB+1e-9
}

// ComputeCost is g(d_n(t)): the transform units needed to transform the
// given chunks for a device whose stream has the given resolution. Cost
// scales with pixel throughput relative to the 720p reference and with
// the fraction of the slot the chunks cover.
func ComputeCost(res display.Resolution, chunks []video.Chunk, slotSec float64) float64 {
	if slotSec <= 0 {
		panic("edge: non-positive slot length")
	}
	dur := 0.0
	for _, c := range chunks {
		dur += c.DurationSec
	}
	pixelRatio := float64(res.Pixels()) / float64(display.Res720p.Pixels())
	return pixelRatio * dur / slotSec
}

// StorageCost is h(d_n(t)): the megabytes of transformed-chunk buffer
// the slot requires, i.e. the payload bytes of the listed chunks.
func StorageCost(chunks []video.Chunk) float64 {
	bits := 0.0
	for _, c := range chunks {
		bits += float64(float64(c.BitrateKbps) * 1000 * c.DurationSec)
	}
	return bits / 8 / 1e6
}

// Cache models chunk availability at the scheduling point. Depending on
// the CDN prefetch strategy, the edge may hold anywhere from a prefix of
// the slot's chunks to all of them (Fig. 4 of the paper).
type Cache struct {
	// HitRatio is the probability that the full slot window is already
	// prefetched.
	HitRatio float64
	// MinPrefix is the minimum fraction of the window available on a
	// partial hit.
	MinPrefix float64
}

// NewCache validates and builds a cache model.
func NewCache(hitRatio, minPrefix float64) (*Cache, error) {
	if hitRatio < 0 || hitRatio > 1 {
		return nil, fmt.Errorf("edge: hit ratio %v outside [0, 1]", hitRatio)
	}
	if minPrefix <= 0 || minPrefix > 1 {
		return nil, fmt.Errorf("edge: min prefix %v outside (0, 1]", minPrefix)
	}
	return &Cache{HitRatio: hitRatio, MinPrefix: minPrefix}, nil
}

// DefaultCache returns a well-provisioned live-edge cache: most slot
// windows fully prefetched, partial windows never below 40%.
func DefaultCache() *Cache {
	c, err := NewCache(0.8, 0.4)
	if err != nil {
		panic(err)
	}
	return c
}

// AvailableChunks returns how many of the slot's total chunks are
// available at the scheduling point (always at least 1 so that power
// estimation has something to work from, matching the paper's "we only
// use the available video chunks").
func (c *Cache) AvailableChunks(rng *stats.RNG, total int) int {
	if total <= 0 {
		return 0
	}
	if rng.Bool(c.HitRatio) {
		return total
	}
	avail := int(rng.Uniform(c.MinPrefix, 1) * float64(total))
	if avail < 1 {
		avail = 1
	}
	if avail > total {
		avail = total
	}
	return avail
}
