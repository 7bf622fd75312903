// Package video models the video substrate of LPVS: videos split into
// chunks, per-chunk visual content statistics, and the server-side
// estimation of the power rate p_{n,m}(kappa) — the display power a
// given device draws while playing a given chunk (paper section IV-B).
//
// The paper streams real Twitch channels; their frame content is not
// available, so chunks carry synthetic content statistics generated per
// genre with temporal correlation (adjacent chunks of a live stream look
// alike). Both the power models and the transform engines consume only
// these aggregates, which is exactly the information an edge ingest
// pipeline can compute.
package video

import (
	"fmt"

	"lpvs/internal/display"
	"lpvs/internal/frame"
	"lpvs/internal/stats"
)

// DefaultChunkSeconds is the duration of one video chunk. Live streaming
// segments are typically 2-10 s; LPVS's 5-minute slot then spans
// SlotSeconds/DefaultChunkSeconds chunks.
const DefaultChunkSeconds = 10.0

// Chunk is one segment of a video, identified within its video by Index
// (the paper's CID).
type Chunk struct {
	Index       int
	DurationSec float64
	BitrateKbps int
	Stats       display.ContentStats
	// Keyframe optionally carries the chunk's representative frame for
	// the per-pixel transform path; when present, Stats is derived from
	// it. Nil chunks use the aggregate-statistics path.
	Keyframe *frame.Frame
}

// Validate reports whether the chunk is well-formed.
func (c Chunk) Validate() error {
	if c.Index < 0 {
		return fmt.Errorf("video: negative chunk index %d", c.Index)
	}
	if c.DurationSec <= 0 {
		return fmt.Errorf("video: chunk %d has non-positive duration", c.Index)
	}
	if c.BitrateKbps <= 0 {
		return fmt.Errorf("video: chunk %d has non-positive bitrate", c.Index)
	}
	return c.Stats.Validate()
}

// Genre labels the kind of live content; it drives the synthetic content
// statistics (bright game HUDs vs dark concert stages).
type Genre int

// Genres seen on live-streaming platforms.
const (
	Gaming Genre = iota
	Esports
	IRL
	Music
	Sports
	numGenres
)

var genreNames = [...]string{"Gaming", "Esports", "IRL", "Music", "Sports"}

// String implements fmt.Stringer.
func (g Genre) String() string {
	if int(g) >= 0 && int(g) < len(genreNames) {
		return genreNames[g]
	}
	return fmt.Sprintf("Genre(%d)", int(g))
}

// AllGenres lists every genre.
func AllGenres() []Genre {
	out := make([]Genre, numGenres)
	for i := range out {
		out[i] = Genre(i)
	}
	return out
}

// genreProfile is the stationary distribution of a genre's content.
type genreProfile struct {
	meanLuma   float64 // long-run average luminance
	lumaSpan   float64 // chunk-to-chunk variation amplitude
	colorR     float64 // channel balance multipliers around the luma
	colorG     float64
	colorB     float64
	peakSpread float64 // PeakLuma = MeanLuma + peakSpread (clamped)
}

var genreProfiles = map[Genre]genreProfile{
	Gaming:  {meanLuma: 0.42, lumaSpan: 0.10, colorR: 1.0, colorG: 1.05, colorB: 0.95, peakSpread: 0.35},
	Esports: {meanLuma: 0.50, lumaSpan: 0.08, colorR: 1.0, colorG: 1.0, colorB: 1.1, peakSpread: 0.30},
	IRL:     {meanLuma: 0.35, lumaSpan: 0.12, colorR: 1.1, colorG: 1.0, colorB: 0.85, peakSpread: 0.30},
	Music:   {meanLuma: 0.22, lumaSpan: 0.09, colorR: 0.95, colorG: 0.85, colorB: 1.15, peakSpread: 0.45},
	Sports:  {meanLuma: 0.55, lumaSpan: 0.07, colorR: 0.9, colorG: 1.15, colorB: 0.85, peakSpread: 0.25},
}

// Video is an addressable stream (the paper's VID) as a sequence of
// chunks.
type Video struct {
	ID     string
	Genre  Genre
	Chunks []Chunk
}

// Validate reports whether the video and all its chunks are well-formed.
func (v *Video) Validate() error {
	if v.ID == "" {
		return fmt.Errorf("video: empty ID")
	}
	if len(v.Chunks) == 0 {
		return fmt.Errorf("video %s: no chunks", v.ID)
	}
	for i, c := range v.Chunks {
		if c.Index != i {
			return fmt.Errorf("video %s: chunk %d has index %d", v.ID, i, c.Index)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("video %s: %w", v.ID, err)
		}
	}
	return nil
}

// GenConfig parameterises synthetic video generation.
type GenConfig struct {
	ID          string
	Genre       Genre
	NumChunks   int
	ChunkSec    float64
	BitrateKbps int
	// TemporalRho is the AR(1) correlation of luminance between adjacent
	// chunks; live content is strongly autocorrelated.
	TemporalRho float64
	// WithKeyframes attaches a synthetic keyframe to every chunk and
	// derives the content statistics from its pixels, enabling the
	// per-pixel transform path.
	WithKeyframes bool
}

// DefaultGenConfig returns a plausible live-stream chunk sequence.
func DefaultGenConfig(id string, g Genre, numChunks int) GenConfig {
	return GenConfig{
		ID:          id,
		Genre:       g,
		NumChunks:   numChunks,
		ChunkSec:    DefaultChunkSeconds,
		BitrateKbps: 2500,
		TemporalRho: 0.85,
	}
}

// Generate synthesises a video whose chunk content statistics follow the
// genre profile with AR(1) temporal correlation.
func Generate(rng *stats.RNG, cfg GenConfig) (*Video, error) {
	if cfg.NumChunks <= 0 {
		return nil, fmt.Errorf("video: NumChunks must be positive, got %d", cfg.NumChunks)
	}
	if cfg.ChunkSec <= 0 {
		return nil, fmt.Errorf("video: ChunkSec must be positive, got %v", cfg.ChunkSec)
	}
	if cfg.BitrateKbps <= 0 {
		return nil, fmt.Errorf("video: BitrateKbps must be positive, got %d", cfg.BitrateKbps)
	}
	prof, ok := genreProfiles[cfg.Genre]
	if !ok {
		return nil, fmt.Errorf("video: unknown genre %v", cfg.Genre)
	}
	v := &Video{ID: cfg.ID, Genre: cfg.Genre, Chunks: make([]Chunk, cfg.NumChunks)}
	luma := stats.Clamp(rng.Normal(prof.meanLuma, prof.lumaSpan), 0.02, 0.95)
	for i := range v.Chunks {
		// AR(1) walk around the genre mean.
		innov := rng.Normal(0, prof.lumaSpan*0.5)
		luma = stats.Clamp(prof.meanLuma+float64(cfg.TemporalRho*(luma-prof.meanLuma))+innov, 0.02, 0.95)
		c := Chunk{
			Index:       i,
			DurationSec: cfg.ChunkSec,
			BitrateKbps: cfg.BitrateKbps,
		}
		if cfg.WithKeyframes {
			kf, err := frame.Generate(rng, frame.GenConfig{
				W: frame.DefaultWidth, H: frame.DefaultHeight,
				BaseLuma:   luma,
				Texture:    prof.lumaSpan,
				CastR:      prof.colorR,
				CastG:      prof.colorG,
				CastB:      prof.colorB,
				HighlightP: 0.04,
			})
			if err != nil {
				return nil, fmt.Errorf("video: keyframe for chunk %d: %w", i, err)
			}
			c.Keyframe = kf
			c.Stats = kf.Stats()
		} else {
			c.Stats = contentFromLuma(rng, prof, luma)
		}
		v.Chunks[i] = c
	}
	return v, nil
}

func contentFromLuma(rng *stats.RNG, prof genreProfile, luma float64) display.ContentStats {
	noise := func() float64 { return rng.Normal(1, 0.05) }
	c := display.ContentStats{
		MeanLuma: luma,
		PeakLuma: stats.Clamp(luma+float64(prof.peakSpread*rng.Uniform(0.5, 1)), luma, 1),
		MeanR:    stats.Clamp(luma*prof.colorR*noise(), 0, 1),
		MeanG:    stats.Clamp(luma*prof.colorG*noise(), 0, 1),
		MeanB:    stats.Clamp(luma*prof.colorB*noise(), 0, 1),
	}
	return c
}

// PowerRate estimates the display power rate (watts) of one chunk on a
// device with the given display spec — the paper's p_{n,m}(kappa),
// computed server-side from existing power models.
func PowerRate(spec display.Spec, c Chunk) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	return display.PlaybackPower(spec, c.Stats)
}

// ValidateChunks validates every chunk of a window, reporting the index
// of the first invalid one. It is the checked-once entry beside
// PowerRate for callers that price one window on many displays: check
// the window here once, then use display.Panel.Power per chunk, which
// is PowerRate without the per-call validation.
func ValidateChunks(chunks []Chunk) (int, error) {
	for i := range chunks {
		if err := chunks[i].Validate(); err != nil {
			return i, err
		}
	}
	return -1, nil
}
