package video

import (
	"strings"
	"testing"
	"testing/quick"

	"lpvs/internal/display"
	"lpvs/internal/stats"
)

func testSpec(t display.Type) display.Spec {
	return display.Spec{Type: t, Resolution: display.Res1080p, DiagonalInch: 6, Brightness: 0.6}
}

func genVideo(t *testing.T, g Genre, n int) *Video {
	t.Helper()
	v, err := Generate(stats.NewRNG(3), DefaultGenConfig("v1", g, n))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestGenerateValid(t *testing.T) {
	for _, g := range AllGenres() {
		v := genVideo(t, g, 30)
		if err := v.Validate(); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if len(v.Chunks) != 30 {
			t.Fatalf("%v: %d chunks, want 30", g, len(v.Chunks))
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := stats.NewRNG(1)
	cases := []GenConfig{
		{ID: "x", Genre: Gaming, NumChunks: 0, ChunkSec: 10, BitrateKbps: 100},
		{ID: "x", Genre: Gaming, NumChunks: 5, ChunkSec: 0, BitrateKbps: 100},
		{ID: "x", Genre: Gaming, NumChunks: 5, ChunkSec: 10, BitrateKbps: 0},
		{ID: "x", Genre: Genre(99), NumChunks: 5, ChunkSec: 10, BitrateKbps: 100},
	}
	for i, cfg := range cases {
		if _, err := Generate(rng, cfg); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(stats.NewRNG(7), DefaultGenConfig("v", IRL, 20))
	b, _ := Generate(stats.NewRNG(7), DefaultGenConfig("v", IRL, 20))
	for i := range a.Chunks {
		if a.Chunks[i] != b.Chunks[i] {
			t.Fatalf("chunk %d differs across equal-seed runs", i)
		}
	}
}

func TestTemporalCorrelation(t *testing.T) {
	v := genVideo(t, Gaming, 200)
	// Adjacent-chunk luma distance should be clearly below the distance
	// between random pairs — live content is autocorrelated.
	adj, rnd := 0.0, 0.0
	for i := 1; i < len(v.Chunks); i++ {
		adj += abs(v.Chunks[i].Stats.MeanLuma - v.Chunks[i-1].Stats.MeanLuma)
		j := (i * 97) % len(v.Chunks)
		rnd += abs(v.Chunks[i].Stats.MeanLuma - v.Chunks[j].Stats.MeanLuma)
	}
	if adj >= rnd {
		t.Fatalf("no temporal correlation: adjacent %v vs random %v", adj, rnd)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestGenreBrightnessOrdering(t *testing.T) {
	meanLuma := func(g Genre) float64 {
		v := genVideo(t, g, 300)
		sum := 0.0
		for _, c := range v.Chunks {
			sum += c.Stats.MeanLuma
		}
		return sum / float64(len(v.Chunks))
	}
	if !(meanLuma(Music) < meanLuma(IRL) && meanLuma(IRL) < meanLuma(Sports)) {
		t.Fatal("genre luminance ordering violated (Music < IRL < Sports expected)")
	}
}

func TestValidateCatchesBadChunks(t *testing.T) {
	v := genVideo(t, Gaming, 5)
	v.Chunks[2].Index = 7
	if err := v.Validate(); err == nil {
		t.Fatal("index mismatch accepted")
	}
	v = genVideo(t, Gaming, 5)
	v.Chunks[0].DurationSec = 0
	if err := v.Validate(); err == nil {
		t.Fatal("zero duration accepted")
	}
	if err := (&Video{ID: "", Chunks: []Chunk{{}}}).Validate(); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := (&Video{ID: "x"}).Validate(); err == nil {
		t.Fatal("chunkless video accepted")
	}
}

// powerRates is PowerRate over every chunk of v.
func powerRates(t *testing.T, spec display.Spec, v *Video) []float64 {
	t.Helper()
	out := make([]float64, len(v.Chunks))
	for i, c := range v.Chunks {
		p, err := PowerRate(spec, c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func TestPowerRatesPositive(t *testing.T) {
	v := genVideo(t, Esports, 40)
	for _, ty := range []display.Type{display.LCD, display.OLED} {
		for i, r := range powerRates(t, testSpec(ty), v) {
			if r <= 0 || r > 3 {
				t.Fatalf("%v chunk %d: implausible power %v W", ty, i, r)
			}
		}
	}
}

func TestOLEDPowerTracksContent(t *testing.T) {
	// A dark (Music) stream must cost an OLED panel less than a bright
	// (Sports) stream on average.
	spec := testSpec(display.OLED)
	rng := stats.NewRNG(5)
	dark, _ := Generate(rng, DefaultGenConfig("d", Music, 200))
	bright, _ := Generate(rng, DefaultGenConfig("b", Sports, 200))
	rd, rb := powerRates(t, spec, dark), powerRates(t, spec, bright)
	if stats.Mean(rd) >= stats.Mean(rb) {
		t.Fatalf("dark stream (%v W) not cheaper than bright (%v W) on OLED", stats.Mean(rd), stats.Mean(rb))
	}
}

func TestPowerRateRejectsBadChunk(t *testing.T) {
	if _, err := PowerRate(testSpec(display.LCD), Chunk{Index: -1, DurationSec: 1, BitrateKbps: 1}); err == nil {
		t.Fatal("bad chunk accepted")
	}
}

func TestGenreString(t *testing.T) {
	if Gaming.String() != "Gaming" || !strings.HasPrefix(Genre(42).String(), "Genre(") {
		t.Fatal("genre stringer")
	}
	if len(AllGenres()) != int(numGenres) {
		t.Fatal("AllGenres size")
	}
}

func TestGeneratedStatsAlwaysValidProperty(t *testing.T) {
	f := func(seed int64, g, n uint8) bool {
		cfg := DefaultGenConfig("p", Genre(int(g)%int(numGenres)), int(n%50)+1)
		v, err := Generate(stats.NewRNG(seed), cfg)
		if err != nil {
			return false
		}
		return v.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
