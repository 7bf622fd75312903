package transform

import (
	"math"
	"testing"
	"testing/quick"

	"lpvs/internal/display"
	"lpvs/internal/stats"
	"lpvs/internal/testenv"
	"lpvs/internal/video"
)

func spec(t display.Type) display.Spec {
	return display.Spec{Type: t, Resolution: display.Res1080p, DiagonalInch: 6, Brightness: 0.6}
}

func corpus(tb testing.TB, g video.Genre, n int) []display.ContentStats {
	tb.Helper()
	v, err := video.Generate(stats.NewRNG(17), video.DefaultGenConfig("c", g, n))
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]display.ContentStats, n)
	for i, c := range v.Chunks {
		out[i] = c.Stats
	}
	return out
}

func TestCatalogueMatchesTable1(t *testing.T) {
	cat := Catalogue()
	if len(cat) != 11 {
		t.Fatalf("catalogue size = %d, want 11 (5 LCD + 6 OLED)", len(cat))
	}
	nLCD := 0
	for _, s := range cat {
		if s.Target == display.LCD {
			nLCD++
		}
		if s.SavingLo <= 0 || s.SavingHi >= 1 || s.SavingLo >= s.SavingHi {
			t.Errorf("%q: bad saving range [%v, %v]", s.Name, s.SavingLo, s.SavingHi)
		}
	}
	if nLCD != 5 {
		t.Fatalf("LCD strategies = %d, want 5", nLCD)
	}
}

func TestAverageBoundsNearPaper(t *testing.T) {
	lo, hi := AverageBounds()
	// Paper: average 13%-49% across strategies.
	if math.Abs(lo-0.13) > 0.06 || math.Abs(hi-0.49) > 0.06 {
		t.Fatalf("average bounds [%v, %v], want near [0.13, 0.49]", lo, hi)
	}
}

func TestDefaultStrategies(t *testing.T) {
	if Default(display.LCD).Target != display.LCD {
		t.Fatal("LCD default targets wrong type")
	}
	if Default(display.OLED).Target != display.OLED {
		t.Fatal("OLED default targets wrong type")
	}
}

func TestPlannedSavingWithinPublishedRange(t *testing.T) {
	for _, s := range Catalogue() {
		genre := video.Music
		if s.Target == display.LCD {
			genre = video.Sports
		}
		for _, c := range corpus(t, genre, 100) {
			for _, tol := range []float64{0, 0.3, 0.7, 1} {
				got := s.PlannedSaving(c, tol)
				if got < s.SavingLo-1e-9 || got > s.SavingHi+1e-9 {
					t.Fatalf("%q: planned saving %v outside [%v, %v]", s.Name, got, s.SavingLo, s.SavingHi)
				}
			}
		}
	}
}

func TestPlannedSavingIncreasesWithTolerance(t *testing.T) {
	c := corpus(t, video.IRL, 1)[0]
	for _, s := range Catalogue() {
		if s.PlannedSaving(c, 0.2) > s.PlannedSaving(c, 0.9)+1e-12 {
			t.Fatalf("%q: planned saving decreases with tolerance", s.Name)
		}
	}
}

func TestApplyRejectsWrongDisplayType(t *testing.T) {
	s := Default(display.LCD)
	if _, err := s.Apply(spec(display.OLED), corpus(t, video.IRL, 1)[0], 0.5); err == nil {
		t.Fatal("LCD strategy accepted OLED spec")
	}
}

func TestApplyRejectsInvalidInput(t *testing.T) {
	s := Default(display.LCD)
	bad := spec(display.LCD)
	bad.Brightness = 7
	if _, err := s.Apply(bad, corpus(t, video.IRL, 1)[0], 0.5); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := s.Apply(spec(display.LCD), display.ContentStats{MeanLuma: 2, PeakLuma: 2}, 0.5); err == nil {
		t.Fatal("invalid content accepted")
	}
}

func TestLCDRealizedMatchesPlanned(t *testing.T) {
	// LCD power is content-independent, so the realised saving should hit
	// the planned target almost exactly (up to the backlight floor).
	s := Default(display.LCD)
	sp := spec(display.LCD)
	for _, c := range corpus(t, video.IRL, 50) {
		res, err := s.Apply(sp, c, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		planned := s.PlannedSaving(c, 0.6)
		got, err := RealizedSaving(sp, c, res)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-planned) > 0.02 {
			t.Fatalf("realized %v vs planned %v", got, planned)
		}
	}
}

func TestOLEDRealizedNearPlanned(t *testing.T) {
	s := Default(display.OLED)
	sp := spec(display.OLED)
	for _, c := range corpus(t, video.Gaming, 50) {
		res, err := s.Apply(sp, c, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		planned := s.PlannedSaving(c, 0.6)
		got, err := RealizedSaving(sp, c, res)
		if err != nil {
			t.Fatal(err)
		}
		// Channel-biased scaling and the driver-power floor keep the
		// realised value near, but not exactly at, the plan.
		if math.Abs(got-planned) > 0.10 {
			t.Fatalf("realized %v too far from planned %v", got, planned)
		}
	}
}

func TestApplyReducesPower(t *testing.T) {
	for _, s := range Catalogue() {
		sp := spec(s.Target)
		for _, c := range corpus(t, video.Sports, 20) {
			res, err := s.Apply(sp, c, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			saving, err := RealizedSaving(sp, c, res)
			if err != nil {
				t.Fatal(err)
			}
			if saving <= 0 {
				t.Fatalf("%q on %v: no power saved (%v)", s.Name, s.Target, saving)
			}
		}
	}
}

func TestQualityLossScalesWithSaving(t *testing.T) {
	s := Default(display.OLED)
	sp := spec(display.OLED)
	c := corpus(t, video.Gaming, 1)[0]
	gentle, err := s.Apply(sp, c, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	harsh, err := s.Apply(sp, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gentle.QualityLoss >= harsh.QualityLoss {
		t.Fatal("quality loss must grow with aggressiveness")
	}
	if harsh.QualityLoss > 1 || gentle.QualityLoss < 0 {
		t.Fatal("quality loss out of range")
	}
}

func TestTransformedStatsValidProperty(t *testing.T) {
	cat := Catalogue()
	f := func(seed int64, si uint8, tol uint8) bool {
		s := cat[int(si)%len(cat)]
		sp := spec(s.Target)
		rng := stats.NewRNG(seed)
		genre := video.AllGenres()[int(seed%int64(len(video.AllGenres()))+int64(len(video.AllGenres())))%len(video.AllGenres())]
		v, err := video.Generate(rng, video.DefaultGenConfig("p", genre, 1))
		if err != nil {
			return false
		}
		res, err := s.Apply(sp, v.Chunks[0].Stats, float64(tol%101)/100)
		if err != nil {
			return false
		}
		if res.Stats.Validate() != nil {
			return false
		}
		return res.BrightnessScale >= 0 && res.BrightnessScale <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRealizedSavingBounds(t *testing.T) {
	sp := spec(display.OLED)
	c := corpus(t, video.Music, 1)[0]
	res, err := Default(display.OLED).Apply(sp, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RealizedSaving(sp, c, res)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || got > 1 {
		t.Fatalf("realized saving %v outside [0, 1]", got)
	}
}

// TestDefaultAllocs pins the per-type defaults to their Table I entries
// — Catalogue()[2] for LCD, [7] for OLED — and holds Default to what a
// transformed chunk read can afford: no allocation. It built the whole
// 11-entry catalogue (576 B) to copy one entry out of it.
func TestDefaultAllocs(t *testing.T) {
	cat := Catalogue()
	if got := Default(display.LCD); got != cat[2] {
		t.Fatalf("Default(LCD) = %+v, want Catalogue()[2] %+v", got, cat[2])
	}
	if got := Default(display.OLED); got != cat[7] {
		t.Fatalf("Default(OLED) = %+v, want Catalogue()[7] %+v", got, cat[7])
	}
	if testenv.RaceEnabled {
		return
	}
	var lcd, oled Strategy
	if allocs := testing.AllocsPerRun(100, func() { lcd, oled = Default(display.LCD), Default(display.OLED) }); allocs != 0 {
		t.Fatalf("Default allocates %.0f times, want 0", allocs)
	}
	if lcd != cat[2] || oled != cat[7] {
		t.Fatalf("Default moved under repetition: %+v, %+v", lcd, oled)
	}
}
