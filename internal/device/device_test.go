package device

import (
	"math"
	"testing"
	"testing/quick"

	"lpvs/internal/display"
	"lpvs/internal/stats"
)

func testDevice(initFrac, giveUp float64) *Device {
	bat, err := NewBattery(10_000, initFrac)
	if err != nil {
		panic(err)
	}
	return &Device{
		ID:         "d1",
		Display:    display.Spec{Type: display.OLED, Resolution: display.Res1080p, DiagonalInch: 6, Brightness: 0.6},
		Battery:    bat,
		BasePowerW: 1,
		GiveUpFrac: giveUp,
	}
}

func TestNewBattery(t *testing.T) {
	b, err := NewBattery(1000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if b.LevelJ != 500 || b.Fraction() != 0.5 {
		t.Fatalf("bad battery: %+v", b)
	}
	if _, err := NewBattery(0, 0.5); err == nil {
		t.Fatal("zero capacity accepted")
	}
	// Clamping of the fraction.
	b, _ = NewBattery(1000, 1.5)
	if b.Fraction() != 1 {
		t.Fatal("fraction not clamped")
	}
}

func TestBatteryDrain(t *testing.T) {
	b, _ := NewBattery(1000, 1)
	if got := b.Drain(300); got != 300 {
		t.Fatalf("drained %v, want 300", got)
	}
	if got := b.Drain(900); got != 700 {
		t.Fatalf("over-drain returned %v, want 700", got)
	}
	if !b.Empty() {
		t.Fatal("battery should be empty")
	}
}

func TestBatteryDrainPanicsOnNegative(t *testing.T) {
	b, _ := NewBattery(1000, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Drain(-1)
}

func TestWatchDrainsBattery(t *testing.T) {
	d := testDevice(1, 0) // no give-up
	// 10 kJ at 1 W display + 1 W base = 2 W total; 100 s drains 200 J.
	watched := d.Watch(100, 1)
	if watched != 100 {
		t.Fatalf("watched %v, want 100", watched)
	}
	if math.Abs(d.Battery.LevelJ-9800) > 1e-9 {
		t.Fatalf("level = %v, want 9800", d.Battery.LevelJ)
	}
	if d.WatchedSec != 100 {
		t.Fatalf("TPV = %v, want 100", d.WatchedSec)
	}
	if d.State != Watching {
		t.Fatalf("state = %v, want Watching", d.State)
	}
}

func TestWatchStopsAtGiveUpThreshold(t *testing.T) {
	d := testDevice(0.25, 0.2) // 2500 J level, gives up at 2000 J
	// 2 W total: 500 J headroom = 250 s.
	watched := d.Watch(1000, 1)
	if math.Abs(watched-250) > 1e-9 {
		t.Fatalf("watched %v, want 250", watched)
	}
	if d.State != GaveUp {
		t.Fatalf("state = %v, want GaveUp", d.State)
	}
	if math.Abs(d.EnergyFrac()-0.2) > 1e-9 {
		t.Fatalf("energy = %v, want 0.2", d.EnergyFrac())
	}
	// Further watching is refused.
	if d.Watch(100, 1) != 0 {
		t.Fatal("watching after give-up")
	}
}

func TestWatchAlreadyBelowThreshold(t *testing.T) {
	d := testDevice(0.1, 0.2)
	if d.Watch(100, 1) != 0 {
		t.Fatal("watched despite starting under the give-up level")
	}
	if d.State != GaveUp {
		t.Fatalf("state = %v, want GaveUp", d.State)
	}
}

func TestWatchUntilBatteryDead(t *testing.T) {
	d := testDevice(0.04, 0) // 400 J, no give-up threshold
	watched := d.Watch(1000, 1)
	if math.Abs(watched-200) > 1e-9 { // 400 J / 2 W
		t.Fatalf("watched %v, want 200", watched)
	}
	if d.State != BatteryDead {
		t.Fatalf("state = %v, want BatteryDead", d.State)
	}
}

func TestWatchLowerPowerExtendsTPV(t *testing.T) {
	full := testDevice(0.25, 0.2)
	saved := testDevice(0.25, 0.2)
	tFull := full.Watch(1e6, 1.0)
	tSaved := saved.Watch(1e6, 0.6) // transformed stream: dimmer display
	if tSaved <= tFull {
		t.Fatalf("power saving did not extend watching: %v vs %v", tSaved, tFull)
	}
}

func TestWatchPanicsOnNegative(t *testing.T) {
	d := testDevice(1, 0)
	for _, args := range [][2]float64{{-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			d.Watch(args[0], args[1])
		}()
	}
}

func TestFinishStream(t *testing.T) {
	d := testDevice(1, 0)
	d.Watch(10, 1)
	d.FinishStream()
	if d.State != Finished {
		t.Fatalf("state = %v, want Finished", d.State)
	}
	// Finishing must not override a give-up.
	g := testDevice(0.1, 0.2)
	g.Watch(1, 1)
	g.FinishStream()
	if g.State != GaveUp {
		t.Fatalf("state = %v, want GaveUp preserved", g.State)
	}
}

func TestLowBattery(t *testing.T) {
	if !testDevice(0.3, 0).LowBattery() {
		t.Fatal("0.3 should be low battery")
	}
	if testDevice(0.5, 0).LowBattery() {
		t.Fatal("0.5 should not be low battery")
	}
	if testDevice(0, 0).LowBattery() {
		t.Fatal("empty battery is not a low-battery *user*")
	}
}

func TestValidate(t *testing.T) {
	good := testDevice(0.5, 0.1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testDevice(0.5, 0.1)
	bad.ID = ""
	if bad.Validate() == nil {
		t.Fatal("empty ID accepted")
	}
	bad = testDevice(0.5, 0.1)
	bad.GiveUpFrac = 1.2
	if bad.Validate() == nil {
		t.Fatal("bad give-up accepted")
	}
	bad = testDevice(0.5, 0.1)
	bad.BasePowerW = -1
	if bad.Validate() == nil {
		t.Fatal("negative base power accepted")
	}
	bad = testDevice(0.5, 0.1)
	bad.Display.DiagonalInch = 0
	if bad.Validate() == nil {
		t.Fatal("bad display accepted")
	}
}

func TestNewFleet(t *testing.T) {
	fleet, err := NewFleet(stats.NewRNG(2), 500, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 500 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	nOLED := 0
	for _, d := range fleet {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if d.Display.Type == display.OLED {
			nOLED++
		}
		if f := d.EnergyFrac(); f < 0.02 || f > 1 {
			t.Fatalf("initial energy %v outside [0.02, 1]", f)
		}
	}
	if share := float64(nOLED) / 500; math.Abs(share-0.5) > 0.1 {
		t.Fatalf("OLED share %v, want about 0.5", share)
	}
}

func TestNewFleetEnergyGaussian(t *testing.T) {
	fleet, err := NewFleet(stats.NewRNG(3), 2000, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	fracs := make([]float64, len(fleet))
	for i, d := range fleet {
		fracs[i] = d.EnergyFrac()
	}
	mean, ss := stats.Mean(fracs), 0.0
	for _, f := range fracs {
		ss += (f - mean) * (f - mean)
	}
	if math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("mean initial energy %v, want about 0.5", mean)
	}
	if std := math.Sqrt(ss / float64(len(fracs)-1)); std < 0.1 || std > 0.3 {
		t.Fatalf("energy spread %v, want Gaussian-like around 0.2", std)
	}
}

func TestNewFleetErrors(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := NewFleet(rng, 0, DefaultGenConfig()); err == nil {
		t.Fatal("zero fleet accepted")
	}
	cfg := DefaultGenConfig()
	cfg.OLEDShare = 2
	if _, err := NewFleet(rng, 5, cfg); err == nil {
		t.Fatal("bad OLED share accepted")
	}
}

func TestNewFleetCustomGiveUpSampler(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.GiveUpSampler = func(*stats.RNG) float64 { return 0.33 }
	fleet, err := NewFleet(stats.NewRNG(4), 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet {
		if d.GiveUpFrac != 0.33 {
			t.Fatalf("sampler ignored: %v", d.GiveUpFrac)
		}
	}
}

func TestWatchEnergyConservationProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := stats.NewRNG(seed)
		d := testDevice(rng.Uniform(0.1, 1), rng.Uniform(0, 0.3))
		before := d.Battery.LevelJ
		total := 0.0
		for i := 0; i < int(steps%20); i++ {
			dur := rng.Uniform(1, 300)
			pw := rng.Uniform(0.1, 2)
			watched := d.Watch(dur, pw)
			total += watched * (pw + d.BasePowerW)
		}
		return math.Abs((before-d.Battery.LevelJ)-total) < 1e-6*before+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	if Watching.String() != "Watching" || GaveUp.String() != "GaveUp" ||
		BatteryDead.String() != "BatteryDead" || Finished.String() != "Finished" {
		t.Fatal("state stringer")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state stringer")
	}
}
