// Package device models the mobile devices in a virtual cluster: their
// display specification, battery, non-display playback power, and the
// owner's video-watching behaviour (the give-up threshold behind the
// paper's time-per-viewer analysis).
//
// Batteries are tracked in joules; the energy status e_{n,m}(kappa) the
// scheduler consumes is the remaining fraction. Drain follows Eq. (5) of
// the paper: level decreases by power rate x chunk duration after each
// chunk.
package device

import (
	"fmt"

	"lpvs/internal/display"
	"lpvs/internal/stats"
)

// Battery tracks remaining charge in joules.
type Battery struct {
	CapacityJ float64
	LevelJ    float64
}

// NewBattery returns a battery with the given capacity at the given
// initial fraction (clamped to [0, 1]).
func NewBattery(capacityJ, initFrac float64) (Battery, error) {
	if capacityJ <= 0 {
		return Battery{}, fmt.Errorf("device: non-positive battery capacity %v", capacityJ)
	}
	return Battery{CapacityJ: capacityJ, LevelJ: capacityJ * stats.Clamp(initFrac, 0, 1)}, nil
}

// Fraction returns the remaining energy fraction in [0, 1].
func (b *Battery) Fraction() float64 {
	if b.CapacityJ <= 0 {
		return 0
	}
	return b.LevelJ / b.CapacityJ
}

// Drain removes energy, clamping at empty, and reports the energy
// actually drawn.
func (b *Battery) Drain(j float64) float64 {
	if j < 0 {
		panic("device: negative drain")
	}
	if j > b.LevelJ {
		j = b.LevelJ
	}
	b.LevelJ -= j
	return j
}

// Empty reports whether the battery is exhausted.
func (b *Battery) Empty() bool { return b.LevelJ <= 1e-9 }

// State is a viewer's watching status.
type State int

// Viewer lifecycle states.
const (
	// Watching: the viewer is actively playing the stream.
	Watching State = iota
	// GaveUp: battery anxiety made the viewer abandon the stream.
	GaveUp
	// BatteryDead: the device died mid-stream.
	BatteryDead
	// Finished: the stream ended while the viewer was still watching.
	Finished
)

var stateNames = [...]string{"Watching", "GaveUp", "BatteryDead", "Finished"}

// String implements fmt.Stringer.
func (s State) String() string {
	if int(s) >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Device is one mobile device in a virtual cluster.
type Device struct {
	ID      string
	Display display.Spec
	Battery Battery
	// BasePowerW is the non-display playback power draw (CPU, GPU,
	// network, audio) that video transforming cannot reduce.
	BasePowerW float64
	// GiveUpFrac is the battery fraction at which the owner abandons
	// video watching (from the survey's give-up question).
	GiveUpFrac float64

	// State tracks the owner's watching status.
	State State
	// WatchedSec accumulates actual watching time — the paper's
	// time-per-viewer (TPV) metric.
	WatchedSec float64
}

// Validate reports whether the device is well-formed.
func (d *Device) Validate() error {
	if d.ID == "" {
		return fmt.Errorf("device: empty ID")
	}
	if err := d.Display.Validate(); err != nil {
		return fmt.Errorf("device %s: %w", d.ID, err)
	}
	if d.Battery.CapacityJ <= 0 {
		return fmt.Errorf("device %s: no battery", d.ID)
	}
	if d.BasePowerW < 0 {
		return fmt.Errorf("device %s: negative base power", d.ID)
	}
	if d.GiveUpFrac < 0 || d.GiveUpFrac > 1 {
		return fmt.Errorf("device %s: give-up fraction %v outside [0, 1]", d.ID, d.GiveUpFrac)
	}
	return nil
}

// EnergyFrac returns the scheduler-facing energy status e in [0, 1].
func (d *Device) EnergyFrac() float64 { return d.Battery.Fraction() }

// Watch plays durSec seconds of content drawing displayPowerW on the
// display. The total device draw is displayPowerW + BasePowerW. Watching
// stops early if the battery crosses the owner's give-up threshold or
// dies; the method returns the seconds actually watched and updates the
// device state and TPV accounting.
func (d *Device) Watch(durSec, displayPowerW float64) float64 {
	if durSec < 0 || displayPowerW < 0 {
		panic("device: negative watch arguments")
	}
	if d.State != Watching {
		return 0
	}
	powerW := displayPowerW + d.BasePowerW
	watchable := durSec
	giveUpJ := d.GiveUpFrac * d.Battery.CapacityJ
	hitGiveUp := false

	if powerW > 0 {
		// Seconds until the give-up threshold is crossed.
		headroomJ := d.Battery.LevelJ - giveUpJ
		if headroomJ <= 0 {
			d.State = GaveUp
			return 0
		}
		untilGiveUp := headroomJ / powerW
		if untilGiveUp < watchable {
			watchable = untilGiveUp
			hitGiveUp = true
		}
	}
	d.Battery.Drain(powerW * watchable)
	d.WatchedSec += watchable
	switch {
	case d.Battery.Empty():
		// An empty battery dominates: the stream died with the device.
		d.State = BatteryDead
	case hitGiveUp:
		d.State = GaveUp
	}
	return watchable
}

// FinishStream marks the stream as over while the viewer survived it.
func (d *Device) FinishStream() {
	if d.State == Watching {
		d.State = Finished
	}
}

// LowBattery reports whether the device starts in the paper's
// "low-battery user" band: energy status in (0, 40%].
func (d *Device) LowBattery() bool {
	f := d.EnergyFrac()
	return f > 0 && f <= 0.40
}

// GenConfig parameterises random fleet generation. The Twitch trace
// carries no device information, so — like the paper's emulator — specs
// and energy states are assigned randomly.
type GenConfig struct {
	// OLEDShare is the fraction of OLED devices (vs LCD).
	OLEDShare float64
	// InitMean and InitStd shape the Gaussian initial energy status.
	InitMean, InitStd float64
	// BasePowerW is the mean non-display playback power.
	BasePowerW float64
	// GiveUpSampler draws a give-up fraction for each owner; nil means
	// a default uniform draw over (0, 0.2].
	GiveUpSampler func(*stats.RNG) float64
}

// DefaultGenConfig mirrors the paper's setup: energy states follow a
// Gaussian centred at 50%, and displays are split between the two
// technologies.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		OLEDShare:  0.5,
		InitMean:   0.5,
		InitStd:    0.2,
		BasePowerW: 0.3,
	}
}

// Battery capacities of typical 2019-era phones: 3000-4500 mAh at 3.85 V
// nominal, i.e. roughly 41-62 kJ.
const (
	minCapacityJ = 41_000.0
	maxCapacityJ = 62_000.0
)

// NewFleet generates n random devices. Resolution is chosen among the
// renditions the device's stream bitrate can feed; since the fleet is
// generated before streams are assigned, the full mobile ladder is used.
func NewFleet(rng *stats.RNG, n int, cfg GenConfig) ([]*Device, error) {
	if n <= 0 {
		return nil, fmt.Errorf("device: fleet size %d", n)
	}
	if cfg.OLEDShare < 0 || cfg.OLEDShare > 1 {
		return nil, fmt.Errorf("device: OLED share %v outside [0, 1]", cfg.OLEDShare)
	}
	sampler := cfg.GiveUpSampler
	if sampler == nil {
		sampler = func(r *stats.RNG) float64 { return r.Uniform(0.01, 0.2) }
	}
	resolutions := []display.Resolution{display.Res480p, display.Res720p, display.Res1080p, display.Res1440p}
	fleet := make([]*Device, n)
	for i := range fleet {
		ty := display.LCD
		if rng.Bool(cfg.OLEDShare) {
			ty = display.OLED
		}
		spec := display.Spec{
			Type:         ty,
			Resolution:   resolutions[rng.Categorical([]float64{0.1, 0.35, 0.45, 0.1})],
			DiagonalInch: rng.Uniform(5.4, 6.8),
			Brightness:   rng.Uniform(0.4, 0.85),
		}
		bat, err := NewBattery(rng.Uniform(minCapacityJ, maxCapacityJ),
			rng.TruncNormal(cfg.InitMean, cfg.InitStd, 0.02, 1))
		if err != nil {
			return nil, err
		}
		d := &Device{
			ID:         fmt.Sprintf("dev-%04d", i),
			Display:    spec,
			Battery:    bat,
			BasePowerW: stats.Clamp(rng.Normal(cfg.BasePowerW, 0.1), 0.2, 2),
			GiveUpFrac: stats.Clamp(sampler(rng), 0, 1),
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		fleet[i] = d
	}
	return fleet, nil
}
