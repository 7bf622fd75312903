package persist

import (
	"fmt"
	"os"
	"sort"

	"lpvs/internal/anxiety"
	"lpvs/internal/bayes"
	"lpvs/internal/display"
	"lpvs/internal/obs/audit"
	"lpvs/internal/scheduler"
	"lpvs/internal/video"
)

// Daemon-state payload identity.
const (
	// StateKind names the lpvsd warm-restart snapshot payload.
	StateKind = "lpvsd-state"
	// StateVersion is the payload schema version; bump on any layout
	// change so old daemons refuse new snapshots (and vice versa)
	// instead of misreading them.
	StateVersion = 1
	// SnapshotFile is the file name the daemon reads and writes inside
	// its snapshot directory.
	SnapshotFile = "snapshot.lpvs"
)

// DeviceState is one device's durable daemon-side state: the learned
// Bayesian posterior plus the bookkeeping the decision and explain
// endpoints need across a restart.
type DeviceState struct {
	ID      string
	Channel string
	Display display.Spec
	// Transform is the device's last decided verdict.
	Transform bool
	// Slot is the slot that verdict was decided in.
	Slot int
	// Estimator is the gamma posterior (persistent fields only; the
	// derived Gamma/Uncertainty values are recomputed on restore).
	Estimator bayes.Snapshot
}

// Snapshot is the daemon's durable state (DESIGN.md §14): everything a
// warm-restarted lpvsd needs to keep making byte-identical decisions —
// the slot counter, every device's posterior and verdict, and the
// staged report set for the upcoming tick. Chunk keyframes are
// not captured (mirroring the audit schema): the scheduler decides from
// aggregate content statistics, so dropping them is decision-neutral.
// Scheduler caches are not captured either; a restored daemon's first
// tick solves cold and decides the same bytes.
//
// The layout ends with a stream section that is always empty on
// encode. Snapshots written before the scheduler's cross-slot warm
// start was removed carry entries there (key, config signature, the
// previous slot's Phase-1 picks); the decoder checks their framing and
// drops them, so those files still restore.
type Snapshot struct {
	// Slot is the next scheduling slot counter.
	Slot int
	// Devices holds per-device durable state, sorted by ID on encode.
	Devices []DeviceState
	// Pending holds the reports staged for the next tick, sorted by
	// device ID on encode.
	Pending []scheduler.Request
}

// Encode frames the snapshot as a checksummed container. Collections
// are sorted first, so encoding is canonical: encode→decode→encode is
// byte-identical.
func (s *Snapshot) Encode() ([]byte, error) {
	devices := append([]DeviceState(nil), s.Devices...)
	sort.Slice(devices, func(i, j int) bool { return devices[i].ID < devices[j].ID })
	pending := append([]scheduler.Request(nil), s.Pending...)
	sort.Slice(pending, func(i, j int) bool { return pending[i].DeviceID < pending[j].DeviceID })

	var e Enc
	e.Int64(int64(s.Slot))
	e.Uint64(uint64(len(devices)))
	for i := range devices {
		d := &devices[i]
		e.String(d.ID)
		e.String(d.Channel)
		encDisplay(&e, d.Display)
		e.Bool(d.Transform)
		e.Int64(int64(d.Slot))
		encEstimator(&e, d.Estimator)
	}
	e.Uint64(uint64(len(pending)))
	for i := range pending {
		if err := encRequest(&e, &pending[i]); err != nil {
			return nil, err
		}
	}
	e.Uint64(0) // the stream section: always empty
	return EncodeContainer(StateKind, StateVersion, e.Data()), nil
}

// DecodeSnapshot parses a daemon-state container. Decoding is
// structural — framing, checksum, versions, value shapes — and fails
// closed on any defect; semantic validation (estimator parameters,
// display specs, request invariants) happens when the state is applied
// to a server, so recovery can still fall to the next path.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	payload, err := DecodeContainer(data, StateKind, StateVersion)
	if err != nil {
		return nil, err
	}
	d := NewDec(payload)
	s := &Snapshot{Slot: int(d.Int64())}
	if n := d.Count(8); n > 0 {
		s.Devices = make([]DeviceState, n)
		for i := range s.Devices {
			ds := &s.Devices[i]
			ds.ID = d.String()
			ds.Channel = d.String()
			ds.Display = decDisplay(d)
			ds.Transform = d.Bool()
			ds.Slot = int(d.Int64())
			ds.Estimator = decEstimator(d)
		}
	}
	if n := d.Count(8); n > 0 {
		s.Pending = make([]scheduler.Request, n)
		for i := range s.Pending {
			s.Pending[i] = decRequest(d)
		}
	}
	for n := d.Count(8); n > 0; n-- { // an older file's stream entries
		_ = d.String() // key
		_ = d.Bytes()  // config signature
		for m := d.Count(8); m > 0; m-- {
			_ = d.String() // a Phase-1 pick
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, d.Remaining())
	}
	return s, nil
}

// WriteFile encodes the snapshot and writes it atomically.
func (s *Snapshot) WriteFile(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// LoadSnapshot reads and decodes a daemon-state file. Filesystem
// errors (notably fs.ErrNotExist) pass through unwrapped so callers
// can distinguish "no snapshot yet" from "snapshot unusable".
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}

// encEstimator writes the posterior's persistent fields; the derived
// Gamma/Uncertainty values are recomputed on restore.
func encEstimator(e *Enc, s bayes.Snapshot) {
	e.Float64(s.Mean)
	e.Float64(s.Sigma)
	e.Float64(s.ObsSigma)
	e.Float64(s.Lo)
	e.Float64(s.Hi)
	e.Int64(int64(s.Observations))
}

func decEstimator(d *Dec) bayes.Snapshot {
	return bayes.Snapshot{
		Mean:         d.Float64(),
		Sigma:        d.Float64(),
		ObsSigma:     d.Float64(),
		Lo:           d.Float64(),
		Hi:           d.Float64(),
		Observations: int(d.Int64()),
	}
}

func encDisplay(e *Enc, sp display.Spec) {
	e.Byte(byte(sp.Type))
	e.Int64(int64(sp.Resolution.Width))
	e.Int64(int64(sp.Resolution.Height))
	e.Float64(sp.DiagonalInch)
	e.Float64(sp.Brightness)
}

func decDisplay(d *Dec) display.Spec {
	var sp display.Spec
	switch ty := d.Byte(); ty {
	case byte(display.LCD):
		sp.Type = display.LCD
	case byte(display.OLED):
		sp.Type = display.OLED
	default:
		d.fail(fmt.Errorf("%w: display type 0x%02x", ErrCorrupt, ty))
	}
	sp.Resolution.Width = int(d.Int64())
	sp.Resolution.Height = int(d.Int64())
	sp.DiagonalInch = d.Float64()
	sp.Brightness = d.Float64()
	return sp
}

// Anxiety model tags. The persist schema reuses the audit taxonomy
// (audit.AnxietyRecord): nil and the closed-form kinds round-trip;
// "custom" models cannot be rebuilt from data and refuse to encode.
const (
	anxietyNil       = 0
	anxietyCanonical = 1
	anxietyRescaled  = 2
)

func encAnxiety(e *Enc, m anxiety.Model) error {
	if m == nil {
		e.Byte(anxietyNil)
		return nil
	}
	rec := audit.NewAnxietyRecord(m)
	switch rec.Kind {
	case "canonical":
		e.Byte(anxietyCanonical)
	case "rescaled":
		e.Byte(anxietyRescaled)
	default:
		return fmt.Errorf("persist: anxiety model %T is not snapshotable", m)
	}
	e.Float64(rec.AnxietyAtWarning)
	e.Float64(rec.ConvexPower)
	e.Float64(rec.ConcavePower)
	e.Float64(rec.Warning)
	return nil
}

func decAnxiety(d *Dec) anxiety.Model {
	var rec audit.AnxietyRecord
	switch tag := d.Byte(); tag {
	case anxietyNil:
		return nil
	case anxietyCanonical:
		rec.Kind = "canonical"
	case anxietyRescaled:
		rec.Kind = "rescaled"
	default:
		d.fail(fmt.Errorf("%w: anxiety tag 0x%02x", ErrCorrupt, tag))
		return nil
	}
	rec.AnxietyAtWarning = d.Float64()
	rec.ConvexPower = d.Float64()
	rec.ConcavePower = d.Float64()
	rec.Warning = d.Float64()
	if d.err != nil {
		return nil
	}
	m, err := rec.Model()
	if err != nil {
		d.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return nil
	}
	return m
}

func encRequest(e *Enc, r *scheduler.Request) error {
	e.String(r.DeviceID)
	encDisplay(e, r.Display)
	e.Float64(r.EnergyFrac)
	e.Float64(r.BatteryCapacityJ)
	e.Float64(r.BasePowerW)
	e.Float64(r.Gamma)
	if err := encAnxiety(e, r.Anxiety); err != nil {
		return fmt.Errorf("%v (pending report %s)", err, r.DeviceID)
	}
	e.Uint64(uint64(len(r.Chunks)))
	for i := range r.Chunks {
		c := &r.Chunks[i]
		e.Int64(int64(c.Index))
		e.Float64(c.DurationSec)
		e.Int64(int64(c.BitrateKbps))
		e.Float64(c.Stats.MeanLuma)
		e.Float64(c.Stats.PeakLuma)
		e.Float64(c.Stats.MeanR)
		e.Float64(c.Stats.MeanG)
		e.Float64(c.Stats.MeanB)
	}
	return nil
}

func decRequest(d *Dec) scheduler.Request {
	r := scheduler.Request{DeviceID: d.String()}
	r.Display = decDisplay(d)
	r.EnergyFrac = d.Float64()
	r.BatteryCapacityJ = d.Float64()
	r.BasePowerW = d.Float64()
	r.Gamma = d.Float64()
	r.Anxiety = decAnxiety(d)
	if n := d.Count(8); n > 0 {
		r.Chunks = make([]video.Chunk, n)
		for i := range r.Chunks {
			c := &r.Chunks[i]
			c.Index = int(d.Int64())
			c.DurationSec = d.Float64()
			c.BitrateKbps = int(d.Int64())
			c.Stats.MeanLuma = d.Float64()
			c.Stats.PeakLuma = d.Float64()
			c.Stats.MeanR = d.Float64()
			c.Stats.MeanG = d.Float64()
			c.Stats.MeanB = d.Float64()
		}
	}
	return r
}
