// Package wire owns the device slot report — the paper's "information
// gathering" message, the payload of POST /v1/report — in both of its
// framings, and the one reader that turns a request body into reports
// (ReadReport; DESIGN.md §18). The edge daemon and the router both
// ingest through it, so the choice of framing, the record cap and every
// decode error are decided here once.
//
// A body is one of two framings, chosen by its Content-Type: a binary
// batch under application/x-lpvs-report (ContentType), or one JSON
// report under any other (ReportRequest's tags). The binary codec
// (DESIGN.md §16) is a versioned, length-prefixed format; it exists
// because at large fleets the JSON decode of the report hot path
// dominates the per-request cost, ahead of scheduling itself.
//
// Framing (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "LPWR"
//	4       1     format version (1)
//	5       1     kind: 2 = batch (any other kind is refused, ErrKind)
//	6       4     u32 record count
//	then, per record:
//	        4     u32 record length L
//	        L     record payload (layout below)
//
// Record payload, version 1:
//
//	1     display type: 0 = LCD, 1 = OLED
//	4     u32 width
//	4     u32 height
//	8     f64 diagonal_inch
//	8     f64 brightness
//	8     f64 energy_frac
//	8     f64 battery_capacity_j
//	8     f64 base_power_w
//	2+n   u16 length-prefixed device_id
//	2+m   u16 length-prefixed channel_id
//
// The record length must equal the payload's exact size and the stream
// must end immediately after the last record — both are checked, so a
// decoded batch re-encodes to byte-identical input (the fuzz target's
// round-trip invariant). Decoding fails closed with the same
// sentinel-error discipline as internal/persist: truncation, bit
// flips, over-long strings and version skew each yield a typed error
// and no partial result.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"lpvs/internal/display"
)

// ContentType selects the binary batch framing on POST /v1/report.
const ContentType = "application/x-lpvs-report"

// Framing constants.
const (
	magic   = "LPWR"
	Version = 1

	// KindBatch frames a counted sequence of reports, the one kind.
	KindBatch byte = 2

	// MaxStringBytes bounds one string field (device or channel ID);
	// longer IDs cannot be framed and are rejected on decode.
	MaxStringBytes = 512
	// fixedRecordBytes is the size of a record's fixed-width fields.
	fixedRecordBytes = 1 + 4 + 4 + 5*8
	// MaxRecordBytes bounds one framed record payload, so a corrupted
	// length prefix can never drive a large allocation.
	MaxRecordBytes = fixedRecordBytes + 2*(2+MaxStringBytes)
	// MaxCount bounds a batch's declared record count; a count beyond
	// it is treated as corruption before any record is read.
	MaxCount = 1 << 24

	headerBytes = len(magic) + 2
)

// Sentinel decode failures, matchable with errors.Is. Every framing
// error of this package wraps exactly one of them; transport read
// failures stay matchable with errors.As, so callers can classify them
// (e.g. *http.MaxBytesError as a 413).
var (
	ErrTruncated = errors.New("wire: truncated report")
	ErrBadMagic  = errors.New("wire: bad report magic")
	ErrVersion   = errors.New("wire: unsupported report version")
	ErrKind      = errors.New("wire: unknown report kind")
	ErrCorrupt   = errors.New("wire: corrupt report")
)

// ReportRequest is a device's slot report (information gathering).
// It is the payload of POST /v1/report in both framings: the JSON tags
// define a single report's, AppendBatch the binary batch's.
type ReportRequest struct {
	DeviceID string `json:"device_id"`
	// ChannelID selects which of the site's streams the device watches;
	// empty means the default stream.
	ChannelID        string  `json:"channel_id,omitempty"`
	DisplayType      string  `json:"display_type"` // "LCD" or "OLED"
	Width            int     `json:"width"`
	Height           int     `json:"height"`
	DiagonalInch     float64 `json:"diagonal_inch"`
	Brightness       float64 `json:"brightness"`
	EnergyFrac       float64 `json:"energy_frac"`
	BatteryCapacityJ float64 `json:"battery_capacity_j"`
	BasePowerW       float64 `json:"base_power_w"`
}

// Spec converts the wire form to a display spec.
func (r ReportRequest) Spec() (display.Spec, error) {
	ty := display.LCD
	switch r.DisplayType {
	case "LCD":
	case "OLED":
		ty = display.OLED
	default:
		return display.Spec{}, errBadDisplayType(r.DisplayType)
	}
	s := display.Spec{
		Type:         ty,
		Resolution:   display.Resolution{Width: r.Width, Height: r.Height},
		DiagonalInch: r.DiagonalInch,
		Brightness:   r.Brightness,
	}
	return s, s.Validate()
}

type errBadDisplayType string

func (e errBadDisplayType) Error() string {
	return "server: unknown display type " + string(e)
}

// encodable reports whether the binary codec can frame r: only the two
// display types have a wire byte, and strings must fit a u16-prefixed
// field. JSON can carry anything (the server rejects it with a 400);
// the binary encoder refuses up front.
func encodable(r *ReportRequest) error {
	if r.DisplayType != "LCD" && r.DisplayType != "OLED" {
		return fmt.Errorf("%w: display type %q has no wire encoding", ErrCorrupt, r.DisplayType)
	}
	if len(r.DeviceID) > MaxStringBytes {
		return fmt.Errorf("%w: device ID of %d bytes exceeds %d", ErrCorrupt, len(r.DeviceID), MaxStringBytes)
	}
	if len(r.ChannelID) > MaxStringBytes {
		return fmt.Errorf("%w: channel ID of %d bytes exceeds %d", ErrCorrupt, len(r.ChannelID), MaxStringBytes)
	}
	if r.Width < 0 || uint64(r.Width) > math.MaxUint32 || r.Height < 0 || uint64(r.Height) > math.MaxUint32 {
		return fmt.Errorf("%w: resolution %dx%d outside u32", ErrCorrupt, r.Width, r.Height)
	}
	return nil
}

// recordSize returns the framed payload size of one report.
func recordSize(r *ReportRequest) int {
	return fixedRecordBytes + 2 + len(r.DeviceID) + 2 + len(r.ChannelID)
}

// appendHeader frames the magic, version and kind.
func appendHeader(dst []byte) []byte {
	dst = append(dst, magic...)
	return append(dst, Version, KindBatch)
}

// appendRecord frames one length-prefixed record payload.
func appendRecord(dst []byte, r *ReportRequest) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(recordSize(r)))
	var ty byte
	if r.DisplayType == "OLED" {
		ty = 1
	}
	dst = append(dst, ty)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Width))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Height))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.DiagonalInch))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Brightness))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.EnergyFrac))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.BatteryCapacityJ))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.BasePowerW))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.DeviceID)))
	dst = append(dst, r.DeviceID...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.ChannelID)))
	dst = append(dst, r.ChannelID...)
	return dst
}

// AppendBatch frames a report batch as a KindBatch message, appending
// to dst. The frame's exact size is reserved before its first byte, so
// a fresh dst costs one allocation and a reused one with room none. An
// unencodable report fails the whole batch before any bytes are
// appended beyond dst's original length.
func AppendBatch(dst []byte, reqs []ReportRequest) ([]byte, error) {
	if len(reqs) > MaxCount {
		return dst, fmt.Errorf("%w: %d records exceed the %d frame cap", ErrCorrupt, len(reqs), MaxCount)
	}
	for i := range reqs {
		if err := encodable(&reqs[i]); err != nil {
			return dst, fmt.Errorf("record %d: %w", i, err)
		}
	}
	dst = slices.Grow(dst, EncodedBatchSize(reqs))
	dst = appendHeader(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(reqs)))
	for i := range reqs {
		dst = appendRecord(dst, &reqs[i])
	}
	return dst, nil
}

// EncodedBatchSize returns the exact framed size of a batch: the
// length AppendBatch appends, and so the capacity it reserves.
func EncodedBatchSize(reqs []ReportRequest) int {
	n := headerBytes + 4
	for i := range reqs {
		n += 4 + recordSize(&reqs[i])
	}
	return n
}
