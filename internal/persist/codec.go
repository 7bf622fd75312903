// Package persist implements the LPVS durable-state container
// (DESIGN.md §14): a versioned, length-prefixed, SHA-256-checksummed
// binary envelope plus the one payload built on it, the daemon's
// warm-restart state (Snapshot). The flight recorder's incident
// bundles (internal/obs/flight) travel in the same envelope.
//
// Decoding fails closed: a truncated, tampered, version-skewed, or
// trailing-garbage file yields a typed error and nothing else, so a
// restoring process can fall back to the next recovery path (audit
// replay, then cold start) instead of loading partial state. Encoding
// is canonical — map-backed collections are sorted before framing —
// so encode→decode→encode is byte-stable.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Container framing, common to every snapshot kind:
//
//	offset  size  field
//	0       8     magic "LPVSSNAP"
//	8       8     container version (u64 LE)
//	16      8+k   kind (u64 length prefix + k bytes)
//	...     8     payload schema version (u64 LE)
//	...     8+n   payload (u64 length prefix + n bytes)
//	...     32    SHA-256 over every preceding byte
//
// The container version governs this framing; each kind's payload
// schema versions independently.
const (
	Magic            = "LPVSSNAP"
	ContainerVersion = 1

	checksumSize = sha256.Size
)

// Sentinel decode failures, matchable with errors.Is. Every decode
// error wraps exactly one of them.
var (
	ErrTruncated = errors.New("persist: truncated snapshot")
	ErrBadMagic  = errors.New("persist: bad snapshot magic")
	ErrChecksum  = errors.New("persist: snapshot checksum mismatch")
	ErrVersion   = errors.New("persist: unsupported snapshot version")
	ErrKind      = errors.New("persist: wrong snapshot kind")
	ErrCorrupt   = errors.New("persist: corrupt snapshot payload")
)

// EncodeContainer frames a payload in the versioned, checksummed
// envelope above.
func EncodeContainer(kind string, payloadVersion uint64, payload []byte) []byte {
	var e Enc
	e.b = make([]byte, 0, len(Magic)+3*8+len(kind)+8+len(payload)+checksumSize)
	e.b = append(e.b, Magic...)
	e.Uint64(ContainerVersion)
	e.String(kind)
	e.Uint64(payloadVersion)
	e.Bytes(payload)
	sum := sha256.Sum256(e.b)
	return append(e.b, sum[:]...)
}

// DecodeContainer validates the envelope — magic, container version,
// exact length, checksum, kind, payload version, in that order (the
// container version gates the rest of the layout, so it is the one
// field read before the checksum) — and returns the payload.
func DecodeContainer(data []byte, kind string, payloadVersion uint64) ([]byte, error) {
	if len(data) < len(Magic) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	d := Dec{b: data, off: len(Magic)}
	cv := d.Uint64()
	if d.err != nil {
		return nil, d.err
	}
	if cv != ContainerVersion {
		return nil, fmt.Errorf("%w: container version %d, want %d", ErrVersion, cv, ContainerVersion)
	}
	gotKind := d.String()
	pv := d.Uint64()
	payload := d.Bytes()
	if d.err != nil {
		return nil, d.err
	}
	switch rest := len(data) - d.off; {
	case rest < checksumSize:
		return nil, fmt.Errorf("%w: missing checksum trailer", ErrTruncated)
	case rest > checksumSize:
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, rest-checksumSize)
	}
	sum := sha256.Sum256(data[:d.off])
	if !bytes.Equal(sum[:], data[d.off:]) {
		return nil, ErrChecksum
	}
	if gotKind != kind {
		return nil, fmt.Errorf("%w: kind %q, want %q", ErrKind, gotKind, kind)
	}
	if pv != payloadVersion {
		return nil, fmt.Errorf("%w: %s payload version %d, want %d", ErrVersion, kind, pv, payloadVersion)
	}
	return payload, nil
}

// Enc is an append-only little-endian encoder. Variable-length values
// carry a u64 length prefix; floats are raw IEEE 754 bits, so every
// value — including NaNs and signed zeros — round-trips exactly.
type Enc struct {
	b []byte
}

// Uint64 appends v little-endian.
func (e *Enc) Uint64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

// Int64 appends v as its two's-complement bits.
func (e *Enc) Int64(v int64) { e.Uint64(uint64(v)) }

// Float64 appends v's IEEE 754 bits.
func (e *Enc) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Byte appends one raw byte.
func (e *Enc) Byte(v byte) { e.b = append(e.b, v) }

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uint64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Enc) Bytes(p []byte) {
	e.Uint64(uint64(len(p)))
	e.b = append(e.b, p...)
}

// Data returns the encoded bytes.
func (e *Enc) Data() []byte { return e.b }

// Dec is the matching sticky-error decoder: the first failure poisons
// the stream and every later read returns the zero value, so decode
// functions can read a whole structure and check Err once. Length
// prefixes are bounds-checked against the remaining input before any
// allocation, which keeps hostile inputs (fuzzing, corrupted files)
// from requesting huge buffers.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns how many undecoded bytes are left.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uint64 reads a little-endian u64.
func (d *Dec) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail(fmt.Errorf("%w: want 8 bytes at offset %d, have %d", ErrTruncated, d.off, d.Remaining()))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// Int64 reads a two's-complement i64.
func (d *Dec) Int64() int64 { return int64(d.Uint64()) }

// Float64 reads IEEE 754 bits.
func (d *Dec) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 1 {
		d.fail(fmt.Errorf("%w: want 1 byte at offset %d", ErrTruncated, d.off))
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads one byte and requires it to be exactly 0 or 1 — anything
// else is corruption, not a truthy value (strictness keeps
// encode→decode→encode byte-stable).
func (d *Dec) Bool() bool {
	switch v := d.Byte(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: bool byte 0x%02x at offset %d", ErrCorrupt, v, d.off-1))
		return false
	}
}

// length reads a u64 length prefix bounded by the remaining input.
func (d *Dec) length() int {
	n := d.Uint64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Errorf("%w: length %d exceeds %d remaining bytes at offset %d", ErrTruncated, n, d.Remaining(), d.off-8))
		return 0
	}
	return int(n)
}

// Count reads a u64 element count for a collection whose elements each
// occupy at least minBytesPer encoded bytes, bounding the count by the
// remaining input so corrupted counts cannot drive huge allocations.
func (d *Dec) Count(minBytesPer int) int {
	if minBytesPer < 1 {
		minBytesPer = 1
	}
	n := d.Uint64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()/minBytesPer) {
		d.fail(fmt.Errorf("%w: count %d exceeds %d remaining bytes at offset %d", ErrTruncated, n, d.Remaining(), d.off-8))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.length()
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// Bytes reads a length-prefixed byte slice (copied, so the result does
// not alias the input buffer).
func (d *Dec) Bytes() []byte {
	n := d.length()
	if d.err != nil {
		return nil
	}
	p := append([]byte(nil), d.b[d.off:d.off+n]...)
	d.off += n
	return p
}
