package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// maxInternEntries bounds the decoder's string intern table. A fleet
// reuses the same device and channel IDs every slot, so the table
// converges and decode stops allocating; an adversarial stream of
// unique IDs just cycles the table instead of growing it without
// bound.
const maxInternEntries = 1 << 17

// Decoder is a streaming batch decoder: it reads framed reports
// record by record from an io.Reader — an HTTP body decodes as it
// arrives, never buffered whole — into caller-owned ReportRequest
// storage. The decoder holds a fixed record scratch buffer and a
// string intern table, so a Reset-reused decoder's steady state
// allocates nothing per record. It is not safe for concurrent use;
// pool them instead (a Scratch carries one; internal/server keeps a
// free list of those).
//
// Errors are sticky: after the first failure every call returns it.
// Framing failures wrap the package sentinels; transport read errors
// pass through unwrapped (so e.g. *http.MaxBytesError stays
// classifiable).
type Decoder struct {
	r       io.Reader
	scratch []byte // one record, cap MaxRecordBytes
	hdr     [headerBytes + 4]byte
	intern  map[string]string

	count int // records declared
	next  int // records decoded so far
	began bool
	read  int64 // total bytes consumed
	err   error
}

// NewDecoder returns a decoder over r. Reset re-arms it for another
// stream, keeping the scratch buffer and intern table warm.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{
		scratch: make([]byte, MaxRecordBytes),
		intern:  make(map[string]string),
	}
	d.Reset(r)
	return d
}

// Reset re-arms the decoder over a new stream. The intern table and
// scratch buffer survive — that is the point of reuse.
func (d *Decoder) Reset(r io.Reader) {
	d.r = r
	d.count = 0
	d.next = 0
	d.began = false
	d.read = 0
	d.err = nil
}

// BytesRead reports the stream bytes consumed so far.
func (d *Decoder) BytesRead() int64 { return d.read }

func (d *Decoder) fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	return d.err
}

// readFull fills buf from the stream, classifying EOFs as truncation
// and passing transport errors through unwrapped.
func (d *Decoder) readFull(buf []byte, what string) error {
	n, err := io.ReadFull(d.r, buf)
	d.read += int64(n)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return d.fail(fmt.Errorf("%w: EOF reading %s", ErrTruncated, what))
	default:
		return d.fail(err)
	}
}

// Begin reads and validates the message header, returning the kind
// (always KindBatch) and the record count. Callers then invoke Next
// exactly count times and Finish once.
func (d *Decoder) Begin() (kind byte, count int, err error) {
	if d.err != nil {
		return 0, 0, d.err
	}
	if d.began {
		return KindBatch, d.count, nil
	}
	hdr := d.hdr[:headerBytes]
	if err := d.readFull(hdr, "header"); err != nil {
		return 0, 0, err
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, 0, d.fail(ErrBadMagic)
	}
	if v := hdr[len(magic)]; v != Version {
		return 0, 0, d.fail(fmt.Errorf("%w: version %d, want %d", ErrVersion, v, Version))
	}
	if kind := hdr[len(magic)+1]; kind != KindBatch {
		return 0, 0, d.fail(fmt.Errorf("%w: kind 0x%02x", ErrKind, kind))
	}
	cnt := d.hdr[headerBytes : headerBytes+4]
	if err := d.readFull(cnt, "record count"); err != nil {
		return 0, 0, err
	}
	n := binary.LittleEndian.Uint32(cnt)
	if n > MaxCount {
		return 0, 0, d.fail(fmt.Errorf("%w: record count %d exceeds the %d frame cap", ErrCorrupt, n, MaxCount))
	}
	d.count = int(n)
	d.began = true
	return KindBatch, d.count, nil
}

// Next decodes the next record into out, overwriting every field.
// Strings are interned, so a steady-state fleet's IDs decode without
// allocating. Calling Next more than count times is a caller bug and
// fails with ErrCorrupt.
func (d *Decoder) Next(out *ReportRequest) error {
	if d.err != nil {
		return d.err
	}
	if !d.began {
		if _, _, err := d.Begin(); err != nil {
			return err
		}
	}
	if d.next >= d.count {
		return d.fail(fmt.Errorf("%w: read past declared record count %d", ErrCorrupt, d.count))
	}
	lenBuf := d.hdr[headerBytes : headerBytes+4]
	if err := d.readFull(lenBuf, "record length"); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(lenBuf)
	if n < fixedRecordBytes+4 || n > MaxRecordBytes {
		return d.fail(fmt.Errorf("%w: record length %d outside [%d, %d]", ErrCorrupt, n, fixedRecordBytes+4, MaxRecordBytes))
	}
	rec := d.scratch[:n]
	if err := d.readFull(rec, "record"); err != nil {
		return err
	}

	switch rec[0] {
	case 0:
		out.DisplayType = "LCD"
	case 1:
		out.DisplayType = "OLED"
	default:
		return d.fail(fmt.Errorf("%w: display-type byte 0x%02x", ErrCorrupt, rec[0]))
	}
	out.Width = int(binary.LittleEndian.Uint32(rec[1:]))
	out.Height = int(binary.LittleEndian.Uint32(rec[5:]))
	out.DiagonalInch = math.Float64frombits(binary.LittleEndian.Uint64(rec[9:]))
	out.Brightness = math.Float64frombits(binary.LittleEndian.Uint64(rec[17:]))
	out.EnergyFrac = math.Float64frombits(binary.LittleEndian.Uint64(rec[25:]))
	out.BatteryCapacityJ = math.Float64frombits(binary.LittleEndian.Uint64(rec[33:]))
	out.BasePowerW = math.Float64frombits(binary.LittleEndian.Uint64(rec[41:]))

	off := fixedRecordBytes
	var ok bool
	out.DeviceID, off, ok = d.internField(rec, off)
	if !ok {
		return d.err
	}
	out.ChannelID, off, ok = d.internField(rec, off)
	if !ok {
		return d.err
	}
	if off != int(n) {
		return d.fail(fmt.Errorf("%w: record length %d but %d bytes consumed", ErrCorrupt, n, off))
	}
	d.next++
	return nil
}

// internField reads one u16-prefixed string at rec[off:], interning
// the result.
func (d *Decoder) internField(rec []byte, off int) (s string, end int, ok bool) {
	if off+2 > len(rec) {
		d.fail(fmt.Errorf("%w: string length prefix beyond record end", ErrTruncated))
		return "", off, false
	}
	n := int(binary.LittleEndian.Uint16(rec[off:]))
	off += 2
	if n > MaxStringBytes {
		d.fail(fmt.Errorf("%w: string of %d bytes exceeds %d", ErrCorrupt, n, MaxStringBytes))
		return "", off, false
	}
	if off+n > len(rec) {
		d.fail(fmt.Errorf("%w: string of %d bytes beyond record end", ErrTruncated, n))
		return "", off, false
	}
	b := rec[off : off+n]
	if len(b) == 0 {
		return "", off + n, true
	}
	if s, ok := d.intern[string(b)]; ok { // compiled to an alloc-free lookup
		return s, off + n, true
	}
	if len(d.intern) >= maxInternEntries {
		clear(d.intern)
	}
	s = string(b)
	d.intern[s] = s
	return s, off + n, true
}

// Finish verifies the stream ended exactly after the declared records
// — trailing bytes are corruption, a short stream truncation.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if !d.began || d.next != d.count {
		return d.fail(fmt.Errorf("%w: %d of %d records decoded", ErrTruncated, d.next, d.count))
	}
	one := d.hdr[:1] // reuse header scratch: a fresh array escapes via the io.Reader call
	n, err := io.ReadFull(d.r, one)
	d.read += int64(n)
	switch {
	case n > 0:
		return d.fail(fmt.Errorf("%w: trailing bytes after final record", ErrCorrupt))
	case errors.Is(err, io.EOF):
		return nil
	default:
		return d.fail(err)
	}
}

// DecodeBatch decodes a fully buffered batch message (tests, tools;
// servers stream through ReadReport instead).
func DecodeBatch(data []byte) ([]ReportRequest, error) {
	msg, err := NewScratch().read(bytes.NewReader(data), MaxCount)
	return msg.Reports, err
}
