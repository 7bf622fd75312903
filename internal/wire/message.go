package wire

import (
	"encoding/json"
	"fmt"
	"io"

	"lpvs/internal/appendjson"
	"lpvs/internal/bufpool"
)

// Message is one decoded POST /v1/report body. Binary is the caller's
// choice of framing — a binary batch, or else one JSON report — and
// whatever answers or forwards the message keeps it: it selects the
// response shape and the framing of a re-encoded copy (AppendFrame).
type Message struct {
	Binary bool
	// Reports holds exactly one record unless Binary. On the binary path
	// it aliases the Scratch ReadReport drew and stays valid until that
	// scratch is read into again; a JSON report is the one record of the
	// storage its caller passed.
	Reports []ReportRequest
	// Bytes is the body size consumed.
	Bytes int64
}

// BatchTooLargeError refuses a batch whose header declares more records
// than the reader's cap.
type BatchTooLargeError struct{ Count, Cap int }

func (e *BatchTooLargeError) Error() string {
	return fmt.Sprintf("batch of %d records exceeds the %d-record cap", e.Count, e.Cap)
}

// Scratch is the reusable workspace of a binary read: the streaming
// Decoder (record buffer and intern table) and the record slice the
// returned Message aliases. Reusing one across requests makes a
// steady fleet's decode allocation-free; it is not safe for concurrent
// use.
type Scratch struct {
	dec  *Decoder
	reqs []ReportRequest
}

// NewScratch returns an empty workspace.
func NewScratch() *Scratch { return &Scratch{dec: NewDecoder(nil)} }

// ReadReport is the one reader of a POST /v1/report body. The exact
// Content-Type ContentType selects the binary batch, streamed record by
// record off body into the workspace scratch supplies (called only on
// that path, so JSON traffic never touches a caller's pool); every
// other Content-Type means one JSON report, and a body that is not one
// (a JSON array among them) fails to decode. A batch over maxRecords
// fails with a *BatchTooLargeError from the 10-byte header, before any
// record is read. Every other failure is prefixed with the step that
// failed ("binary report: ", "read body: ", "decode: ") and wraps its
// cause, so errors.Is finds the package sentinels and errors.As a
// transport error such as *http.MaxBytesError. A JSON report is read
// into one, which the caller keeps (a handler: on its stack), so the
// message's one-record slice is not an allocation of its own; nil means
// fresh storage.
func ReadReport(contentType string, body io.Reader, maxRecords int, scratch func() *Scratch, one *[1]ReportRequest) (Message, error) {
	if contentType == ContentType {
		msg, err := scratch().read(body, maxRecords)
		if err != nil {
			return Message{}, fmt.Errorf("binary report: %w", err)
		}
		return msg, nil
	}
	// Both JSON readers copy every string they keep out of the pooled
	// buffer, so nothing of it outlives this call.
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	if _, err := buf.ReadFrom(body); err != nil {
		return Message{}, fmt.Errorf("read body: %w", err)
	}
	data := buf.Bytes()
	if one == nil {
		one = new([1]ReportRequest)
	}
	if !one[0].readJSON(data) {
		// Into a value of its own: one handed to encoding/json would
		// escape to the heap on every call, the layout reader's included.
		var v ReportRequest
		if err := json.Unmarshal(data, &v); err != nil {
			return Message{}, fmt.Errorf("decode: %w", err)
		}
		one[0] = v
	}
	return Message{Reports: one[:], Bytes: int64(len(data))}, nil
}

// readJSON reads data into r when it is laid out as json.Marshal writes
// a ReportRequest, channel_id present or omitted, and reports whether
// it was; on false r is untouched and ReadReport falls back to
// json.Unmarshal (FuzzReadReportJSON holds the two together). The two
// display types come back as constants, so a known one costs no
// allocation.
func (r *ReportRequest) readJSON(data []byte) bool {
	rd := appendjson.NewReader(data)
	id := rd.String(`{"device_id":`)
	var channel []byte
	if rd.Prefix(`,"channel_id":`) {
		channel = rd.String("")
	}
	display := rd.String(`,"display_type":`)
	v := ReportRequest{
		Width:            rd.Int(`,"width":`),
		Height:           rd.Int(`,"height":`),
		DiagonalInch:     rd.Float(`,"diagonal_inch":`),
		Brightness:       rd.Float(`,"brightness":`),
		EnergyFrac:       rd.Float(`,"energy_frac":`),
		BatteryCapacityJ: rd.Float(`,"battery_capacity_j":`),
		BasePowerW:       rd.Float(`,"base_power_w":`),
	}
	if !rd.End() {
		return false
	}
	v.DeviceID, v.ChannelID = string(id), string(channel)
	switch string(display) {
	case "OLED":
		v.DisplayType = "OLED"
	case "LCD":
		v.DisplayType = "LCD"
	default:
		v.DisplayType = string(display)
	}
	*r = v
	return true
}

// read decodes one binary message from body into the workspace.
func (sc *Scratch) read(body io.Reader, maxRecords int) (Message, error) {
	d := sc.dec
	d.Reset(body)
	defer d.Reset(nil) // keep the buffers and intern table, drop the body
	_, count, err := d.Begin()
	if err != nil {
		return Message{}, err
	}
	if count > maxRecords {
		return Message{}, &BatchTooLargeError{Count: count, Cap: maxRecords}
	}
	if cap(sc.reqs) < count {
		sc.reqs = make([]ReportRequest, count)
	}
	reqs := sc.reqs[:count]
	for i := range reqs {
		if err := d.Next(&reqs[i]); err != nil {
			return Message{}, err
		}
	}
	if err := d.Finish(); err != nil {
		return Message{}, err
	}
	return Message{Binary: true, Reports: reqs, Bytes: d.BytesRead()}, nil
}

// AppendFrame frames reports in m's framing — how a router forwards its
// share of m — appending to dst (pass a reused buffer: the binary batch
// then allocates nothing), and returns the body with the Content-Type
// to send it under. Without Binary it frames reports[0] alone, as
// encoding/json's bytes, marshalled and then copied behind dst. On
// error dst comes back unextended.
func (m *Message) AppendFrame(dst []byte, reports []ReportRequest) (body []byte, contentType string, err error) {
	if m.Binary {
		body, err = AppendBatch(dst, reports)
		return body, ContentType, err
	}
	js, err := json.Marshal(&reports[0])
	return append(dst, js...), "application/json", err
}
