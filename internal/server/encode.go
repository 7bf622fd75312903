package server

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"lpvs/internal/appendjson"
	"lpvs/internal/bufpool"
)

// This file is the response path (DESIGN.md §18). WriteJSON is the one
// JSON writer of every route. The three bodies that are nearly all of
// a slot's traffic — a decision, a chunk, a single report's
// acknowledgement — are instead appended into a pooled buffer by their
// own appendJSON method, byte for byte what WriteJSON would have sent
// (FuzzAppendJSON holds the two together; the value writers are
// internal/appendjson's), and fall back to WriteJSON only for a float
// with no JSON form, to fail as it fails. Each has a ReadJSON beside
// it, the decode half a client tries before json.Unmarshal: it takes
// exactly the layout appendJSON writes and declines anything else
// (FuzzDecodeReply holds it to json.Unmarshal).

// jsonContentType is the Content-Type value of every JSON body,
// assigned to the header map as is. cap == len, so a middleware that
// appends to the header copies the slice instead of writing into it.
var jsonContentType = []string{"application/json"}

// WriteJSON writes v as a JSON response body with the given status —
// exported so every v1 personality (the router in internal/router)
// frames bodies exactly as the edge daemon does.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	// Encoding failures after the header is written can only be logged;
	// with in-memory values they cannot happen.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteBody writes an already-encoded JSON document, trailing newline
// included, under the headers WriteJSON sets: the append-encoded
// bodies below and the router's relay of a shard's answer.
func WriteBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// WriteAppended answers 200 with v's appendJSON encoding, or through
// WriteJSON when v holds a NaN or an infinity. It is exported for the
// router, which answers a decision read from its table with the bytes
// the shard would have sent.
func WriteAppended[T interface {
	appendJSON(dst []byte) ([]byte, bool)
}](w http.ResponseWriter, v T) {
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	body, ok := v.appendJSON(buf.AvailableBuffer())
	if !ok {
		WriteJSON(w, http.StatusOK, v)
		return
	}
	buf.Write(body) // in place unless body outgrew the buffer, which then grows for next time
	WriteBody(w, http.StatusOK, buf.Bytes())
}

func (r DecisionResponse) appendJSON(dst []byte) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"device_id":`...)
	dst = appendjson.String(dst, r.DeviceID)
	dst = append(dst, `,"slot":`...)
	dst = strconv.AppendInt(dst, int64(r.Slot), 10)
	dst = append(dst, `,"transform":`...)
	dst = strconv.AppendBool(dst, r.Transform)
	dst = append(dst, `,"gamma":`...)
	dst = appendjson.Float(dst, r.Gamma, &ok)
	return append(dst, "}\n"...), ok
}

// ReadJSON reads data into r when it is in appendJSON's layout, and
// reports whether it was; on false r is untouched and the caller
// decodes data with json.Unmarshal instead.
func (r *DecisionResponse) ReadJSON(data []byte) bool {
	rd := appendjson.NewReader(data)
	id := rd.String(`{"device_id":`)
	slot := rd.Int(`,"slot":`)
	transform := rd.Bool(`,"transform":`)
	gamma := rd.Float(`,"gamma":`)
	if !rd.End() {
		return false
	}
	*r = DecisionResponse{DeviceID: string(id), Slot: slot, Transform: transform, Gamma: gamma}
	return true
}

func (r ChunkResponse) appendJSON(dst []byte) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"duration_sec":`...)
	dst = appendjson.Float(dst, r.DurationSec, &ok)
	dst = append(dst, `,"bitrate_kbps":`...)
	dst = strconv.AppendInt(dst, int64(r.BitrateKbps), 10)
	dst = append(dst, `,"transformed":`...)
	dst = strconv.AppendBool(dst, r.Transformed)
	dst = append(dst, `,"mean_luma":`...)
	dst = appendjson.Float(dst, r.MeanLuma, &ok)
	dst = append(dst, `,"peak_luma":`...)
	dst = appendjson.Float(dst, r.PeakLuma, &ok)
	dst = append(dst, `,"mean_r":`...)
	dst = appendjson.Float(dst, r.MeanR, &ok)
	dst = append(dst, `,"mean_g":`...)
	dst = appendjson.Float(dst, r.MeanG, &ok)
	dst = append(dst, `,"mean_b":`...)
	dst = appendjson.Float(dst, r.MeanB, &ok)
	dst = append(dst, `,"brightness_scale":`...)
	dst = appendjson.Float(dst, r.BrightnessScale, &ok)
	dst = append(dst, `,"plain_power_w":`...)
	dst = appendjson.Float(dst, r.PlainPowerW, &ok)
	return append(dst, "}\n"...), ok
}

// ReadJSON is DecisionResponse.ReadJSON for a chunk.
func (r *ChunkResponse) ReadJSON(data []byte) bool {
	rd := appendjson.NewReader(data)
	v := ChunkResponse{
		Index:           rd.Int(`{"index":`),
		DurationSec:     rd.Float(`,"duration_sec":`),
		BitrateKbps:     rd.Int(`,"bitrate_kbps":`),
		Transformed:     rd.Bool(`,"transformed":`),
		MeanLuma:        rd.Float(`,"mean_luma":`),
		PeakLuma:        rd.Float(`,"peak_luma":`),
		MeanR:           rd.Float(`,"mean_r":`),
		MeanG:           rd.Float(`,"mean_g":`),
		MeanB:           rd.Float(`,"mean_b":`),
		BrightnessScale: rd.Float(`,"brightness_scale":`),
		PlainPowerW:     rd.Float(`,"plain_power_w":`),
	}
	if !rd.End() {
		return false
	}
	*r = v
	return true
}

func (r ReportResponse) appendJSON(dst []byte) ([]byte, bool) {
	dst = append(dst, `{"slot":`...)
	dst = strconv.AppendInt(dst, int64(r.Slot), 10)
	dst = append(dst, `,"accepted":`...)
	dst = strconv.AppendBool(dst, r.Accepted)
	return append(dst, "}\n"...), true
}

// ReadJSON is DecisionResponse.ReadJSON for an acknowledgement.
func (r *ReportResponse) ReadJSON(data []byte) bool {
	rd := appendjson.NewReader(data)
	v := ReportResponse{Slot: rd.Int(`{"slot":`), Accepted: rd.Bool(`,"accepted":`)}
	if !rd.End() {
		return false
	}
	*r = v
	return true
}

// queryValue is url.ParseQuery(raw)[key][0] — "" when key is absent —
// without building the url.Values. A query that needs unescaping (%,
// +) or that ParseQuery refuses in part (;) goes through ParseQuery
// itself, error ignored as r.URL.Query() ignores it.
func queryValue(raw, key string) string {
	if strings.ContainsAny(raw, "%+;") {
		vs, _ := url.ParseQuery(raw)
		return vs.Get(key)
	}
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

// DeviceParam extracts the required ?device= parameter. A missing one
// is answered 400 (the request is malformed), distinct from the 404 an
// unknown-but-present ID earns, and reported false.
func DeviceParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := queryValue(r.URL.RawQuery, "device")
	if id == "" {
		writeErrorMsg(w, http.StatusBadRequest, CodeBadRequest, "missing device parameter")
		return "", false
	}
	return id, true
}
