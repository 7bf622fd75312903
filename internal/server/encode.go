package server

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"lpvs/internal/appendjson"
	"lpvs/internal/bufpool"
)

// This file is the response path (DESIGN.md §18). WriteJSON is the one
// JSON writer of every route. The bodies that are nearly all of a
// slot's traffic are appended instead, byte for byte what WriteJSON
// would have sent, through internal/appendjson's value writers:
//   - a decision, a chunk, a JSON report's acknowledgement and the
//     router's merged tick (internal/router) by their own AppendJSON
//     method, the small ones into a pooled buffer and the merged tick,
//     which grows with the fleet, into the router's tickSpace
//     (FuzzAppendJSON and the router's FuzzAppendTick hold them to
//     json.Encoder);
//   - a shard's tick reply by its one writer, appendShardTickLocked
//     (shard.go), from the tick outcome into the Server's shardReply
//     (TestShardTickReplyLayout holds it to json.Encoder).
//
// Each falls back to WriteJSON's answer only for a float with no JSON
// form, to fail as it fails. Each reply has a ReadJSON beside it, the
// decode half a client tries before json.Unmarshal: it takes exactly
// the layout its writer writes and declines anything else
// (FuzzDecodeReply and FuzzDecodeTick hold it to json.Unmarshal).

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

// WriteAppended answers 200 with v's AppendJSON encoding. When v holds
// a NaN or an infinity, encoding/json refuses the whole value and
// WriteJSON sends the header with no body, which is what this sends.
// It is exported for the router, which answers a report and a decision
// read from its table with the bytes the daemon would have sent.
func WriteAppended[T interface {
	AppendJSON(dst []byte) ([]byte, bool)
}](w http.ResponseWriter, v T) {
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	body, ok := v.AppendJSON(buf.AvailableBuffer())
	if !ok {
		WriteBody(w, http.StatusOK, nil)
		return
	}
	buf.Write(body) // in place unless body outgrew the buffer, which then grows for next time
	WriteBody(w, http.StatusOK, buf.Bytes())
}

// AppendJSON appends r as json.Encoder writes it, trailing newline
// included; ok is false when a float has no JSON form.
func (r DecisionResponse) AppendJSON(dst []byte) ([]byte, bool) {
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

// ReadJSON reads data into r when it is in AppendJSON's layout, and
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

// AppendJSON is DecisionResponse.AppendJSON for a chunk.
func (r ChunkResponse) AppendJSON(dst []byte) ([]byte, bool) {
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

// AppendJSON is DecisionResponse.AppendJSON for an acknowledgement.
func (r ReportResponse) AppendJSON(dst []byte) ([]byte, bool) {
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

// AppendObject appends st as encoding/json writes it, as a member of a
// bigger body (no newline): the shard's tick reply and the router's
// merged one. A NaN or an infinity clears *ok.
func (st *TickStats) AppendObject(dst []byte, ok *bool) []byte {
	dst = append(dst, `{"slot":`...)
	dst = strconv.AppendInt(dst, int64(st.Slot), 10)
	dst = append(dst, `,"reports":`...)
	dst = strconv.AppendInt(dst, int64(st.Reports), 10)
	dst = append(dst, `,"eligible":`...)
	dst = strconv.AppendInt(dst, int64(st.Eligible), 10)
	dst = append(dst, `,"selected":`...)
	dst = strconv.AppendInt(dst, int64(st.Selected), 10)
	dst = append(dst, `,"swaps":`...)
	dst = strconv.AppendInt(dst, int64(st.Swaps), 10)
	dst = append(dst, `,"phase1_optimal":`...)
	dst = strconv.AppendBool(dst, st.Phase1Optimal)
	dst = append(dst, `,"compact_sec":`...)
	dst = appendjson.Float(dst, st.CompactSec, ok)
	dst = append(dst, `,"phase1_sec":`...)
	dst = appendjson.Float(dst, st.Phase1Sec, ok)
	dst = append(dst, `,"phase2_sec":`...)
	dst = appendjson.Float(dst, st.Phase2Sec, ok)
	dst = append(dst, `,"cpu_sec":`...)
	dst = appendjson.Float(dst, st.CPUSec, ok)
	dst = append(dst, `,"duration_sec":`...)
	dst = appendjson.Float(dst, st.DurationSec, ok)
	dst = append(dst, `,"phase1_nodes":`...)
	dst = strconv.AppendInt(dst, int64(st.Phase1Nodes), 10)
	dst = append(dst, `,"cache_hits":`...)
	dst = strconv.AppendInt(dst, int64(st.CacheHits), 10)
	dst = append(dst, `,"cache_misses":`...)
	dst = strconv.AppendInt(dst, int64(st.CacheMisses), 10)
	dst = append(dst, `,"cache_evictions":`...)
	dst = strconv.AppendInt(dst, int64(st.CacheEvictions), 10)
	dst = append(dst, `,"replayed":`...)
	dst = strconv.AppendBool(dst, st.Replayed)
	dst = append(dst, `,"degraded":`...)
	dst = strconv.AppendBool(dst, st.Degraded)
	if st.DegradedReason != "" {
		dst = append(dst, `,"degraded_reason":`...)
		dst = appendjson.String(dst, st.DegradedReason)
	}
	return append(dst, '}')
}

// ReadObject reads an object in AppendObject's layout into st, whole.
// A miss fails rd and leaves st partly read; a caller reads into a
// value it commits only when the whole body was read.
func (st *TickStats) ReadObject(rd *appendjson.Reader) {
	*st = TickStats{
		Slot:           rd.Int(`{"slot":`),
		Reports:        rd.Int(`,"reports":`),
		Eligible:       rd.Int(`,"eligible":`),
		Selected:       rd.Int(`,"selected":`),
		Swaps:          rd.Int(`,"swaps":`),
		Phase1Optimal:  rd.Bool(`,"phase1_optimal":`),
		CompactSec:     rd.Float(`,"compact_sec":`),
		Phase1Sec:      rd.Float(`,"phase1_sec":`),
		Phase2Sec:      rd.Float(`,"phase2_sec":`),
		CPUSec:         rd.Float(`,"cpu_sec":`),
		DurationSec:    rd.Float(`,"duration_sec":`),
		Phase1Nodes:    rd.Int(`,"phase1_nodes":`),
		CacheHits:      rd.Int(`,"cache_hits":`),
		CacheMisses:    rd.Int(`,"cache_misses":`),
		CacheEvictions: rd.Int(`,"cache_evictions":`),
		Replayed:       rd.Bool(`,"replayed":`),
		Degraded:       rd.Bool(`,"degraded":`),
	}
	if rd.Prefix(`,"degraded_reason":`) {
		st.DegradedReason = string(rd.String(""))
	}
	rd.Expect("}")
}

// AppendMembers appends v's members as encoding/json writes them,
// without the braces around them, so the router can write its node in
// front (VCDecision). A NaN or an infinity clears *ok.
func (v *ShardVCDecision) AppendMembers(dst []byte, ok *bool) []byte {
	dst = append(dst, `"vc":`...)
	dst = appendjson.String(dst, v.VC)
	dst = append(dst, `,"reports":`...)
	dst = strconv.AppendInt(dst, int64(v.Reports), 10)
	dst = append(dst, `,"eligible":`...)
	dst = strconv.AppendInt(dst, int64(v.Eligible), 10)
	dst = append(dst, `,"selected":`...)
	dst = strconv.AppendInt(dst, int64(v.Selected), 10)
	dst = append(dst, `,"swaps":`...)
	dst = strconv.AppendInt(dst, int64(v.Swaps), 10)
	dst = append(dst, `,"degraded":`...)
	dst = strconv.AppendBool(dst, v.Degraded)
	dst = append(dst, `,"wall_sec":`...)
	dst = appendjson.Float(dst, v.WallSec, ok)
	dst = append(dst, `,"canonical":`...)
	if v.Canonical == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, v.Canonical)
	return append(dst, '"')
}

// ReadMembers reads AppendMembers' layout into v, whole, as
// TickStats.ReadObject reads. The canonical bytes are decoded into
// v.Canonical's storage, and v.VC is kept when it spells the ID read,
// so a v that held the same VC before takes the new one without
// allocating.
func (v *ShardVCDecision) ReadMembers(rd *appendjson.Reader) {
	*v = ShardVCDecision{
		VC:        appendjson.KeepString(v.VC, rd.String(`"vc":`)),
		Reports:   rd.Int(`,"reports":`),
		Eligible:  rd.Int(`,"eligible":`),
		Selected:  rd.Int(`,"selected":`),
		Swaps:     rd.Int(`,"swaps":`),
		Degraded:  rd.Bool(`,"degraded":`),
		WallSec:   rd.Float(`,"wall_sec":`),
		Canonical: rd.Bytes(`,"canonical":`, v.Canonical),
	}
}

// appendHead appends a shard tick reply's members before its vcs,
// opening brace included, for appendShardTickLocked.
func (r *ShardTickResponse) appendHead(dst []byte) []byte {
	dst = append(dst, '{')
	if r.Node != "" {
		dst = append(dst, `"node":`...)
		dst = appendjson.String(dst, r.Node)
		dst = append(dst, ',')
	}
	dst = append(dst, `"slot":`...)
	dst = strconv.AppendInt(dst, int64(r.Slot), 10)
	if r.Epoch != "" {
		dst = append(dst, `,"epoch":`...)
		dst = appendjson.String(dst, r.Epoch)
	}
	dst = append(dst, `,"reports":`...)
	dst = strconv.AppendInt(dst, int64(r.Reports), 10)
	dst = append(dst, `,"eligible":`...)
	dst = strconv.AppendInt(dst, int64(r.Eligible), 10)
	dst = append(dst, `,"selected":`...)
	dst = strconv.AppendInt(dst, int64(r.Selected), 10)
	dst = append(dst, `,"swaps":`...)
	dst = strconv.AppendInt(dst, int64(r.Swaps), 10)
	dst = append(dst, `,"degraded":`...)
	return strconv.AppendBool(dst, r.Degraded)
}

// ReadJSON is DecisionResponse.ReadJSON for a shard's tick reply, and
// reuses storage: what r's VCs and Devices hold beyond their length,
// and in each element there its canonical bytes and its γ and
// observation arrays. The router reads every tick's reply from a node
// into one value whose slices it truncates to length 0 first, so a
// reply no bigger than the last allocates nothing but its strings.
func (r *ShardTickResponse) ReadJSON(data []byte) bool {
	rd := appendjson.NewReader(data)
	var v ShardTickResponse
	rd.Expect("{")
	if rd.Prefix(`"node":`) {
		v.Node = appendjson.KeepString(r.Node, rd.String(""))
		rd.Expect(",")
	}
	v.Slot = rd.Int(`"slot":`)
	if rd.Prefix(`,"epoch":`) {
		v.Epoch = appendjson.KeepString(r.Epoch, rd.String(""))
	}
	v.Reports = rd.Int(`,"reports":`)
	v.Eligible = rd.Int(`,"eligible":`)
	v.Selected = rd.Int(`,"selected":`)
	v.Swaps = rd.Int(`,"swaps":`)
	v.Degraded = rd.Bool(`,"degraded":`)
	v.VCs = appendjson.Array(&rd, `,"vcs":`, r.VCs[len(r.VCs):], func(sep string, vc *ShardVCDecision) {
		rd.Expect(sep)
		rd.Expect("{")
		vc.ReadMembers(&rd)
		rd.Expect("}")
	})
	v.Devices = appendjson.Array(&rd, `,"devices":`, r.Devices[len(r.Devices):], func(sep string, d *ShardVCDevices) {
		rd.Expect(sep)
		*d = ShardVCDevices{
			Gamma:        appendjson.Array(&rd, `{"gamma":`, d.Gamma, func(sep string, x *float64) { *x = rd.Float(sep) }),
			Observations: appendjson.Array(&rd, `,"observations":`, d.Observations, func(sep string, n *int) { *n = rd.Int(sep) }),
		}
		rd.Expect("}")
	})
	rd.Expect(`,"sched":`)
	v.Sched.ReadObject(&rd)
	if !rd.End() {
		return false
	}
	*r = v
	return true
}
