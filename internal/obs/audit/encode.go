package audit

import (
	"errors"
	"io"
	"math"
	"strconv"

	"lpvs/internal/appendjson"
)

// This file is the record's one writer (DESIGN.md §10). It appends,
// field by field, exactly the bytes json.Encoder wrote for a Record
// before it: the struct tags' field order and omitempty rules, null for
// a nil requests / verdicts / window slice, and internal/appendjson's
// floats and strings. encoding/json stays the decoder, and the tests'
// reference for every byte written here; a field added to a record
// type is added here too, or FuzzAuditDecode's differential fails.

// ErrNoJSONFloat is the encoders' failure: a float field holds NaN or
// an infinity, which JSON cannot carry (json.Encoder refused them too).
var ErrNoJSONFloat = errors.New("audit: encode: a float field is NaN or infinite")

// A Builder streams its line through one buffer of lineBuf bytes,
// allocated on its first Append and never grown. The line leaves it in
// pieces of at least flushAt bytes, each cut at an element boundary:
// between chunk records, requests and verdicts, and between textPiece
// pieces of a long string. No element between two boundaries writes
// more than the difference (a string piece escapes to at most six times
// its length).
const (
	lineBuf   = 64 << 10
	flushAt   = lineBuf - 16<<10
	textPiece = 2 << 10
)

// encoder appends a record's line to buf. With out set it streams: at
// each element boundary, once buf holds flushAt bytes, they are written
// to out (and tee), and buf starts over. A dry encoder writes no float
// or string, only checks that each float has a JSON form: run over
// io.Discard it is the check that refuses a record before the first
// byte of its line leaves.
type encoder struct {
	buf      []byte
	ok       bool // cleared by a float with no JSON form
	dry      bool
	out, tee io.Writer
	err      error // out's first write error; out gets nothing after it
}

// boundary marks a point between elements where the line may be cut.
func (e *encoder) boundary() {
	if e.out != nil && len(e.buf) >= flushAt {
		e.flush()
	}
}

// flush hands what buf holds to the sinks and empties it.
func (e *encoder) flush() {
	if e.err == nil {
		_, e.err = e.out.Write(e.buf)
	}
	if e.tee != nil {
		e.tee.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// AppendJSON appends the record as one JSONL line, trailing newline
// included, and returns the extended slice. On error nothing is
// appended.
func (r *Record) AppendJSON(dst []byte) ([]byte, error) {
	e := encoder{buf: dst, ok: true}
	r.encode(&e)
	if !e.ok {
		return dst, ErrNoJSONFloat
	}
	return e.buf, nil
}

// encode writes the whole line, closing brace and newline included.
func (r *Record) encode(e *encoder) {
	e.int(`{"schema":`, r.Schema)
	e.int(`,"slot":`, r.Slot)
	str(e, `,"vc":`, r.VC)
	if r.Seed != 0 {
		e.buf = strconv.AppendInt(append(e.buf, `,"seed":`...), r.Seed, 10)
	}
	e.optFloat(`,"unix_sec":`, r.UnixSec)
	if r.TraceID != "" {
		str(e, `,"trace_id":`, r.TraceID)
	}
	str(e, `,"config_hash":`, r.ConfigHash)
	e.buf = append(e.buf, `,"config":`...)
	r.Config.encode(e)
	if len(r.Windows) > 0 {
		e.buf = append(e.buf, `,"windows":[`...)
		for i, w := range r.Windows {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.chunks(w)
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, `,"requests":`...)
	if r.Requests == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i := range r.Requests {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			r.Requests[i].encode(e)
			e.boundary()
		}
		e.buf = append(e.buf, ']')
	}
	str(e, `,"decision_canonical":`, r.DecisionCanonical)
	if d := r.Degraded; d != nil {
		e.buf = append(e.buf, `,"degraded":{`...)
		if d.Phase1Greedy {
			e.buf = append(e.buf, `"phase1_greedy":true`...)
		}
		if d.Phase2Skipped {
			if d.Phase1Greedy {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, `"phase2_skipped":true`...)
		}
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, `,"verdicts":`...)
	if r.Verdicts == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i := range r.Verdicts {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			r.Verdicts[i].encode(e)
			e.boundary()
		}
		e.buf = append(e.buf, ']')
	}
	if len(r.Spans) > 0 {
		e.buf = append(e.buf, `,"spans":[`...)
		for i := range r.Spans {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			str(e, `{"name":`, r.Spans[i].Name)
			e.float(`,"dur_sec":`, r.Spans[i].DurSec)
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, "}\n"...)
}

func (c *ConfigRecord) encode(e *encoder) {
	e.float(`{"slot_sec":`, c.SlotSec)
	e.float(`,"lambda":`, c.Lambda)
	e.bool(`,"unbounded":`, c.Unbounded)
	e.float(`,"compute_capacity":`, c.ComputeCapacity)
	e.float(`,"storage_capacity_mb":`, c.StorageCapacityMB)
	e.int(`,"exact_threshold":`, c.ExactThreshold)
	e.int(`,"max_nodes":`, c.MaxNodes)
	e.bool(`,"disable_swap":`, c.DisableSwap)
	e.int(`,"max_swap_passes":`, c.MaxSwapPasses)
	e.buf = append(e.buf, `,"anxiety":`...)
	c.Anxiety.encode(e)
	e.buf = append(e.buf, '}')
}

func (a *AnxietyRecord) encode(e *encoder) {
	str(e, `{"kind":`, a.Kind)
	e.optFloat(`,"anxiety_at_warning":`, a.AnxietyAtWarning)
	e.optFloat(`,"convex_power":`, a.ConvexPower)
	e.optFloat(`,"concave_power":`, a.ConcavePower)
	e.optFloat(`,"warning":`, a.Warning)
	e.buf = append(e.buf, '}')
}

func (q *RequestRecord) encode(e *encoder) {
	str(e, `{"device":`, q.Device)
	str(e, `,"display_type":`, q.DisplayType)
	e.int(`,"width":`, q.Width)
	e.int(`,"height":`, q.Height)
	e.float(`,"diagonal_inch":`, q.DiagonalInch)
	e.float(`,"brightness":`, q.Brightness)
	e.float(`,"energy_frac":`, q.EnergyFrac)
	e.float(`,"battery_capacity_j":`, q.BatteryCapacityJ)
	e.float(`,"base_power_w":`, q.BasePowerW)
	e.float(`,"gamma":`, q.Gamma)
	if q.Anxiety != nil {
		e.buf = append(e.buf, `,"anxiety":`...)
		q.Anxiety.encode(e)
	}
	if q.Window != nil {
		e.int(`,"window":`, *q.Window)
	}
	if len(q.Chunks) > 0 {
		e.buf = append(e.buf, `,"chunks":`...)
		e.chunks(q.Chunks)
	}
	e.buf = append(e.buf, '}')
}

func (v *VerdictRecord) encode(e *encoder) {
	str(e, `{"device":`, v.Device)
	e.bool(`,"selected":`, v.Selected)
	e.bool(`,"eligible":`, v.Eligible)
	str(e, `,"reason":`, v.Reason)
	e.float(`,"anxiety_before":`, v.AnxietyBefore)
	e.float(`,"anxiety_after":`, v.AnxietyAfter)
	e.float(`,"gamma_est":`, v.Gamma)
	e.float(`,"saving_frac":`, v.SavingFrac)
	e.buf = append(e.buf, '}')
}

// chunks writes one chunk window: null when nil, as a table entry or a
// decoded "chunks":null may be.
func (e *encoder) chunks(chunks []ChunkRecord) {
	if chunks == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i := range chunks {
		c := &chunks[i]
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.int(`{"index":`, c.Index)
		e.float(`,"duration_sec":`, c.DurationSec)
		e.int(`,"bitrate_kbps":`, c.BitrateKbps)
		e.float(`,"mean_luma":`, c.MeanLuma)
		e.float(`,"peak_luma":`, c.PeakLuma)
		e.float(`,"mean_r":`, c.MeanR)
		e.float(`,"mean_g":`, c.MeanG)
		e.float(`,"mean_b":`, c.MeanB)
		e.buf = append(e.buf, '}')
		e.boundary()
	}
	e.buf = append(e.buf, ']')
}

// The member writers: key is everything up to and including the colon.

func (e *encoder) int(key string, v int) {
	e.buf = strconv.AppendInt(append(e.buf, key...), int64(v), 10)
}

func (e *encoder) bool(key string, v bool) {
	e.buf = strconv.AppendBool(append(e.buf, key...), v)
}

func (e *encoder) float(key string, v float64) {
	if e.dry {
		e.ok = e.ok && !math.IsNaN(v) && !math.IsInf(v, 0)
		return
	}
	e.buf = appendjson.Float(append(e.buf, key...), v, &e.ok)
}

// optFloat is float under omitempty: encoding/json leaves out a float
// that compares equal to zero, -0 included.
func (e *encoder) optFloat(key string, v float64) {
	if v == 0 {
		return
	}
	e.float(key, v)
}

// str writes a string member; one longer than textPiece (a decision's
// canonical text) goes in pieces with a boundary after each, none
// starting inside a UTF-8 sequence.
func str[S ~string | ~[]byte](e *encoder, key string, s S) {
	if e.dry {
		return
	}
	e.buf = append(append(e.buf, key...), '"')
	for len(s) > textPiece {
		n := textPiece
		for n < len(s) && s[n]&0xc0 == 0x80 {
			n++
		}
		e.buf = appendjson.Escape(e.buf, s[:n])
		s = s[n:]
		e.boundary()
	}
	e.buf = append(appendjson.Escape(e.buf, s), '"')
}

// sizeHint estimates the encoded line's length from above for the
// values this system logs (a float is at most 24 bytes and rarely over
// 20), so a buffer of this capacity takes the line without re-growing:
// appending a megabyte from nil copies it five times over on the way.
func (r *Record) sizeHint() int {
	const (
		perChunk   = 240 // 99 bytes of keys, 2 ints, 6 floats
		perRequest = 304 // 152 bytes of keys, 3 ints, 6 floats, the display type
		perAnxiety = 180
		perVerdict = 204 // 111 bytes of keys, 2 bools, 4 floats
	)
	n := 1024 + len(r.VC) + len(r.DecisionCanonical) + len(r.DecisionCanonical)/8 + 64*len(r.Spans)
	for _, w := range r.Windows {
		n += perChunk*len(w) + 8
	}
	for i := range r.Requests {
		q := &r.Requests[i]
		n += perRequest + len(q.Device) + perChunk*len(q.Chunks)
		if q.Anxiety != nil {
			n += perAnxiety
		}
	}
	for i := range r.Verdicts {
		n += perVerdict + len(r.Verdicts[i].Device) + len(r.Verdicts[i].Reason)
	}
	return n
}
