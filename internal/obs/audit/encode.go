package audit

import (
	"errors"
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

// errNoJSONFloat is AppendJSON's failure: a float field holds NaN or an
// infinity, which JSON cannot carry (json.Encoder refused them too).
var errNoJSONFloat = errors.New("audit: encode: a float field is NaN or infinite")

// AppendJSON appends the record as one JSONL line, trailing newline
// included, and returns the extended slice. On error nothing is
// appended.
func (r *Record) AppendJSON(dst []byte) ([]byte, error) {
	start, ok := len(dst), true
	dst = intField(dst, `{"schema":`, r.Schema)
	dst = intField(dst, `,"slot":`, r.Slot)
	dst = stringField(dst, `,"vc":`, r.VC)
	if r.Seed != 0 {
		dst = append(dst, `,"seed":`...)
		dst = strconv.AppendInt(dst, r.Seed, 10)
	}
	dst = optFloatField(dst, `,"unix_sec":`, r.UnixSec, &ok)
	if r.TraceID != "" {
		dst = stringField(dst, `,"trace_id":`, r.TraceID)
	}
	dst = stringField(dst, `,"config_hash":`, r.ConfigHash)
	dst = r.Config.appendJSON(append(dst, `,"config":`...), &ok)
	if len(r.Windows) > 0 {
		dst = append(dst, `,"windows":[`...)
		for i, w := range r.Windows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendChunks(dst, w, &ok)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"requests":`...)
	if r.Requests == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Requests {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Requests[i].appendJSON(dst, &ok)
		}
		dst = append(dst, ']')
	}
	dst = stringField(dst, `,"decision_canonical":`, r.DecisionCanonical)
	if d := r.Degraded; d != nil {
		dst = append(dst, `,"degraded":{`...)
		if d.Phase1Greedy {
			dst = append(dst, `"phase1_greedy":true`...)
		}
		if d.Phase2Skipped {
			if d.Phase1Greedy {
				dst = append(dst, ',')
			}
			dst = append(dst, `"phase2_skipped":true`...)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"verdicts":`...)
	if r.Verdicts == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Verdicts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Verdicts[i].appendJSON(dst, &ok)
		}
		dst = append(dst, ']')
	}
	if len(r.Spans) > 0 {
		dst = append(dst, `,"spans":[`...)
		for i := range r.Spans {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = stringField(dst, `{"name":`, r.Spans[i].Name)
			dst = floatField(dst, `,"dur_sec":`, r.Spans[i].DurSec, &ok)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if !ok {
		return dst[:start], errNoJSONFloat
	}
	return append(dst, "}\n"...), nil
}

func (c *ConfigRecord) appendJSON(dst []byte, ok *bool) []byte {
	dst = floatField(dst, `{"slot_sec":`, c.SlotSec, ok)
	dst = floatField(dst, `,"lambda":`, c.Lambda, ok)
	dst = boolField(dst, `,"unbounded":`, c.Unbounded)
	dst = floatField(dst, `,"compute_capacity":`, c.ComputeCapacity, ok)
	dst = floatField(dst, `,"storage_capacity_mb":`, c.StorageCapacityMB, ok)
	dst = intField(dst, `,"exact_threshold":`, c.ExactThreshold)
	dst = intField(dst, `,"max_nodes":`, c.MaxNodes)
	dst = boolField(dst, `,"disable_swap":`, c.DisableSwap)
	dst = intField(dst, `,"max_swap_passes":`, c.MaxSwapPasses)
	dst = c.Anxiety.appendJSON(append(dst, `,"anxiety":`...), ok)
	return append(dst, '}')
}

func (a *AnxietyRecord) appendJSON(dst []byte, ok *bool) []byte {
	dst = stringField(dst, `{"kind":`, a.Kind)
	dst = optFloatField(dst, `,"anxiety_at_warning":`, a.AnxietyAtWarning, ok)
	dst = optFloatField(dst, `,"convex_power":`, a.ConvexPower, ok)
	dst = optFloatField(dst, `,"concave_power":`, a.ConcavePower, ok)
	dst = optFloatField(dst, `,"warning":`, a.Warning, ok)
	return append(dst, '}')
}

func (q *RequestRecord) appendJSON(dst []byte, ok *bool) []byte {
	dst = stringField(dst, `{"device":`, q.Device)
	dst = stringField(dst, `,"display_type":`, q.DisplayType)
	dst = intField(dst, `,"width":`, q.Width)
	dst = intField(dst, `,"height":`, q.Height)
	dst = floatField(dst, `,"diagonal_inch":`, q.DiagonalInch, ok)
	dst = floatField(dst, `,"brightness":`, q.Brightness, ok)
	dst = floatField(dst, `,"energy_frac":`, q.EnergyFrac, ok)
	dst = floatField(dst, `,"battery_capacity_j":`, q.BatteryCapacityJ, ok)
	dst = floatField(dst, `,"base_power_w":`, q.BasePowerW, ok)
	dst = floatField(dst, `,"gamma":`, q.Gamma, ok)
	if q.Anxiety != nil {
		dst = q.Anxiety.appendJSON(append(dst, `,"anxiety":`...), ok)
	}
	if q.Window != nil {
		dst = intField(dst, `,"window":`, *q.Window)
	}
	if len(q.Chunks) > 0 {
		dst = appendChunks(append(dst, `,"chunks":`...), q.Chunks, ok)
	}
	return append(dst, '}')
}

func (v *VerdictRecord) appendJSON(dst []byte, ok *bool) []byte {
	dst = stringField(dst, `{"device":`, v.Device)
	dst = boolField(dst, `,"selected":`, v.Selected)
	dst = boolField(dst, `,"eligible":`, v.Eligible)
	dst = stringField(dst, `,"reason":`, string(v.Reason))
	dst = floatField(dst, `,"anxiety_before":`, v.AnxietyBefore, ok)
	dst = floatField(dst, `,"anxiety_after":`, v.AnxietyAfter, ok)
	dst = floatField(dst, `,"gamma_est":`, v.Gamma, ok)
	dst = floatField(dst, `,"saving_frac":`, v.SavingFrac, ok)
	return append(dst, '}')
}

// appendChunks appends one chunk window: null when nil, as a table
// entry or a decoded "chunks":null may be.
func appendChunks(dst []byte, chunks []ChunkRecord, ok *bool) []byte {
	if chunks == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range chunks {
		c := &chunks[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = intField(dst, `{"index":`, c.Index)
		dst = floatField(dst, `,"duration_sec":`, c.DurationSec, ok)
		dst = intField(dst, `,"bitrate_kbps":`, c.BitrateKbps)
		dst = floatField(dst, `,"mean_luma":`, c.MeanLuma, ok)
		dst = floatField(dst, `,"peak_luma":`, c.PeakLuma, ok)
		dst = floatField(dst, `,"mean_r":`, c.MeanR, ok)
		dst = floatField(dst, `,"mean_g":`, c.MeanG, ok)
		dst = floatField(dst, `,"mean_b":`, c.MeanB, ok)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// The field writers: key is everything up to and including the colon.

func intField(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

func boolField(dst []byte, key string, v bool) []byte {
	return strconv.AppendBool(append(dst, key...), v)
}

func stringField[S ~string | ~[]byte](dst []byte, key string, v S) []byte {
	return appendjson.String(append(dst, key...), v)
}

func floatField(dst []byte, key string, v float64, ok *bool) []byte {
	return appendjson.Float(append(dst, key...), v, ok)
}

// optFloatField is floatField under omitempty: encoding/json leaves
// out a float that compares equal to zero, -0 included.
func optFloatField(dst []byte, key string, v float64, ok *bool) []byte {
	if v == 0 {
		return dst
	}
	return floatField(dst, key, v, ok)
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
