package router

import (
	"strconv"

	"lpvs/internal/appendjson"
)

// This file is the router's member of the daemon's append-encoder
// family (DESIGN.md §18): the merged tick reply, appended into the
// tick's tickSpace with encoding/json's bytes, and read
// back by a client.Caller in that layout before json.Unmarshal. The
// shard's tick stats and per-VC decisions are written and read by the
// daemon's own member writers (server.TickStats.AppendObject,
// server.ShardVCDecision.AppendMembers), so the two replies cannot
// drift apart. FuzzAppendTick holds the writer to json.Encoder and
// FuzzDecodeTick the reader to json.Unmarshal.

// AppendJSON appends r as encoding/json writes it, trailing newline
// included; ok is false when a float has no JSON form.
func (r TickResponse) AppendJSON(dst []byte) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"slot":`...)
	dst = strconv.AppendInt(dst, int64(r.Slot), 10)
	dst = append(dst, `,"epoch":`...)
	dst = appendjson.String(dst, r.Epoch)
	dst = append(dst, `,"reports":`...)
	dst = strconv.AppendInt(dst, int64(r.Reports), 10)
	dst = append(dst, `,"eligible":`...)
	dst = strconv.AppendInt(dst, int64(r.Eligible), 10)
	dst = append(dst, `,"selected":`...)
	dst = strconv.AppendInt(dst, int64(r.Selected), 10)
	dst = append(dst, `,"swaps":`...)
	dst = strconv.AppendInt(dst, int64(r.Swaps), 10)
	dst = append(dst, `,"degraded":`...)
	dst = strconv.AppendBool(dst, r.Degraded)
	dst = append(dst, `,"shard_errors":`...)
	dst = strconv.AppendInt(dst, int64(r.ShardErrors), 10)
	dst = append(dst, `,"shards":`...)
	if r.Shards == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Shards {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Shards[i].appendObject(dst)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"vcs":`...)
	if r.VCs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.VCs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"node":`...)
			dst = appendjson.String(dst, r.VCs[i].Node)
			dst = append(r.VCs[i].AppendMembers(append(dst, ','), &ok), '}')
		}
		dst = append(dst, ']')
	}
	dst = r.Sched.AppendObject(append(dst, `,"sched":`...), &ok)
	return append(dst, "}\n"...), ok
}

func (s *ShardTickSummary) appendObject(dst []byte) []byte {
	dst = append(dst, `{"node":`...)
	dst = appendjson.String(dst, s.Node)
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendBool(dst, s.OK)
	if s.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendjson.String(dst, s.Error)
	}
	if s.Code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendjson.String(dst, s.Code)
	}
	dst = append(dst, `,"slot":`...)
	dst = strconv.AppendInt(dst, int64(s.Slot), 10)
	dst = append(dst, `,"reports":`...)
	dst = strconv.AppendInt(dst, int64(s.Reports), 10)
	dst = append(dst, `,"vcs":`...)
	dst = strconv.AppendInt(dst, int64(s.VCs), 10)
	return append(dst, '}')
}

// ReadJSON reads data into r when it is in AppendJSON's layout, and
// reports whether it was; on false r is untouched and the caller
// decodes data with json.Unmarshal instead. Like
// server.ShardTickResponse.ReadJSON it reuses what r's Shards and VCs
// hold beyond their length, each VC's canonical bytes included.
func (r *TickResponse) ReadJSON(data []byte) bool {
	rd := appendjson.NewReader(data)
	v := TickResponse{
		Slot:        rd.Int(`{"slot":`),
		Epoch:       appendjson.KeepString(r.Epoch, rd.String(`,"epoch":`)),
		Reports:     rd.Int(`,"reports":`),
		Eligible:    rd.Int(`,"eligible":`),
		Selected:    rd.Int(`,"selected":`),
		Swaps:       rd.Int(`,"swaps":`),
		Degraded:    rd.Bool(`,"degraded":`),
		ShardErrors: rd.Int(`,"shard_errors":`),
	}
	v.Shards = appendjson.Array(&rd, `,"shards":`, r.Shards[len(r.Shards):], func(sep string, s *ShardTickSummary) {
		rd.Expect(sep)
		s.readObject(&rd)
	})
	v.VCs = appendjson.Array(&rd, `,"vcs":`, r.VCs[len(r.VCs):], func(sep string, vc *VCDecision) {
		rd.Expect(sep)
		vc.Node = appendjson.KeepString(vc.Node, rd.String(`{"node":`))
		rd.Expect(",")
		vc.ReadMembers(&rd)
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

// readObject reads appendObject's layout into s, whole, keeping its
// node and code strings when they spell what is read.
func (s *ShardTickSummary) readObject(rd *appendjson.Reader) {
	v := ShardTickSummary{
		Node: appendjson.KeepString(s.Node, rd.String(`{"node":`)),
		OK:   rd.Bool(`,"ok":`),
	}
	if rd.Prefix(`,"error":`) {
		v.Error = string(rd.String(""))
	}
	if rd.Prefix(`,"code":`) {
		v.Code = appendjson.KeepString(s.Code, rd.String(""))
	}
	v.Slot = rd.Int(`,"slot":`)
	v.Reports = rd.Int(`,"reports":`)
	v.VCs = rd.Int(`,"vcs":`)
	rd.Expect("}")
	*s = v
}
