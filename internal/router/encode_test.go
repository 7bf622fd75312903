package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lpvs/internal/client"
	"lpvs/internal/server"
	"lpvs/internal/shard"
	"lpvs/internal/testenv"
)

// mergedSample builds a merged tick from fuzz inputs through
// MergeTicks itself: two shards, the second failed when fail is set
// (with an envelope code or without one, by shape), each with the VCs
// shape gives it, every string member holding s and every float x or
// y.
func mergedSample(s string, n int, fail bool, x, y float64, canon []byte, shape uint8) TickResponse {
	nodes := []shard.Node{{ID: "n1" + s}, {ID: "n2"}}
	results := make([]*server.ShardTickResponse, 2)
	errs := make([]error, 2)
	for i := range nodes {
		res := &server.ShardTickResponse{Node: nodes[i].ID, Slot: n, Reports: n + i, Eligible: i, Selected: -n,
			Swaps: i, Degraded: shape&1 == 1, Sched: server.TickStats{Slot: n, CompactSec: x, Phase1Sec: y,
				DurationSec: x / 7, Phase1Nodes: n, Degraded: shape&2 == 2}}
		if i == 0 {
			res.Sched.DegradedReason = s
		}
		for v := 0; v < int(shape>>(2+2*i))%4; v++ {
			res.VCs = append(res.VCs, server.ShardVCDecision{VC: s + strconv.Itoa(v), Reports: v, Eligible: n,
				Selected: v, Swaps: -v, Degraded: v%2 == 0, WallSec: y * float64(v), Canonical: canon})
		}
		results[i] = res
	}
	if fail {
		results[1] = nil
		errs[1] = errors.New("shard " + s + " down")
		if shape&64 != 0 {
			errs[1] = &client.APIError{Code: s, Message: "refused"}
		}
	}
	return MergeTicks(n, s, nodes, results, errs)
}

// FuzzAppendTick holds the merged tick's appender to json.Encoder —
// the omitted error and code of a shard that answered included — and
// server.WriteAppended to WriteJSON, which a NaN or an infinity must
// fall back to; ReadJSON must read every appended body without an
// escaped string back to the value.
func FuzzAppendTick(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 0.31, 1e-7, 1e21, math.NaN(), math.Inf(1)} {
		f.Add("live", 3, false, x, 0.5, []byte("selected=1\nd=true\n"), uint8(0x1d))
		f.Add("", -1, true, 0.25, x, []byte{}, uint8(0x46))
	}
	for _, s := range []string{`n"1`, "n\\1", "<n>&", "n\xff", "dév", "n\x01"} {
		f.Add(s, 7, true, 1.5, 2.5, []byte(s), uint8(0x7f))
	}
	f.Fuzz(func(t *testing.T, s string, n int, fail bool, x, y float64, canon []byte, shape uint8) {
		v := mergedSample(s, n, fail, x, y, canon, shape)
		var want bytes.Buffer
		err := json.NewEncoder(&want).Encode(v)
		got, ok := v.AppendJSON(nil)
		switch {
		case ok && err != nil:
			t.Fatalf("appended %q for a value encoding/json refuses (%v)", got, err)
		case ok && !bytes.Equal(got, want.Bytes()):
			t.Fatalf("appended\n%s\nencoding/json writes\n%s", got, want.Bytes())
		case !ok && err == nil:
			t.Fatalf("fell back on %+v, which encoding/json encodes", v)
		}
		fast, ref := httptest.NewRecorder(), httptest.NewRecorder()
		server.WriteAppended(fast, v)
		server.WriteJSON(ref, http.StatusOK, v)
		if fast.Code != ref.Code || !reflect.DeepEqual(fast.Header(), ref.Header()) || !bytes.Equal(fast.Body.Bytes(), ref.Body.Bytes()) {
			t.Fatalf("WriteAppended answered %d %q, WriteJSON %d %q", fast.Code, fast.Body.Bytes(), ref.Code, ref.Body.Bytes())
		}
		if !ok {
			return
		}
		escaped := bytes.ContainsRune(got, '\\') || bytes.ContainsFunc(got, func(r rune) bool { return r > '~' })
		var back TickResponse
		switch read := back.ReadJSON(got); {
		case read == escaped:
			t.Fatalf("ReadJSON(%q) = %t", got, read)
		case read && !testenv.BitEqual(back, v):
			t.Fatalf("ReadJSON read %+v, appended from %+v", back, v)
		}
	})
}

// FuzzDecodeTick holds the two tick readers to json.Unmarshal over
// mutated bodies. TickResponse.ReadJSON must read a body as
// json.Unmarshal does or decline it and leave the value as it was,
// into a value that already holds a merge and spare storage beyond its
// lengths. The router's shardReply is read as client.Caller reads it —
// ReadJSON, else json.Unmarshal — into storage an earlier reply left,
// and must come out as json.Unmarshal into a zero value.
func FuzzDecodeTick(f *testing.F) {
	body := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	good := body(mergedSample("live", 4, true, 0.5, 1e-7, []byte("a=true\n"), 0x6d))
	shardBody := body(server.ShardTickResponse{Node: "n1", Slot: 3, Epoch: "e", VCs: []server.ShardVCDecision{
		{VC: "ch", Canonical: []byte("selected=0\nd=false\n")}}, Devices: []server.ShardVCDevices{
		{Gamma: []float64{0.3}, Observations: []int{2}}}})
	for _, s := range []string{
		good, shardBody,
		body(mergedSample("", 0, false, 0, 0, nil, 0)),
		body(mergedSample("x", 1, false, 2, 3, []byte{}, 0x2c)),
		good + "x", strings.TrimSuffix(good, "\n") + "}", good + "\x00", shardBody + "]",
		strings.Replace(good, `,"code":"live"`, ``, 1),
		strings.Replace(good, `"ok":true`, `"ok":true,"error":"","code":""`, 1),
		strings.Replace(good, `"vcs":[{`, `"vcs":[null,{`, 1),
		strings.Replace(good, `"shards":[`, `"shards":null,"x":[`, 1),
		strings.Replace(good, `"canonical":"`, `"canonical":"=`, 1),
		strings.Replace(shardBody, `"observations":[2]`, `"observations":[2,]`, 1),
		strings.Replace(shardBody, `"gamma":[0.3]`, `"gamma":[0.3],"gamma":[1]`, 1),
		strings.Replace(shardBody, `"node":"n1",`, ``, 1),
		strings.Replace(shardBody, `{"node":"n1",`, `{"node":"n1", `, 1),
		`{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		was := mergedSample("old", 9, true, 1, 2, []byte("old\n"), 0x7f)
		spare := mergedSample("spare", 3, false, 4, 5, []byte("spare\n"), 0x3f)
		was.Shards = append(slices.Clip(was.Shards), spare.Shards...)[:len(was.Shards)]
		was.VCs = append(slices.Clip(was.VCs), spare.VCs...)[:len(was.VCs)]
		for _, start := range []TickResponse{was, {}} {
			var want TickResponse
			err := json.Unmarshal(data, &want)
			got := start
			switch read := got.ReadJSON(data); {
			case read && err != nil:
				t.Fatalf("read %q, which json.Unmarshal refuses: %v", data, err)
			case read && !testenv.BitEqual(got, want):
				t.Fatalf("read %q as %+v, json.Unmarshal as %+v", data, got, want)
			case !read && !testenv.BitEqual(got, start):
				t.Fatalf("declined %q but left %+v, was %+v", data, got, start)
			}
		}

		var want server.ShardTickResponse
		wantErr := json.Unmarshal(data, &want)
		var reply shardReply
		if err := json.Unmarshal([]byte(shardBody), &reply); err != nil {
			t.Fatal(err)
		}
		reply.Devices[0].Gamma = append(reply.Devices[0].Gamma, 9, 9) // stale beyond the next reply's lengths
		reply.reset()
		var err error
		if !reply.ReadJSON(data) {
			err = json.Unmarshal(data, &reply)
		}
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("shard reply %q: error %v, json.Unmarshal's %v", data, err, wantErr)
		case err == nil && !testenv.BitEqual(reply.ShardTickResponse, want):
			t.Fatalf("shard reply %q read as %+v, json.Unmarshal as %+v", data, reply.ShardTickResponse, want)
		}
	})
}

// TestDeclinedTickReadAllocs: a tick reader that declines a body costs
// nothing before the caller's json.Unmarshal. A standalone daemon's
// /v1/tick body, which the load generator decodes into a TickResponse,
// is declined by both tick readers on every slot.
func TestDeclinedTickReadAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(server.TickResponse{Slot: 3, Reports: 10, Eligible: 9, Selected: 4,
		Sched: server.TickStats{Slot: 3, Reports: 10, CompactSec: 0.25, DurationSec: 1e-7}}); err != nil {
		t.Fatal(err)
	}
	var merged TickResponse
	var reply server.ShardTickResponse
	allocs := testing.AllocsPerRun(100, func() {
		if merged.ReadJSON(body.Bytes()) || reply.ReadJSON(body.Bytes()) {
			t.Fatalf("a tick reader read %s", body.Bytes())
		}
	})
	if allocs != 0 {
		t.Errorf("declining a standalone tick body allocates %.0f times, want 0", allocs)
	}
}
