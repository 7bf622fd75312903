package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lpvs/internal/testenv"
)

// checkAppendJSON holds one value's append-encoding to encoding/json's:
// the appender must produce json.Encoder's bytes, trailing newline
// included, or report "fall back" — which it must for a value the
// encoder refuses (NaN, an infinity) and may for no other, whatever
// its strings hold — and either way WriteAppended must leave in the
// response what WriteJSON alone would have. It also holds the reader
// to the writer: ReadJSON reads every appended body back to v, float
// bits included, unless a string in it was escaped.
func checkAppendJSON[T interface {
	AppendJSON(dst []byte) ([]byte, bool)
}, P interface {
	*T
	ReadJSON(data []byte) bool
}](t *testing.T, v T) {
	t.Helper()
	var want bytes.Buffer
	err := json.NewEncoder(&want).Encode(v)
	got, ok := v.AppendJSON(nil)
	switch {
	case ok && err != nil:
		t.Fatalf("%T: appended %q for a value encoding/json refuses (%v)", v, got, err)
	case ok && !bytes.Equal(got, want.Bytes()):
		t.Fatalf("%T: appended %q, encoding/json writes %q", v, got, want.Bytes())
	case !ok && err == nil:
		t.Fatalf("%T: fell back on %+v, which encoding/json encodes", v, v)
	}
	fast, ref := httptest.NewRecorder(), httptest.NewRecorder()
	WriteAppended(fast, v)
	WriteJSON(ref, http.StatusOK, v)
	if fast.Code != ref.Code || !reflect.DeepEqual(fast.Header(), ref.Header()) ||
		!bytes.Equal(fast.Body.Bytes(), ref.Body.Bytes()) {
		t.Fatalf("%T: WriteAppended answered %d %v %q, WriteJSON %d %v %q", v,
			fast.Code, fast.Header(), fast.Body.Bytes(), ref.Code, ref.Header(), ref.Body.Bytes())
	}
	if !ok {
		return
	}
	escaped := bytes.ContainsRune(got, '\\') || bytes.ContainsFunc(got, func(r rune) bool { return r > '~' })
	var back T
	switch read := P(&back).ReadJSON(got); {
	case read == escaped:
		t.Fatalf("%T: ReadJSON(%q) = %t", v, got, read)
	case read && !testenv.BitEqual(back, v):
		t.Fatalf("%T: ReadJSON(%q) read %+v, appended from %+v", v, got, back, v)
	}
}

// checkReadJSON holds one reply's reader to json.Unmarshal on data: a
// body it reads must decode there to the same value, float bits
// included; a body it declines must leave the receiver as it was, so
// the caller's fallback returns exactly json.Unmarshal's value and
// error.
func checkReadJSON[T any, P interface {
	*T
	ReadJSON(data []byte) bool
}](t *testing.T, data []byte, was T) {
	t.Helper()
	var want T
	err := json.Unmarshal(data, &want)
	got := was
	switch read := P(&got).ReadJSON(data); {
	case read && err != nil:
		t.Fatalf("%T: read %q, which json.Unmarshal refuses: %v", got, data, err)
	case read && !testenv.BitEqual(got, want):
		t.Fatalf("%T: read %q as %+v, json.Unmarshal as %+v", got, data, got, want)
	case !read && !testenv.BitEqual(got, was):
		t.Fatalf("%T: declined %q but left %+v, was %+v", got, data, got, was)
	}
}

// FuzzDecodeReply is the differential of the three hot replies'
// readers against json.Unmarshal over mutated bodies. The seeds are
// AppendJSON's own bodies and near misses of them: numbers strconv
// takes and JSON does not, bytes after the closing brace, escaped or
// non-ASCII strings, and other layouts of the same members.
func FuzzDecodeReply(f *testing.F) {
	for _, body := range []string{
		`{"device_id":"dev-001","slot":7,"transform":true,"gamma":0.31}` + "\n",
		`{"device_id":"","slot":-3,"transform":false,"gamma":-0}`,
		`{"device_id":"dev 1","slot":0,"transform":false,"gamma":1e-7}` + "\n",
		`{"device_id":"d","slot":1,"transform":true,"gamma":1e+21}` + " \t\r\n",
		`{"device_id":"d","slot":1,"transform":true,"gamma":5e-324}`,
		`{"index":3,"duration_sec":2,"bitrate_kbps":4500,"transformed":true,"mean_luma":0.25,"peak_luma":0.9,` +
			`"mean_r":0.2,"mean_g":0.3,"mean_b":0.1,"brightness_scale":0.85,"plain_power_w":1.234}` + "\n",
		`{"slot":12,"accepted":true}` + "\n",
		// Numbers: JSON's grammar, not strconv's.
		`{"slot":+1,"accepted":true}`,
		`{"slot":01,"accepted":true}`,
		`{"slot":1e2,"accepted":true}`,
		`{"slot":1.0,"accepted":true}`,
		`{"slot":0x10,"accepted":true}`,
		`{"slot":1_0,"accepted":true}`,
		`{"slot":9223372036854775808,"accepted":true}`,
		`{"slot":-,"accepted":true}`,
		`{"device_id":"d","slot":1,"transform":true,"gamma":Inf}`,
		`{"device_id":"d","slot":1,"transform":true,"gamma":NaN}`,
		`{"device_id":"d","slot":1,"transform":true,"gamma":+0.5}`,
		`{"device_id":"d","slot":1,"transform":true,"gamma":0x1p4}`,
		`{"device_id":"d","slot":1,"transform":true,"gamma":.5}`,
		`{"device_id":"d","slot":1,"transform":true,"gamma":1.}`,
		`{"device_id":"d","slot":1,"transform":true,"gamma":1e}`,
		`{"device_id":"d","slot":1,"transform":true,"gamma":1e400}`,
		`{"device_id":"d","slot":1,"transform":true,"gamma":1e-400}`,
		// After the closing brace.
		`{"slot":12,"accepted":true}x`,
		`{"slot":12,"accepted":true}}`,
		`{"slot":12,"accepted":true}` + "\n{}",
		`{"slot":12,"accepted":true}` + "\x00",
		// Strings.
		`{"device_id":"dev\u0031","slot":1,"transform":true,"gamma":1}`,
		`{"device_id":"dev\"1","slot":1,"transform":true,"gamma":1}`,
		"{\"device_id\":\"d\u00e9v\",\"slot\":1,\"transform\":true,\"gamma\":1}",
		"{\"device_id\":\"dev\x7f\",\"slot\":1,\"transform\":true,\"gamma\":1}",
		"{\"device_id\":\"dev\t1\",\"slot\":1,\"transform\":true,\"gamma\":1}",
		`{"device_id":"dev-1`,
		// Other layouts of the same members.
		`{"accepted":true,"slot":12}`,
		`{"Slot":12,"accepted":true}`,
		`{"slot": 12,"accepted":true}`,
		` {"slot":12,"accepted":true}`,
		`{"slot":12,"accepted":true,"extra":1}`,
		`{"slot":12,"slot":13,"accepted":true}`,
		`{"slot":null,"accepted":true}`,
		`{"slot":12,"accepted":True}`,
		`{"slot":12,"accepted":1}`,
		`{"slot":12}`, `{}`, `[]`, `null`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadJSON(t, data, DecisionResponse{DeviceID: "before", Slot: 99, Transform: true, Gamma: -1})
		checkReadJSON(t, data, ChunkResponse{Index: 99, DurationSec: -1, BitrateKbps: 7, Transformed: true, PlainPowerW: -2})
		checkReadJSON(t, data, ReportResponse{Slot: 99, Accepted: true})
	})
}

// FuzzAppendJSON is the byte-identity differential of the three
// append-encoded responses against the json.Encoder they replaced on
// the hot path.
func FuzzAppendJSON(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 0.31, -12.5, 1e-7, 1e-6, 9.999e-7, 1e21, 9.99e20, 1e-320,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add("dev-001", 7, true, x, 0.5)
		f.Add("dev-001", -7, false, 0.5, x)
	}
	for _, id := range []string{
		"", "dev 1", `dev"1`, `dev\1`, "<dev>&", "dev\u20281", "dev\x011", "dev\n", "dev\xff1", "d\u00e9v", "dev\x7f",
	} {
		f.Add(id, 0, false, 0.25, 1.0)
	}
	f.Fuzz(func(t *testing.T, id string, n int, flag bool, x, y float64) {
		checkAppendJSON(t, DecisionResponse{DeviceID: id, Slot: n, Transform: flag, Gamma: x})
		checkAppendJSON(t, DecisionResponse{DeviceID: id, Slot: n, Transform: flag, Gamma: y})
		checkAppendJSON(t, ChunkResponse{
			Index: n, DurationSec: x, BitrateKbps: -n, Transformed: flag,
			MeanLuma: y, PeakLuma: x * y, MeanR: x + y, MeanG: x - y, MeanB: -x,
			BrightnessScale: x / 3, PlainPowerW: y * 1e9,
		})
		checkAppendJSON(t, ReportResponse{Slot: n, Accepted: flag})
	})
}

// TestQueryValueMatchesParseQuery pins the handlers' query reader to
// the one it stands in for: the first value url.ParseQuery files under
// the key, "" when there is none.
func TestQueryValueMatchesParseQuery(t *testing.T) {
	for _, raw := range []string{
		"", "device=d1", "device=d1&index=3", "index=3&device=d1",
		"device=first&device=second", // first of duplicates
		"device=&index=3",            // empty value
		"index=3",                    // missing key
		"a=1&&device=d1&",            // empty pairs
		"device",                     // bare key
		"device&index=3", "xdevice=no&device=yes", "device=a=b",
		"=x&device=d1", "&", "device=d1&index",
		"device=%41", "device=a+b", "dev%69ce=d1", // unescaping
		"device=d1;index=3", "a=1;b=2&device=d1", // ParseQuery drops a pair holding ';'
		"device=%zz&index=3", // and one it cannot unescape
	} {
		vs, _ := url.ParseQuery(raw)
		for _, key := range []string{"device", "index"} {
			if got, want := queryValue(raw, key), vs.Get(key); got != want {
				t.Errorf("queryValue(%q, %q) = %q, url.ParseQuery files %q", raw, key, got, want)
			}
		}
	}
}

// tickSample builds a shard tick reply from fuzz inputs: nvc VCs and
// their device arrays, the strings in every string member, x and y in
// every float, and nil or empty slices where shape says so — every
// form encoding/json has for the reply, omitted members included.
func tickSample(node, epoch, reason string, n int, flag bool, x, y float64, canon []byte, shape uint8) ShardTickResponse {
	r := ShardTickResponse{Node: node, Slot: n, Epoch: epoch, Reports: 2 * n, Eligible: -n, Selected: n / 3,
		Swaps: n % 7, Degraded: flag, Sched: TickStats{Slot: n, Reports: n, Phase1Optimal: flag,
			CompactSec: x, Phase1Sec: y, Phase2Sec: x * y, CPUSec: -x, DurationSec: y / 3, Phase1Nodes: n * 5,
			CacheMisses: n, Replayed: !flag, Degraded: flag, DegradedReason: reason}}
	nvc := int(shape % 4)
	if shape&4 == 0 {
		r.VCs, r.Devices = []ShardVCDecision{}, []ShardVCDevices{}
	}
	for i := 0; i < nvc; i++ {
		vc := ShardVCDecision{VC: node + strconv.Itoa(i), Reports: n + i, Eligible: i, Selected: -i, Swaps: n,
			Degraded: flag, WallSec: x + float64(i), Canonical: canon}
		if i == 1 {
			vc.Canonical = nil
		}
		r.VCs = append(r.VCs, vc)
		d := ShardVCDevices{}
		if shape&8 == 0 || i > 0 {
			d.Gamma, d.Observations = []float64{}, []int{}
		}
		for k := 0; k < i+int(shape>>4); k++ {
			d.Gamma = append(d.Gamma, x*float64(k)-y)
			d.Observations = append(d.Observations, n+k)
		}
		r.Devices = append(r.Devices, d)
	}
	return r
}

// FuzzAppendTick holds a shard tick reply's head and reader to
// encoding/json. appendHead — the members appendShardTickLocked writes
// before the vcs — must write json.Encoder's bytes for them, and
// ReadJSON must read json.Marshal's body of the reply back to the
// value, float bits included, unless a string in it was escaped.
// TestShardTickReplyLayout holds the whole reply the shard writes to
// json.Encoder.
func FuzzAppendTick(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 0.31, 1e-7, 1e21, 5e-324, math.NaN(), math.Inf(-1)} {
		f.Add("n1", "e0f3", "", 3, true, x, 0.5, []byte("selected=1\nd=true\n"), uint8(0x13))
		f.Add("", "", "deadline:phase2-skipped", -1, false, 0.25, x, []byte{}, uint8(0x2e))
	}
	for _, s := range []string{`n"1`, "n\\1", "<n>&", "n ", "n\xff", "dév", "n\x01"} {
		f.Add(s, s, s, 7, true, 1.5, 2.5, []byte(s), uint8(0x21))
	}
	f.Fuzz(func(t *testing.T, node, epoch, reason string, n int, flag bool, x, y float64, canon []byte, shape uint8) {
		r := tickSample(node, epoch, reason, n, flag, x, y, canon, shape)
		head := ShardTickResponse{Node: r.Node, Slot: r.Slot, Epoch: r.Epoch, Reports: r.Reports,
			Eligible: r.Eligible, Selected: r.Selected, Swaps: r.Swaps, Degraded: r.Degraded}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(head); err != nil {
			t.Fatal(err)
		}
		if got := append(head.appendHead(nil), `,"vcs":`...); !bytes.HasPrefix(want.Bytes(), got) {
			t.Fatalf("appendHead wrote %q, encoding/json %q", got, want.Bytes())
		}
		body, err := json.Marshal(r)
		if err != nil {
			return // a NaN or an infinity: TestShardTickFallbackIsWriteJSONs
		}
		body = append(body, '\n')
		escaped := bytes.ContainsRune(body, '\\') || bytes.ContainsFunc(body, func(r rune) bool { return r > '~' })
		var back ShardTickResponse
		switch read := back.ReadJSON(body); {
		case read == escaped:
			t.Fatalf("ReadJSON(%q) = %t", body, read)
		case read && !testenv.BitEqual(back, r):
			t.Fatalf("ReadJSON(%q) read %+v, marshalled from %+v", body, back, r)
		}
	})
}

// FuzzDecodeTick is FuzzDecodeReply for the shard's tick reply. The
// receiver holds a reply already, and storage beyond its slices'
// lengths that the reader reuses: a body read must still equal
// json.Unmarshal's into a zero value, and a body declined must leave
// the reply as it was.
func FuzzDecodeTick(f *testing.F) {
	body := func(r ShardTickResponse) string {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	good := body(tickSample("n1", "e0f3", "deadline:phase1-greedy", 4, true, 0.5, 1e-7, []byte("a=true\n"), 0x23))
	for _, s := range []string{
		good,
		body(tickSample("", "", "", 0, false, 0, 0, nil, 0)),
		body(tickSample("n2", "", "", 1, false, 2, 3, []byte{}, 0x1c)),
		strings.TrimSuffix(good, "\n"),
		// After the closing brace.
		good + "x", strings.TrimSuffix(good, "\n") + "}", good + "{}", good + "\x00",
		// Arrays and base64.
		strings.Replace(good, `"gamma":[`, `"gamma":[,`, 1),
		strings.Replace(good, `],"observations"`, `,],"observations"`, 1),
		strings.Replace(good, `"gamma":[`, `"gamma":[ `, 1),
		strings.Replace(good, `"observations":[`, `"observations":[1.5,`, 1),
		strings.Replace(good, `"observations":[`, `"observations":[+1,`, 1),
		strings.Replace(good, `"canonical":"`, `"canonical":"!`, 1),
		strings.Replace(good, `"canonical":"`, `"canonical":"YQ`, 1),
		strings.Replace(good, `"canonical":"`, `"canonical":"Y`, 1),
		strings.Replace(good, `"canonical":"`, `"canonical":"\n`, 1),
		strings.Replace(good, `"vcs":[`, `"vcs":null,"x":[`, 1),
		strings.Replace(good, `"devices":[`, `"devices":[null,`, 1),
		// Members.
		strings.Replace(good, `"node":"n1",`, ``, 1),
		strings.Replace(good, `,"epoch":"e0f3"`, ``, 1),
		strings.Replace(good, `,"degraded_reason":"deadline:phase1-greedy"`, `,"degraded_reason":""`, 1),
		strings.Replace(good, `"slot":4,`, `"slot":4,"slot":5,`, 1),
		strings.Replace(good, `"node":"n1"`, `"node":"n\"1"`, 1),
		strings.Replace(good, `{"slot":4,"reports":4`, `{"slot":4,"reports":4,"extra":1`, 1),
		`{}`, `null`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		was := tickSample("old", "epoch", "why", 9, true, 1, 2, []byte("old\n"), 0x12)
		spare := tickSample("spare", "", "", 3, false, 4, 5, []byte("spare\n"), 0x33)
		was.VCs = append(slices.Clip(was.VCs), spare.VCs...)[:len(was.VCs)]
		was.Devices = append(slices.Clip(was.Devices), spare.Devices...)[:len(was.Devices)]
		checkReadJSON(t, data, was)
		checkReadJSON(t, data, ShardTickResponse{})
	})
}

// TestShardTickFallbackIsWriteJSONs: handleShardTick answers a reply
// holding a float with no JSON form by writing the header alone, which
// must be what WriteJSON answers for it.
func TestShardTickFallbackIsWriteJSONs(t *testing.T) {
	bad := tickSample("n1", "e", "", 1, false, math.NaN(), 1, []byte("x"), 0x11)
	fast, ref := httptest.NewRecorder(), httptest.NewRecorder()
	WriteBody(fast, http.StatusOK, nil)
	WriteJSON(ref, http.StatusOK, bad)
	if fast.Code != ref.Code || !reflect.DeepEqual(fast.Header(), ref.Header()) || !bytes.Equal(fast.Body.Bytes(), ref.Body.Bytes()) {
		t.Fatalf("fallback answered %d %v %q, WriteJSON %d %v %q",
			fast.Code, fast.Header(), fast.Body.Bytes(), ref.Code, ref.Header(), ref.Body.Bytes())
	}
}
