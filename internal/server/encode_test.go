package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
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
	appendJSON(dst []byte) ([]byte, bool)
}, P interface {
	*T
	ReadJSON(data []byte) bool
}](t *testing.T, v T) {
	t.Helper()
	var want bytes.Buffer
	err := json.NewEncoder(&want).Encode(v)
	got, ok := v.appendJSON(nil)
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
// appendJSON's own bodies and near misses of them: numbers strconv
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
