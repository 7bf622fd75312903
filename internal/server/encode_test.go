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
)

// checkAppendJSON holds one value's append-encoding to encoding/json's:
// the appender must produce json.Encoder's bytes, trailing newline
// included, or report "fall back" — which it must for a value the
// encoder refuses (NaN, an infinity) and may for no other, whatever
// its strings hold — and either way writeAppended must leave in the
// response what WriteJSON alone would have.
func checkAppendJSON[T interface {
	appendJSON(dst []byte) ([]byte, bool)
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
	writeAppended(fast, v)
	WriteJSON(ref, http.StatusOK, v)
	if fast.Code != ref.Code || !reflect.DeepEqual(fast.Header(), ref.Header()) ||
		!bytes.Equal(fast.Body.Bytes(), ref.Body.Bytes()) {
		t.Fatalf("%T: writeAppended answered %d %v %q, WriteJSON %d %v %q", v,
			fast.Code, fast.Header(), fast.Body.Bytes(), ref.Code, ref.Header(), ref.Body.Bytes())
	}
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
