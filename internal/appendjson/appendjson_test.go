package appendjson

import (
	"encoding/json"
	"math"
	"testing"
)

// checkString holds String to json.Marshal, which escapes exactly as a
// json.Encoder does (HTML escaping on).
func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := String([]byte("x"), s); string(got) != "x"+string(want) {
		t.Fatalf("String(%q) appended %s, encoding/json writes %s", s, got[1:], want)
	}
}

// checkFloat holds Float to json.Marshal: the same bytes, or ok cleared
// and nothing appended exactly when encoding/json refuses the value.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	ok := true
	got := Float([]byte("x"), f, &ok)
	switch {
	case ok != (err == nil):
		t.Fatalf("Float(%v) ok=%t, encoding/json says %v", f, ok, err)
	case !ok && string(got) != "x":
		t.Fatalf("Float(%v) appended %q for a value with no JSON form", f, got[1:])
	case ok && string(got) != "x"+string(want):
		t.Fatalf("Float(%v) appended %s, encoding/json writes %s", f, got[1:], want)
	}
}

var stringSeeds = []string{
	"", "dev-001", `"`, `\`, "<>&", "\x01", "\n", "\b\f\r\t", "\x7f", "\xff", "a\xffb", "\xe2\x80",
	"\u2028", "\u2029", "x\u2028y", "\u00e9", "d\u00e9v", "\u2027\u202a", "\U0001f50b", "tail\\",
	"selected=1\ndev-a=true\n",
}

var floatSeeds = []float64{
	0, math.Copysign(0, -1), 1, -12.5, 0.31, 1e-7, 1e-6, 9.999e-7, 9.99e20, 1e21, 1e-320, 1e-9, 1.5e-10,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestPrimitivesMatchEncodingJSON(t *testing.T) {
	for _, s := range stringSeeds {
		checkString(t, s)
	}
	for _, f := range floatSeeds {
		checkFloat(t, f)
	}
	// Spelled out, so the table does not rest on encoding/json alone:
	// DEL is not a control byte to it and valid multi-byte runes pass
	// through; the rest is escaped.
	for in, want := range map[string]string{
		"\x7f":         "\"\x7f\"",
		"d\u00e9v":     "\"d\xc3\xa9v\"",
		"\xff":         `"\ufffd"`,
		"\u2028":       `"\u2028"`,
		"<&>":          `"\u003c\u0026\u003e"`,
		"\x01":         `"\u0001"`,
		"a\nb":         `"a\nb"`,
		`q"b\`:         `"q\"b\\"`,
		"1e-7":         `"1e-7"`,
		"\xe2\x80\xa9": `"\u2029"`,
	} {
		if got := string(String(nil, in)); got != want {
			t.Errorf("String(%q) = %s, want %s", in, got, want)
		}
	}
	ok := true
	for f, want := range map[float64]string{
		1e-7: "1e-7", 9.999e-7: "9.999e-7", 1e-6: "0.000001", 9.99e20: "999000000000000000000", 1e21: "1e+21",
		math.Copysign(0, -1): "-0", 1e-320: "1e-320",
	} {
		if got := string(Float(nil, f, &ok)); got != want || !ok {
			t.Errorf("Float(%v) = %s (ok=%t), want %s", f, got, ok, want)
		}
	}
}

// FuzzAppendPrimitives is the differential of both writers against
// json.Marshal over arbitrary strings and float bit patterns.
func FuzzAppendPrimitives(f *testing.F) {
	for i, s := range stringSeeds {
		f.Add(s, math.Float64bits(floatSeeds[i%len(floatSeeds)]))
	}
	for _, x := range floatSeeds {
		f.Add("dev", math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		checkString(t, s)
		checkFloat(t, math.Float64frombits(bits))
	})
}
