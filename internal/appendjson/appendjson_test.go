package appendjson

import (
	"encoding/json"
	"math"
	"strings"
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
	if got := String([]byte("x"), []byte(s)); string(got) != "x"+string(want) {
		t.Fatalf("String of bytes %q appended %s, encoding/json writes %s", s, got[1:], want)
	}
	// Read back: a string Reader takes verbatim, anything escaped is
	// declined.
	verbatim := !strings.ContainsFunc(s, func(r rune) bool { return r < ' ' || r > '~' || strings.ContainsRune(`"\<>&`, r) })
	r := NewReader(append([]byte(`{"s":`), append(want, '}')...))
	if back := r.String(`{"s":`); r.End() != verbatim || verbatim && string(back) != s {
		t.Fatalf("Reader.String(%s) = %q, verbatim=%t", want, back, verbatim)
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
	if !ok {
		return
	}
	r := NewReader(append([]byte(`{"f":`), append(want, '}')...))
	if back := r.Float(`{"f":`); !r.End() || math.Float64bits(back) != math.Float64bits(f) {
		t.Fatalf("Reader.Float(%s) = %v, written from %v", want, back, f)
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

// TestReaderNumbers holds the Reader's numbers to json.Unmarshal's: a
// member it reads decodes there to the same value, and it reads every
// bare number json.Unmarshal reads into the same type — but not the
// tokens strconv alone would take, null, or a number with whitespace
// around it, which the layout never has.
func TestReaderNumbers(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "7", "-12", "0.5", "-0.0", "1e7", "1E+7", "1e-7", "12.5e-3", "1e+21", "5e-324", "1e400", "1e-400",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"", "-", "+1", "01", "-01", "00", ".5", "1.", "1.e3", "1e", "1e+", "0x10", "0x1p4", "1_0",
		"Inf", "-Inf", "NaN", "infinity", "1.5.2", "1e2e3", "--1", "true", "null", `"1"`, " 1", "1 ", "[1]",
	} {
		doc := []byte(`{"v":` + tok + "}")
		bare := tok != "null" && !strings.ContainsRune(tok, ' ')
		var wantF struct{ V float64 }
		errF := json.Unmarshal(doc, &wantF)
		r := NewReader(doc)
		f := r.Float(`{"v":`)
		if read := r.End(); read != (errF == nil && bare) || read && math.Float64bits(f) != math.Float64bits(wantF.V) {
			t.Errorf("Reader.Float(%q) = %v (read %t), json.Unmarshal %v (%v)", tok, f, read, wantF.V, errF)
		}
		var wantN struct{ V int }
		errN := json.Unmarshal(doc, &wantN)
		r = NewReader(doc)
		n := r.Int(`{"v":`)
		if read := r.End(); read != (errN == nil && bare) || read && n != wantN.V {
			t.Errorf("Reader.Int(%q) = %v (read %t), json.Unmarshal %v (%v)", tok, n, read, wantN.V, errN)
		}
	}
}

// TestReaderLayout pins what the Reader takes around its values: the
// exact literals, an optional member by Prefix, true and false only,
// and nothing after the closing brace but JSON whitespace.
func TestReaderLayout(t *testing.T) {
	read := func(doc string) (string, bool, bool) {
		r := NewReader([]byte(doc))
		var opt []byte
		if r.Prefix(`{"o":`) {
			opt = r.String("")
			r.Prefix(",")
		} else {
			r.Prefix("{")
		}
		b := r.Bool(`"b":`)
		return string(opt), b, r.End()
	}
	for _, tc := range []struct {
		doc  string
		opt  string
		b    bool
		read bool
	}{
		{`{"b":true}`, "", true, true},
		{`{"o":"x","b":false}` + " \t\r\n", "x", false, true},
		{`{"o":"","b":true}`, "", true, true},
		{`{"b":True}`, "", false, false},
		{`{"b":1}`, "", false, false},
		{`{"b":null}`, "", false, false},
		{`{"b": true}`, "", false, false},
		{`{"b":true}x`, "", true, false},
		{`{"b":true}}`, "", true, false},
		{"{\"b\":true}\f", "", true, false},
		{`{"b":true`, "", true, false},
		{`{"o":"x\"y","b":true}`, "", false, false},
		{`{"o":"x`, "", false, false},
	} {
		opt, b, ok := read(tc.doc)
		if ok != tc.read || ok && (opt != tc.opt || b != tc.b) {
			t.Errorf("%q read as (%q, %t, %t), want (%q, %t, %t)", tc.doc, opt, b, ok, tc.opt, tc.b, tc.read)
		}
	}
}
