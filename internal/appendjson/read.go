package appendjson

import (
	"encoding/base64"
	"encoding/json"
	"strconv"
)

// Reader is the decode half of an appender: it reads one JSON object
// laid out exactly as an appender wrote it — the same keys in the same
// order, no whitespace inside — and declines any other byte. It reads
// no more than it can hand back exactly as json.Unmarshal would; a
// caller whose Reader fails falls back to json.Unmarshal, so every
// other input, and every error, is encoding/json's. It reads:
//
//   - strings of printable ASCII without '"' or '\', which a JSON
//     string holds verbatim (anything escaped is declined);
//   - numbers that match the JSON grammar, parsed by strconv as
//     encoding/json parses them;
//   - true and false;
//   - a []byte's base64 string, and null for a nil slice (Bytes);
//   - arrays, element by element, and null for a nil slice (Array);
//   - nested objects, member by member through Expect and the readers
//     above.
//
// A failure is sticky: after it every read returns the zero value and
// End reports false.
type Reader struct {
	data   []byte
	off    int
	failed bool
}

// NewReader returns a Reader at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Prefix consumes lit when the unread bytes start with it and reports
// whether they did. A miss is not a failure: it is how a reader takes
// an optional (omitempty) member.
func (r *Reader) Prefix(lit string) bool {
	if r.failed || len(r.data)-r.off < len(lit) || string(r.data[r.off:r.off+len(lit)]) != lit {
		return false
	}
	r.off += len(lit)
	return true
}

// Expect consumes lit or fails the reader, and reports whether the
// reader is still good.
func (r *Reader) Expect(lit string) bool {
	if !r.Prefix(lit) {
		r.failed = true
	}
	return !r.failed
}

// String consumes lit and a quoted string, and returns the string's
// bytes, which alias the input.
func (r *Reader) String(lit string) []byte {
	if !r.Expect(lit) || !r.Expect(`"`) {
		return nil
	}
	start := r.off
	for ; r.off < len(r.data); r.off++ {
		switch c := r.data[r.off]; {
		case c == '"':
			r.off++
			return r.data[start : r.off-1]
		case c < ' ' || c > '~' || c == '\\':
			r.failed = true
			return nil
		}
	}
	r.failed = true
	return nil
}

// KeepString returns old when it spells b, else b as a new string: a
// reader that reads into a value it reuses keeps the strings that did
// not change instead of allocating them again.
func KeepString(old string, b []byte) string {
	if old == string(b) {
		return old
	}
	return string(b)
}

// Int consumes lit and an integer: what json.Unmarshal stores in an
// int, which is a number strconv.ParseInt reads in base 10 and that
// fits.
func (r *Reader) Int(lit string) int {
	tok := r.number(lit)
	if r.failed {
		return 0 // strconv's error for a missing token would allocate
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		r.failed = true
		return 0
	}
	return int(n)
}

// Float consumes lit and a number, parsed as json.Unmarshal parses a
// float64; one out of range fails the reader.
func (r *Reader) Float(lit string) float64 {
	tok := r.number(lit)
	if r.failed {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.failed = true
		return 0
	}
	return f
}

// Bool consumes lit and true or false.
func (r *Reader) Bool(lit string) bool {
	if !r.Expect(lit) {
		return false
	}
	if r.Prefix("true") {
		return true
	}
	r.Expect("false")
	return false
}

// Bytes consumes lit and a []byte as encoding/json writes one — a
// base64 string, or null for a nil slice — and returns the decoded
// bytes appended to dst[:0], so a caller that keeps dst reuses its
// storage. An empty string reads as an empty, non-nil slice, as
// json.Unmarshal makes it.
func (r *Reader) Bytes(lit string, dst []byte) []byte {
	if !r.Expect(lit) || r.Prefix("null") {
		return nil
	}
	s := r.String("")
	if r.failed {
		return nil
	}
	out, err := base64.StdEncoding.AppendDecode(dst[:0], s)
	if err != nil {
		r.failed = true
		return nil
	}
	if out == nil {
		out = []byte{}
	}
	return out
}

// Array consumes lit and an array — or null, which reads as nil — and
// returns its elements appended to dst[:0]. elem reads one element
// from r into *v, given the separator that precedes it: "" for the
// first, "," after. An element within dst's capacity is handed over as
// it was, so elem can reuse the storage it holds and must overwrite
// every field. An empty array reads as an empty, non-nil slice, as
// json.Unmarshal makes it.
func Array[T any](r *Reader, lit string, dst []T, elem func(sep string, v *T)) []T {
	if !r.Expect(lit) || r.Prefix("null") || !r.Expect("[") {
		return nil
	}
	dst = dst[:0]
	if dst == nil {
		dst = []T{}
	}
	for sep := ""; !r.Prefix("]"); sep = "," {
		if r.failed {
			return nil
		}
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			var zero T
			dst = append(dst, zero)
		}
		elem(sep, &dst[len(dst)-1])
	}
	return dst
}

// End consumes the closing brace and reports whether the whole input
// was read: nothing but JSON whitespace may follow the brace.
func (r *Reader) End() bool {
	if !r.Expect("}") {
		return false
	}
	for _, c := range r.data[r.off:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			r.failed = true
			return false
		}
	}
	return true
}

// number consumes lit and the token up to the next ',', '}' or ']', and
// returns it if it is a JSON number; strconv alone would also take
// "+1", "0x1p4", "Inf" or "01". json.Valid checks the grammar, and
// what else it takes (a literal, a string, leading or trailing
// whitespace) strconv then refuses.
func (r *Reader) number(lit string) []byte {
	if !r.Expect(lit) {
		return nil
	}
	start := r.off
	for r.off < len(r.data) && r.data[r.off] != ',' && r.data[r.off] != '}' && r.data[r.off] != ']' {
		r.off++
	}
	tok := r.data[start:r.off]
	if !json.Valid(tok) {
		r.failed = true
		return nil
	}
	return tok
}
