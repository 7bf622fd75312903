package appendjson

import (
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
//   - true and false.
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

// expect consumes lit or fails the reader.
func (r *Reader) expect(lit string) bool {
	if !r.Prefix(lit) {
		r.failed = true
	}
	return !r.failed
}

// String consumes lit and a quoted string, and returns the string's
// bytes, which alias the input.
func (r *Reader) String(lit string) []byte {
	if !r.expect(lit) || !r.expect(`"`) {
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

// Int consumes lit and an integer: what json.Unmarshal stores in an
// int, which is a number strconv.ParseInt reads in base 10 and that
// fits.
func (r *Reader) Int(lit string) int {
	n, err := strconv.ParseInt(string(r.number(lit)), 10, strconv.IntSize)
	if err != nil {
		r.failed = true
		return 0
	}
	return int(n)
}

// Float consumes lit and a number, parsed as json.Unmarshal parses a
// float64; one out of range fails the reader.
func (r *Reader) Float(lit string) float64 {
	f, err := strconv.ParseFloat(string(r.number(lit)), 64)
	if err != nil {
		r.failed = true
		return 0
	}
	return f
}

// Bool consumes lit and true or false.
func (r *Reader) Bool(lit string) bool {
	if !r.expect(lit) {
		return false
	}
	if r.Prefix("true") {
		return true
	}
	r.expect("false")
	return false
}

// End consumes the closing brace and reports whether the whole input
// was read: nothing but JSON whitespace may follow the brace.
func (r *Reader) End() bool {
	if !r.expect("}") {
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

// number consumes lit and the token up to the next ',' or '}', and
// returns it if it is a JSON number; strconv alone would also take
// "+1", "0x1p4", "Inf" or "01". json.Valid checks the grammar, and
// what else it takes (a literal, a string, leading or trailing
// whitespace) strconv then refuses.
func (r *Reader) number(lit string) []byte {
	if !r.expect(lit) {
		return nil
	}
	start := r.off
	for r.off < len(r.data) && r.data[r.off] != ',' && r.data[r.off] != '}' {
		r.off++
	}
	tok := r.data[start:r.off]
	if !json.Valid(tok) {
		r.failed = true
		return nil
	}
	return tok
}
