// Package appendjson holds the two JSON value writers the repo's
// hand-rolled encoders share (DESIGN.md §18): the daemon's hot response
// bodies (internal/server/encode.go) and the audit record
// (internal/obs/audit). Both append exactly what encoding/json writes
// for the same value, so an appender built from them can replace a
// json.Encoder byte for byte; the fuzz test here holds each to
// json.Marshal. Integers and booleans need no helper: strconv.AppendInt
// and strconv.AppendBool already are encoding/json's form. Reader
// (read.go) is the way back: it reads an object in the layout an
// appender wrote, and declines anything else to json.Unmarshal.
package appendjson

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Float appends f as encoding/json writes a float64: the ES6
// number-to-string form. NaN and the infinities have no JSON form;
// they clear *ok and append nothing, and the caller fails as
// json.Encoder does.
func Float(dst []byte, f float64, ok *bool) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		*ok = false
		return dst
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// String appends s as a quoted JSON string with encoding/json's
// escaping, HTML escaping on (every json.Encoder's default): the quote
// and the backslash get a backslash, \b \f \n \r \t their short forms,
// any other control byte and <, > and & a \u00XX, an invalid UTF-8 byte
// becomes \ufffd, and U+2028 / U+2029 are escaped. Everything else —
// DEL and valid multi-byte runes included — is copied through. s may
// be bytes, which are appended as the string they spell, so text kept
// in a reused buffer needs no string copy to be written.
func String[S ~string | ~[]byte](dst []byte, s S) []byte {
	return append(Escape(append(dst, '"'), s), '"')
}

// Escape appends what String writes between the quotes. A string
// escapes the same in pieces as whole when no piece starts with a UTF-8
// continuation byte, so a writer can stream a long one through a small
// buffer.
func Escape[S ~string | ~[]byte](dst []byte, s S) []byte {
	start := 0 // s[start:i] is the pending run that needs no escaping
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		// A rune is at most UTFMax bytes, so for bytes the conversion is
		// of at most four and copies nothing to the heap.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
