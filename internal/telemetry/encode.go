package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the JSON encoding of ev and a newline to dst, byte for
// byte what json.Marshal(ev) followed by '\n' produces (and so what
// json.Encoder.Encode writes): sorted field keys, encoding/json's float
// formatting and its HTML-safe string escaping. A NaN or infinite field value
// fails with the same *json.UnsupportedValueError json.Marshal returns, and
// dst comes back unextended. Field maps of up to 16 keys sort in a stack
// scratch and encode without allocating beyond the growth of dst.
func AppendJSON(dst []byte, ev Event) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"k":`...)
	dst = strconv.AppendInt(dst, ev.K, 10)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, int64(ev.At), 10)
	dst = append(dst, `,"link":`...)
	dst = strconv.AppendInt(dst, int64(ev.Link), 10)
	dst = append(dst, `,"kind":`...)
	dst = AppendString(dst, ev.Kind)
	if len(ev.Fields) > 0 {
		var scratch [16]string
		keys := scratch[:0]
		for k := range ev.Fields {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, `,"f":{`...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(dst, k)
			dst = append(dst, ':')
			var err error
			if dst, err = appendFloat(dst, ev.Fields[k]); err != nil {
				return dst[:start], err
			}
		}
		dst = append(dst, '}')
	}
	if ev.Check != "" {
		dst = append(dst, `,"check":`...)
		dst = AppendString(dst, ev.Check)
	}
	if ev.Msg != "" {
		dst = append(dst, `,"msg":`...)
		dst = AppendString(dst, ev.Msg)
	}
	return append(dst, '}', '\n'), nil
}

// appendFloat formats a float64 the way encoding/json does: the shortest
// digits that round-trip, in plain notation except below 1e-6 and from 1e21,
// where the exponent drops its padding zero (1e-07 becomes 1e-7).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal with encoding/json's
// default escaping. Quotes and backslashes are backslash-escaped, control
// characters use their short escapes or a six-character u-escape, and so do
// the HTML-sensitive '<', '>' and '&', the JavaScript line terminators
// U+2028 and U+2029, and every byte of invalid UTF-8 (as the replacement
// character U+FFFD).
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
