package telemetry

import (
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the JSON encoding of ev and a newline to dst, byte for
// byte what json.Marshal of the event with its payload as a map, followed by
// '\n', produces (and so what json.Encoder.Encode writes): sorted field
// keys, encoding/json's float formatting and its HTML-safe string escaping.
// The payload's keys come pre-escaped from its schema. A NaN or infinite
// field value fails with the same *json.UnsupportedValueError json.Marshal
// returns, and dst comes back unextended. It allocates nothing beyond the
// growth of dst.
func AppendJSON(dst []byte, ev Event) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"k":`...)
	dst = AppendInt(dst, ev.K)
	dst = append(dst, `,"t":`...)
	dst = AppendInt(dst, int64(ev.At))
	dst = append(dst, `,"link":`...)
	dst = AppendInt(dst, int64(ev.Link))
	dst = append(dst, `,"kind":`...)
	dst = AppendString(dst, ev.Kind)
	if p := ev.Payload; p.Len() > 0 {
		dst = append(dst, `,"f":{`...)
		for i, v := range p.Values {
			dst = append(dst, p.Schema.keys[i]...)
			var err error
			if dst, err = appendFloat(dst, v); err != nil {
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
	// Below 2^53 every integer is exact, its shortest round-trip digits are
	// its decimal digits, and the 'e' form starts only at 1e21, so an
	// integer value prints as one. -0 keeps its sign through the general
	// path. The conversion of a NaN, an infinity or an out-of-range value
	// yields some integer that does not convert back to f.
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return AppendInt(dst, i), nil
	}
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

// AppendInt appends v in decimal, as strconv.AppendInt(dst, v, 10) does,
// but writes the digits straight into dst, two at a time.
func AppendInt(dst []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u // the magnitude, also for math.MinInt64
	}
	if u < 10 {
		return append(dst, byte('0'+u))
	}
	// bits·1233/4096 is ⌊log10 2^bits⌋, at most one short of the digit
	// count less one.
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	dst = slices.Grow(dst, n)
	i := len(dst) + n
	dst = dst[:i]
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		i -= 2
		dst[i], dst[i+1] = decimalPairs[r], decimalPairs[r+1]
		u = q
	}
	if u >= 10 {
		dst[i-2], dst[i-1] = decimalPairs[2*u], decimalPairs[2*u+1]
	} else {
		dst[i-1] = byte('0' + u)
	}
	return dst
}

// pow10[i] is 10^i.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 10 * p[i-1]
	}
	return p
}()

// decimalPairs holds the two-digit numbers 00 … 99 back to back.
const decimalPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// jsonSafe[b] reports whether the ASCII byte b stands for itself inside a
// JSON string under encoding/json's HTML-safe escaping.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

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
			if jsonSafe[b] {
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
