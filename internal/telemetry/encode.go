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
	return appendEvent(dst, ev, nil)
}

// appendEvent is AppendJSON writing ev.Fields in the key order that order
// remembers for ev.Kind, when that order still matches the map's key set.
// A nil order sorts the keys of every event.
func appendEvent(dst []byte, ev Event, order *FieldOrder) ([]byte, error) {
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
		dst = append(dst, `,"f":{`...)
		var (
			complete bool
			err      error
		)
		if keys := order.Cached(ev.Kind, len(ev.Fields)); keys != nil {
			dst, complete, err = appendFields(dst, ev.Fields, keys)
		}
		if !complete && err == nil {
			keys := order.Remember(ev.Kind, ev.Fields)
			if keys == nil {
				var scratch [orderKeys]string
				keys = sortedKeys(ev.Fields, scratch[:0])
			}
			dst, _, err = appendFields(dst, ev.Fields, keys)
		}
		if err != nil {
			return dst[:start], err
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

// appendFields appends the comma-separated "key":value pairs of fields in
// the order of keys. When a key is absent from fields it reports false and
// returns dst as it was.
func appendFields(dst []byte, fields map[string]float64, keys []string) ([]byte, bool, error) {
	mark := len(dst)
	for i, k := range keys {
		v, ok := fields[k]
		if !ok {
			return dst[:mark], false, nil
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = appendFloat(dst, v); err != nil {
			return dst, false, err
		}
	}
	return dst, true, nil
}

// sortedKeys appends the keys of fields to scratch and sorts them.
func sortedKeys(fields map[string]float64, scratch []string) []string {
	for k := range fields {
		scratch = append(scratch, k)
	}
	slices.Sort(scratch)
	return scratch
}

// The fixed capacity of a FieldOrder: one order for each of up to
// orderKinds event kinds, of up to orderKeys keys each. Ten kinds cover
// every canonical kind; sixteen keys cover every kind the simulator emits
// at N <= 16 links.
const (
	orderKinds = 10
	orderKeys  = 16
)

// FieldOrder remembers each event kind's sorted field keys, so that a sink
// can walk the remembered list with map lookups instead of collecting and
// sorting the keys of every event. Every emission site writes a fixed key
// set per kind, so the list almost always matches. It matches exactly when
// the map has as many keys as the list and every listed key is present.
//
// The storage is a fixed array inside the value, so a sink that embeds a
// FieldOrder allocates nothing for it. Kinds beyond the first ten seen, and
// key sets of more than sixteen keys, are not remembered. The zero value is
// ready to use, and a nil *FieldOrder remembers nothing.
type FieldOrder struct {
	used  int
	kinds [orderKinds]kindOrder
}

// kindOrder is one kind's remembered keys, keys[:n].
type kindOrder struct {
	kind string
	n    int
	keys [orderKeys]string
}

// Cached returns the keys remembered for kind if there are n of them, and
// nil otherwise. The caller confirms the list by finding every key in its
// map; on a miss it calls Remember.
func (o *FieldOrder) Cached(kind string, n int) []string {
	if o == nil {
		return nil
	}
	for i := range o.kinds[:o.used] {
		if ko := &o.kinds[i]; ko.kind == kind {
			if ko.n != n {
				return nil
			}
			return ko.keys[:n]
		}
	}
	return nil
}

// Remember stores the sorted keys of fields as kind's order and returns
// them. It returns nil, remembering nothing, when the keys or the kind do
// not fit. The returned slice is valid until the next call to Remember.
func (o *FieldOrder) Remember(kind string, fields map[string]float64) []string {
	if o == nil || len(fields) > orderKeys {
		return nil
	}
	var ko *kindOrder
	for i := range o.kinds[:o.used] {
		if o.kinds[i].kind == kind {
			ko = &o.kinds[i]
			break
		}
	}
	if ko == nil {
		if o.used == orderKinds {
			return nil
		}
		ko = &o.kinds[o.used]
		ko.kind = kind
		o.used++
	}
	keys := sortedKeys(fields, ko.keys[:0])
	ko.n = len(keys)
	return keys
}

// appendFloat formats a float64 the way encoding/json does: the shortest
// digits that round-trip, in plain notation except below 1e-6 and from 1e21,
// where the exponent drops its padding zero (1e-07 becomes 1e-7).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	// Below 2^53 every integer is exact, its shortest round-trip digits are
	// its decimal digits, and the 'e' form starts only at 1e21, so an
	// integer value prints as one. -0 keeps its sign through the general
	// path.
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, int64(f), 10), nil
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
