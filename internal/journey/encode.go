package journey

import (
	"strconv"

	"rtmac/internal/telemetry"
)

// appendJSON appends the JSON encoding of j and a newline to dst, byte for
// byte what json.Marshal(j) followed by '\n' produces: fields in declaration
// order, and prio, done, delay, rounds, attempts, fired and started left out
// when zero or empty, as their omitempty tags ask.
func appendJSON(dst []byte, j *Journey) []byte {
	dst = appendInt(dst, `{"seq":`, j.Seq)
	dst = appendInt(dst, `,"k":`, j.K)
	dst = appendInt(dst, `,"link":`, int64(j.Link))
	dst = appendInt(dst, `,"idx":`, int64(j.Idx))
	dst = appendInt(dst, `,"arrived":`, int64(j.Arrived))
	dst = appendInt(dst, `,"deadline":`, int64(j.Deadline))
	if j.Prio != 0 {
		dst = appendInt(dst, `,"prio":`, int64(j.Prio))
	}
	dst = append(dst, `,"cause":`...)
	dst = telemetry.AppendString(dst, j.Cause)
	if j.DoneAt != 0 {
		dst = appendInt(dst, `,"done":`, int64(j.DoneAt))
	}
	if j.Delay != 0 {
		dst = appendInt(dst, `,"delay":`, int64(j.Delay))
	}
	if len(j.Rounds) > 0 {
		dst = append(dst, `,"rounds":[`...)
		for i, r := range j.Rounds {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, `{"backoff":`, int64(r.Backoff))
			dst = appendInt(dst, `,"sense":`, int64(r.Sense))
			if r.Fired {
				dst = append(dst, `,"fired":true`...)
			}
			if r.Started {
				dst = append(dst, `,"started":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(j.Attempts) > 0 {
		dst = append(dst, `,"attempts":[`...)
		for i, a := range j.Attempts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, `{"start":`, int64(a.Start))
			dst = appendInt(dst, `,"end":`, int64(a.End))
			dst = append(dst, `,"outcome":`...)
			dst = telemetry.AppendString(dst, a.Outcome)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}

// appendInt appends a literal prefix, typically a key, and then v.
func appendInt(dst []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(dst, prefix...), v, 10)
}
