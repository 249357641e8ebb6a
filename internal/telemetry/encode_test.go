package telemetry

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"rtmac/internal/sim"
)

// mirrorEvent is Event's wire layout with the payload as a plain map: what
// encoding/json makes of it is the encoder's reference.
type mirrorEvent struct {
	K      int64              `json:"k"`
	At     int64              `json:"t"`
	Link   int                `json:"link"`
	Kind   string             `json:"kind"`
	Fields map[string]float64 `json:"f,omitempty"`
	Check  string             `json:"check,omitempty"`
	Msg    string             `json:"msg,omitempty"`
}

// mirrored returns ev with the payload built from fields, and its mirror.
func mirrored(ev Event, fields map[string]float64) (Event, mirrorEvent) {
	ev.Payload = PayloadOf(fields)
	return ev, mirrorEvent{K: ev.K, At: int64(ev.At), Link: ev.Link, Kind: ev.Kind,
		Fields: fields, Check: ev.Check, Msg: ev.Msg}
}

// FuzzAppendJSON holds AppendJSON to encoding/json: for any event it must
// append exactly the bytes json.Marshal writes for the event's map-based
// mirror and a newline, or fail with the same error and leave dst as it was.
// The payload takes its names from keys split at ',' and the values a, b, c
// in turn; nilFields picks a nil map over an empty one (both mean no
// payload). The seeds cover the float formatting edges (-0, 1e-7, 1e21, the
// smallest subnormal, NaN and ±Inf), the integer path's edges (±(2^53-1),
// and the integer-valued 2^53, 2^53+2, 1e20, 1e17+16 and 2^62 that take the
// general path, the last two printing other digits than their integers)
// and the string escapes (HTML characters, U+2028/2029, control bytes and
// invalid UTF-8).
func FuzzAppendJSON(f *testing.F) {
	ls, ps := string(rune(0x2028)), string(rune(0x2029))
	f.Add(int64(3), int64(6120), 2, "tx", "", "", "dur,empty,outcome", 120.0, 0.0, 1.0, false)
	f.Add(int64(0), int64(0), -1, "debt", "", "", "max,mean,positive", math.Copysign(0, -1), 1e-7, 1e21, false)
	f.Add(int64(1), int64(2), 0, "x", "", "", "a,b,c", 5e-324, 1e-6, 9.999999999999999e20, false)
	f.Add(int64(1), int64(2), 0, "x", "", "", "big,tiny,neg", 1.7976931348623157e308, -2.5e-8, -1e21, false)
	f.Add(int64(1), int64(2), 0, "x", "", "", "nan", math.NaN(), 0.0, 0.0, false)
	f.Add(int64(1), int64(2), 0, "x", "", "", "ok,inf", 1.0, math.Inf(1), 0.0, false)
	f.Add(int64(1), int64(2), 0, "x", "", "", "ninf", math.Inf(-1), 0.0, 0.0, false)
	f.Add(int64(-5), int64(-7), 3, "<kind>&", "check"+ls, "msg"+ps+` "q" \ `+"\x00\x1f\b\f\n\r\t\x7f", "<k>,&", 1.5, -2.25, 3e-9, false)
	f.Add(int64(9), int64(9), 9, "bad\xff\xfe", "\xc3", "\xe2\x80", "\xffkey,ok", 1.0, 2.0, 3.0, false)
	f.Add(int64(4), int64(10000), -1, "violation", "permutation_valid", "priority 2 assigned to two links", "priority", 2.0, 0.0, 0.0, false)
	f.Add(int64(0), int64(0), 0, "x", "", "", "a,b,c", float64(1<<53-1), float64(1<<53), float64(1<<53+2), false)
	f.Add(int64(0), int64(0), 0, "x", "", "", "a,b,c", -float64(1<<53-1), 1e15, 1e20, false)
	f.Add(int64(0), int64(0), 0, "x", "", "", "a,b", -1.0, 0.5, 0.0, false)
	f.Add(int64(0), int64(0), 0, "x", "", "", "a,b,c", 1e17+16, float64(1<<62), -(1e17 + 16), false)
	f.Add(int64(0), int64(0), 0, "prio", "", "", "", 0.0, 0.0, 0.0, true)
	f.Add(int64(0), int64(0), 0, "prio", "", "", "", 0.0, 0.0, 0.0, false)
	f.Fuzz(func(t *testing.T, k, at int64, link int, kind, check, msg, keys string, a, b, c float64, nilFields bool) {
		var fields map[string]float64
		if !nilFields {
			fields = map[string]float64{}
			if keys != "" {
				values := [...]float64{a, b, c}
				for i, key := range strings.Split(keys, ",") {
					fields[key] = values[i%len(values)]
				}
			}
		}
		ev, mirror := mirrored(Event{K: k, At: sim.Time(at), Link: link, Kind: kind, Check: check, Msg: msg}, fields)
		want, wantErr := json.Marshal(mirror)
		got, err := AppendJSON([]byte("dst:"), ev)
		if wantErr != nil {
			var uv *json.UnsupportedValueError
			if err == nil || !errors.As(err, &uv) || err.Error() != wantErr.Error() {
				t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
			}
			if string(got) != "dst:" {
				t.Fatalf("failed AppendJSON extended dst to %q", got)
			}
			return
		}
		if err != nil {
			t.Fatalf("AppendJSON failed where json.Marshal did not: %v", err)
		}
		if want := "dst:" + string(want) + "\n"; string(got) != want {
			t.Fatalf("AppendJSON differs from json.Marshal:\n got: %q\nwant: %q", got, want)
		}
	})
}

// FuzzJSONLFieldOrder holds the JSONL sink to encoding/json on a stream of
// events of one kind whose schema changes from event to event: keySets holds
// the field name sets, separated by ';', with names split at ','. The stream
// runs through the sets twice, so consecutive events differ in schema
// wherever neighbouring sets differ, and kinds with a canonical schema mix it
// with schemas of their own. The seeds change the names at the same size,
// then the size, and pass seventeen priority fields. Every line must equal
// json.Marshal of the event's mirror plus a newline; an event json.Marshal
// rejects must make Flush fail.
func FuzzJSONLFieldOrder(f *testing.F) {
	f.Add("tx", "dur,empty,outcome;dur,empty,slots;dur,empty;dur,empty,outcome", 120.0, 0.0, 0.5)
	f.Add("x", "a,b;c,d;a,b,c,d,e;;a", 1.0, 2.0, 3.0)
	f.Add("prio", "l0,l1,l2,l3,l4,l5,l6,l7,l8,l9,l10,l11,l12,l13,l14,l15,l16;l0,l1,l2,l3,l4,l5,l6,l7,l8,l9,l10,l11,l12,l13,l14,l15;l0,l1;l1,l2", 1.0, 2.0, 3.0)
	f.Add("debt", "max,mean,positive;max,mean,nan", 1.5, 2.0, math.NaN())
	f.Fuzz(func(t *testing.T, kind, keySets string, a, b, c float64) {
		values := [...]float64{a, b, c}
		var (
			buf  strings.Builder
			want strings.Builder
		)
		sink := NewJSONL(&buf)
		sets := strings.Split(keySets, ";")
		failed := false
		for i := 0; i < 2*len(sets) && !failed; i++ {
			fields := map[string]float64{}
			if set := sets[i%len(sets)]; set != "" {
				for j, key := range strings.Split(set, ",") {
					fields[key] = values[(i+j)%len(values)]
				}
			}
			ev, mirror := mirrored(Event{K: int64(i), At: sim.Time(i), Link: -1, Kind: kind}, fields)
			sink.Emit(ev)
			line, err := json.Marshal(mirror)
			if err != nil {
				failed = true
				break
			}
			want.Write(line)
			want.WriteByte('\n')
		}
		err := sink.Flush()
		if failed {
			if err == nil {
				t.Fatal("Flush reported no error after an unencodable event")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		_, body, _ := strings.Cut(buf.String(), "\n")
		if body != want.String() {
			t.Fatalf("JSONL differs from json.Marshal:\n got: %q\nwant: %q", body, want.String())
		}
	})
}

// TestJSONLFieldOrderManyKinds streams thirteen kinds interleaved, with a
// key set changing halfway, and demands json.Marshal's bytes for every line.
func TestJSONLFieldOrderManyKinds(t *testing.T) {
	var buf, want strings.Builder
	sink := NewJSONL(&buf)
	for round := 0; round < 4; round++ {
		for kind := 0; kind < 13; kind++ {
			fields := map[string]float64{"b": float64(round), "a": float64(kind) / 4}
			if round >= 2 {
				delete(fields, "a")
				fields["c"] = -1
			}
			ev, mirror := mirrored(Event{K: int64(round), Link: kind, Kind: "kind" + strconv.Itoa(kind)}, fields)
			sink.Emit(ev)
			line, err := json.Marshal(mirror)
			if err != nil {
				t.Fatal(err)
			}
			want.Write(line)
			want.WriteByte('\n')
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, body, _ := strings.Cut(buf.String(), "\n"); body != want.String() {
		t.Fatalf("JSONL differs from json.Marshal:\n got: %q\nwant: %q", body, want.String())
	}
}

// TestAppendJSONNoAllocs pins the encoder's zero-allocation contract for the
// largest payload the simulator emits per interval at N = 10 (the prio
// snapshot) once dst has room.
func TestAppendJSONNoAllocs(t *testing.T) {
	ev := Event{K: 4, At: 10000, Link: -1, Kind: EventPriority, Payload: NewPayload(PrioSchema(10))}
	for i := range ev.Payload.Values {
		ev.Payload.Values[i] = float64(i + 1)
	}
	dst := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = AppendJSON(dst[:0], ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendJSON allocates %.1f per event, want 0", allocs)
	}
}

// TestAppendInt holds AppendInt to strconv.AppendInt at every digit-count
// boundary, the 64-bit extremes and a spread of values in between.
func TestAppendInt(t *testing.T) {
	values := []int64{0, 1, 9, 10, 11, 99, 100, 101, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p := int64(10); p <= 1e18; p *= 10 {
		values = append(values, p-1, p, p+1, -p+1, -p, -p-1)
	}
	for v := int64(1); v < math.MaxInt64/7; v = v*7 + 3 {
		values = append(values, v, -v)
	}
	for _, v := range values {
		if got, want := AppendInt([]byte("x"), v), strconv.AppendInt([]byte("x"), v, 10); string(got) != string(want) {
			t.Errorf("AppendInt(%d) = %q, want %q", v, got, want)
		}
	}
}
