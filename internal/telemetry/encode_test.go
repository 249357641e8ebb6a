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

// FuzzAppendJSON holds AppendJSON to encoding/json: for any event it must
// append exactly json.Marshal's bytes and a newline, or fail with the same
// error and leave dst as it was. The field map takes its keys from keys split
// at ',' and the values a, b, c in turn; nilFields picks a nil map over an
// empty one. The seeds cover the float formatting edges (-0, 1e-7, 1e21, the
// smallest subnormal, NaN and ±Inf) and the string escapes (HTML characters,
// U+2028/2029, control bytes and invalid UTF-8).
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
	f.Add(int64(0), int64(0), 0, "prio", "", "", "", 0.0, 0.0, 0.0, true)
	f.Add(int64(0), int64(0), 0, "prio", "", "", "", 0.0, 0.0, 0.0, false)
	f.Fuzz(func(t *testing.T, k, at int64, link int, kind, check, msg, keys string, a, b, c float64, nilFields bool) {
		ev := Event{K: k, At: sim.Time(at), Link: link, Kind: kind, Check: check, Msg: msg}
		if !nilFields {
			ev.Fields = map[string]float64{}
			if keys != "" {
				values := [...]float64{a, b, c}
				for i, key := range strings.Split(keys, ",") {
					ev.Fields[key] = values[i%len(values)]
				}
			}
		}
		want, wantErr := json.Marshal(ev)
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

// TestAppendJSONNoAllocs pins the encoder's zero-allocation contract for the
// largest field map the simulator emits per interval at N = 10 (the prio
// snapshot) once dst has room.
func TestAppendJSONNoAllocs(t *testing.T) {
	ev := Event{K: 4, At: 10000, Link: -1, Kind: EventPriority, Fields: map[string]float64{}}
	for i := 0; i < 10; i++ {
		ev.Fields["l"+strconv.Itoa(i)] = float64(i + 1)
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
