package monitor

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

func TestFlightRecorderEviction(t *testing.T) {
	r, err := NewFlightRecorder(3)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 5; k++ {
		r.Emit(txEvent(k, 0, sim.Time(k)*testInterval+300, 200, 0))
		r.Emit(intervalEvent(k, 1))
	}
	if r.Intervals() != 3 {
		t.Errorf("retained %d intervals, want 3", r.Intervals())
	}
	if r.Total() != 10 {
		t.Errorf("total %d, want 10", r.Total())
	}
	if r.Dropped() != 4 {
		t.Errorf("dropped %d, want 4", r.Dropped())
	}
	events := r.Events()
	if len(events) != 6 {
		t.Fatalf("got %d retained events, want 6", len(events))
	}
	if events[0].K != 2 || events[len(events)-1].K != 4 {
		t.Errorf("retained window spans K %d..%d, want 2..4", events[0].K, events[len(events)-1].K)
	}
}

func TestFlightRecorderCopiesFields(t *testing.T) {
	r, err := NewFlightRecorder(2)
	if err != nil {
		t.Fatal(err)
	}
	ev := txEvent(0, 0, 300, 200, 0)
	r.Emit(ev)
	ev.Fields["dur"] = -1 // caller reuses the map; the recorder must not see it
	if got := r.Events()[0].Fields["dur"]; got != 200 {
		t.Errorf("recorder shares the caller's field map: dur = %v", got)
	}
}

func TestFlightRecorderEventsDoNotAlias(t *testing.T) {
	r, err := NewFlightRecorder(2)
	if err != nil {
		t.Fatal(err)
	}
	r.Emit(txEvent(0, 0, 300, 200, 0))
	first := r.Events()
	first[0].Fields["dur"] = -1 // a dump consumer edits what it was given
	first[0].Fields["extra"] = 7
	if got := r.Events()[0].Fields; got["dur"] != 200 || len(got) != 3 {
		t.Errorf("Events returned maps aliasing the recorder: second call sees %v", got)
	}
}

// refRecorder is the map-bucketed flight recorder that the arena ring
// replaced, kept as the reference model for its semantics: buckets keyed by
// K, evicted in order of first appearance, every Fields map deep-copied.
type refRecorder struct {
	capacity       int
	buckets        map[int64][]telemetry.Event
	order          []int64
	dropped, total int64
	pinned         []telemetry.Event
}

func newRefRecorder(capacity int) *refRecorder {
	return &refRecorder{capacity: capacity, buckets: make(map[int64][]telemetry.Event)}
}

func (r *refRecorder) Emit(ev telemetry.Event) {
	if ev.Fields != nil {
		f := make(map[string]float64, len(ev.Fields))
		for k, v := range ev.Fields {
			f[k] = v
		}
		ev.Fields = f
	}
	r.total++
	if ev.Kind == telemetry.EventConflict {
		r.pinned = append(r.pinned, ev)
		return
	}
	if _, ok := r.buckets[ev.K]; !ok {
		r.order = append(r.order, ev.K)
		if len(r.order) > r.capacity {
			oldest := r.order[0]
			r.order = r.order[1:]
			r.dropped += int64(len(r.buckets[oldest]))
			delete(r.buckets, oldest)
		}
	}
	r.buckets[ev.K] = append(r.buckets[ev.K], ev)
}

func (r *refRecorder) Events() []telemetry.Event {
	ks := append([]int64(nil), r.order...)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	out := append([]telemetry.Event(nil), r.pinned...)
	for _, k := range ks {
		out = append(out, r.buckets[k]...)
	}
	return out
}

// randomRecorderEvent draws an event for interval k: mostly tx and interval
// events, some pinned conflict edges and violations, with a nil, empty or
// one-to-four-key Fields map.
func randomRecorderEvent(rng *rand.Rand, k int64) telemetry.Event {
	ev := telemetry.Event{K: k, At: sim.Time(k)*testInterval + sim.Time(rng.IntN(1000)), Link: rng.IntN(10) - 1}
	switch x := rng.IntN(20); {
	case x == 0:
		ev.Kind = telemetry.EventConflict
	case x == 1:
		ev.Kind, ev.Check, ev.Msg = telemetry.EventViolation, "collision_free", "link collided"
	case x < 10:
		ev.Kind = telemetry.EventInterval
	default:
		ev.Kind = telemetry.EventTx
	}
	switch x := rng.IntN(10); {
	case x < 2: // nil Fields
	case x < 3:
		ev.Fields = map[string]float64{}
	default:
		ev.Fields = make(map[string]float64)
		for i := rng.IntN(4); i >= 0; i-- {
			ev.Fields[string(rune('a'+rng.IntN(6)))] = rng.NormFloat64()
		}
	}
	return ev
}

// TestFlightRecorderMatchesReference drives the arena recorder and the
// reference model with the same random streams — K advancing, repeating and
// jumping back past evicted intervals, capacities down to 1, pinned conflict
// events, nil and empty Fields — and demands identical Events, Dropped,
// Intervals and Total throughout. The caller's maps are overwritten after
// every Emit, as emitters reuse scratch maps.
func TestFlightRecorderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.IntN(5)
		r, err := NewFlightRecorder(capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefRecorder(capacity)
		var k int64
		for i := 0; i < 300; i++ {
			switch x := rng.IntN(10); {
			case x < 5: // same interval
			case x < 8:
				k++
			default:
				k = max(0, k-int64(rng.IntN(capacity+2)))
			}
			ev := randomRecorderEvent(rng, k)
			r.Emit(ev)
			ref.Emit(ev)
			for key := range ev.Fields {
				ev.Fields[key] = -1
			}
			if i%23 != 0 && i != 299 {
				continue
			}
			if got, want := r.Events(), ref.Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, event %d: Events differ\n got: %+v\nwant: %+v", trial, i, got, want)
			}
			if r.Dropped() != ref.dropped || r.Total() != ref.total || r.Intervals() != len(ref.order) {
				t.Fatalf("trial %d, event %d: dropped/total/intervals = %d/%d/%d, reference %d/%d/%d",
					trial, i, r.Dropped(), r.Total(), r.Intervals(), ref.dropped, ref.total, len(ref.order))
			}
		}
	}
}

func TestFlightRecorderJSONLRoundTrip(t *testing.T) {
	r, err := NewFlightRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	r.Emit(txEvent(0, 1, 300, 200, 0))
	r.Emit(intervalEvent(0, 1))
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	decoded, err := telemetry.DecodeJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("dump does not decode: %v", err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d events, want 2", len(decoded))
	}
	if decoded[0].Kind != telemetry.EventTx || decoded[0].Link != 1 {
		t.Errorf("first event = %+v", decoded[0])
	}
}

func TestFlightRecorderTimeline(t *testing.T) {
	r, err := NewFlightRecorder(2)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 3; k++ {
		r.Emit(txEvent(k, 0, sim.Time(k)*testInterval+300, 200, 0))
		r.Emit(swapEvent(k, 1, 0, 1, true))
		r.Emit(debtEvent(k, 1))
		r.Emit(intervalEvent(k, 1))
	}
	r.Emit(telemetry.Event{
		K: 2, At: 2900, Link: -1, Kind: telemetry.EventViolation,
		Check: "collision_free", Msg: "link 0 collided",
	})
	var b strings.Builder
	if err := r.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== interval 1 ==", "== interval 2 ==",
		"tx data", "swap", "debt max", "interval arrivals",
		"VIOLATION [collision_free] link 0 collided",
		"events beyond the 2-interval window were dropped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "== interval 0 ==") {
		t.Error("evicted interval 0 still rendered")
	}
}

func TestFlightRecorderEmptyTimeline(t *testing.T) {
	r, err := NewFlightRecorder(2)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no events") {
		t.Errorf("empty timeline = %q", b.String())
	}
}

func TestNewFlightRecorderValidation(t *testing.T) {
	if _, err := NewFlightRecorder(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewFlightRecorder(-3); err == nil {
		t.Error("negative capacity accepted")
	}
}
