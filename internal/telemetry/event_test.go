package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// withPayloads gives each event the payload of its Fields map, so that it
// equals the event decoding its line yields.
func withPayloads(evs []Event) []Event {
	for i := range evs {
		evs[i].Payload = PayloadOf(evs[i].Fields)
	}
	return evs
}

func sampleEvents() []Event {
	return withPayloads([]Event{
		{K: 0, At: 120, Link: 3, Kind: "tx", Fields: map[string]float64{"dur": 120, "outcome": 0}},
		{K: 0, At: 2000, Link: -1, Kind: "interval", Fields: map[string]float64{"arrivals": 7, "served": 5}},
		{K: 1, At: 2120, Link: 0, Kind: "tx", Fields: map[string]float64{"dur": 120, "outcome": 2}},
		{K: 1, At: 4000, Link: -1, Kind: "swap", Fields: map[string]float64{"pos": 4, "accepted": 1}},
	})
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	in := sampleEvents()
	for _, ev := range in {
		sink.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != int64(len(in)) {
		t.Errorf("count = %d, want %d", sink.Count(), len(in))
	}
	out, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestJSONLDeterministicEncoding(t *testing.T) {
	encode := func() string {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		for _, ev := range sampleEvents() {
			sink.Emit(ev)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := encode(), encode(); a != b {
		t.Errorf("two encodings of the same events differ:\n%s\n---\n%s", a, b)
	}
}

func TestJSONLFiltering(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf, Only("interval"))
	for _, ev := range sampleEvents() {
		sink.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Kind != "interval" {
		t.Errorf("filtered stream = %+v, want single interval event", out)
	}
}

func TestJSONLSampling(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf, Sample("tx", 10))
	for i := 0; i < 25; i++ {
		sink.Emit(Event{K: int64(i), Kind: "tx", Link: 0})
		sink.Emit(Event{K: int64(i), Kind: "interval", Link: -1})
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tx, interval := 0, 0
	for _, ev := range out {
		switch ev.Kind {
		case "tx":
			tx++
		case "interval":
			interval++
		}
	}
	// 25 tx events sampled 1-in-10 keep events 0, 10, 20.
	if tx != 3 {
		t.Errorf("sampled tx events = %d, want 3", tx)
	}
	if interval != 25 {
		t.Errorf("unsampled interval events = %d, want 25", interval)
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestJSONLStickyError(t *testing.T) {
	sink := NewJSONL(&failingWriter{n: 4})
	for i := 0; i < 10000; i++ { // enough to overflow the bufio buffer
		sink.Emit(Event{Kind: "tx"})
	}
	if err := sink.Flush(); err == nil {
		t.Fatal("write error not surfaced")
	}
	if err := sink.Flush(); err == nil {
		t.Fatal("error not sticky")
	}
}

func TestMultiSink(t *testing.T) {
	var a, b bytes.Buffer
	sa, sb := NewJSONL(&a), NewJSONL(&b)
	MultiSink{sa, sb}.Emit(Event{Kind: "tx", Link: 1})
	if err := sa.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Flush(); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || a.Len() == 0 {
		t.Errorf("multi-sink fanout mismatch: %q vs %q", a.String(), b.String())
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("telemetry-test", 42)
	m.Protocol = "DB-DP"
	m.Links = 10
	m.Intervals = 200
	m.Config = map[string]string{"profile": "control"}
	m.SimTimeUS = 400000
	m.Finish()
	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"seed\": 42", "\"protocol\": \"DB-DP\"", "\"go_version\"", "\"profile\": \"control\""} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("manifest missing %q:\n%s", want, sb.String())
		}
	}
}

// chunkWriter records every Write call's bytes.
type chunkWriter struct{ chunks [][]byte }

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.chunks = append(c.chunks, bytes.Clone(p))
	return len(p), nil
}

// TestLineBufferWritesWholeLines pins the LineBuffer contract: the stream
// reaches the writer byte for byte, in calls that each end on a line
// boundary and are made only once the buffer passes its flush size.
func TestLineBufferWritesWholeLines(t *testing.T) {
	var w chunkWriter
	b := NewLineBuffer(&w)
	var want []byte
	for i := 0; i < 500; i++ {
		line := fmt.Appendf(nil, "{\"line\":%d,\"pad\":%q}\n", i, strings.Repeat("x", i%97))
		want = append(want, line...)
		if err := b.Commit(append(b.Bytes(), line...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(w.chunks, nil); !bytes.Equal(got, want) {
		t.Fatalf("stream differs: %d bytes written, %d committed", len(got), len(want))
	}
	for i, c := range w.chunks {
		if c[len(c)-1] != '\n' {
			t.Errorf("write %d splits a line", i)
		}
		if last := i == len(w.chunks)-1; !last && len(c) < lineFlushSize {
			t.Errorf("write %d of %d bytes, below the flush size %d", i, len(c), lineFlushSize)
		}
	}
}

// shortWriter accepts one byte less than it is handed.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return len(p) - 1, nil }

func TestLineBufferShortWriteSticks(t *testing.T) {
	b := NewLineBuffer(shortWriter{})
	if err := b.Commit(append(b.Bytes(), "{}\n"...)); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Flush = %v, want io.ErrShortWrite", err)
	}
	if err := b.Commit(append(b.Bytes(), "{}\n"...)); !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("Commit after a short write = %v, want the sticky io.ErrShortWrite", err)
	}
}
