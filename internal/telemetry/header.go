package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Stream schema identities. Every versioned JSONL stream written by the
// simulator opens with one StreamHeader line naming its schema, so readers
// (rundiff, tracequery, rtmacsim -check) can refuse or adapt to a mismatched
// layout instead of mis-parsing it. Headerless streams are legacy: readers
// accept them and assume version 1 of whatever schema they expect.
const (
	// EventStreamSchema names the structured event stream (Event lines).
	EventStreamSchema = "rtmac.events"
	// JourneyStreamSchema names the packet-journey stream (journey.Journey
	// lines). Declared here so both writers stamp headers through one type.
	JourneyStreamSchema = "rtmac.journeys"
	// EventStreamVersion is the current Event line layout version.
	EventStreamVersion = 1
	// JourneyStreamVersion is the current Journey line layout version.
	JourneyStreamVersion = 1
)

// StreamHeader is the first line of a versioned JSONL stream. The schema key
// is deliberately absent from Event and Journey payloads, so the first line
// of any stream identifies itself unambiguously: parse it as a header, and
// fall back to treating it as data when no schema key is present.
type StreamHeader struct {
	Schema  string `json:"schema"`
	Version int    `json:"schema_version"`
}

// ParseHeader tries to read one JSONL line as a stream header. It returns
// ok = false for data lines (no "schema" key) and malformed input — the
// caller then hands the line to the regular decoder.
func ParseHeader(line []byte) (StreamHeader, bool) {
	var probe struct {
		Schema  string `json:"schema"`
		Version int    `json:"schema_version"`
	}
	if err := json.Unmarshal(line, &probe); err != nil || probe.Schema == "" {
		return StreamHeader{}, false
	}
	return StreamHeader{Schema: probe.Schema, Version: probe.Version}, true
}

// Check validates a parsed header against the schema a reader expects.
// Readers handle exactly the versions up to their compile-time current one;
// a newer version means the stream was written by a newer build and must be
// refused, not guessed at.
func (h StreamHeader) Check(schema string, maxVersion int) error {
	if h.Schema != schema {
		return fmt.Errorf("telemetry: stream schema %q, want %q", h.Schema, schema)
	}
	if h.Version < 1 || h.Version > maxVersion {
		return fmt.Errorf("telemetry: %s schema version %d outside supported [1, %d]",
			schema, h.Version, maxVersion)
	}
	return nil
}

// ReadJSONL streams a JSONL stream of T records to fn, one line at a time
// and in constant memory; blank lines are skipped. A leading header line is
// checked against schema and version and skipped; headerless legacy streams
// read as-is. The read stops at the first line that is malformed, carries a
// header of another schema or an unsupported version (Check's error), or
// makes fn fail, with the error "<what> at line <l>: <cause>", l counting
// lines from 1. ReadJSONL returns how many records it handed to fn.
func ReadJSONL[T any](r io.Reader, schema string, version int, what string, fn func(T) error) (int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 64<<20) // a line may be long, but not a whole stream without newlines
	var n int64
	line, first := 0, true
	for ; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		err := func() error {
			if first {
				first = false
				if h, ok := ParseHeader(raw); ok {
					return h.Check(schema, version)
				}
			}
			var rec T
			if err := json.Unmarshal(raw, &rec); err != nil {
				return err
			}
			n++
			return fn(rec)
		}()
		if err != nil {
			return n, fmt.Errorf("%s at line %d: %w", what, line+1, err)
		}
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("%s at line %d: %w", what, line+1, err)
	}
	return n, nil
}

// MarshalLine renders the header as one JSONL line (newline included).
func (h StreamHeader) MarshalLine() []byte {
	b, _ := json.Marshal(h)
	return append(b, '\n')
}
