package telemetry

import (
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
// and in constant memory. A leading header line is checked against schema
// and version and skipped; headerless legacy streams read as-is. A
// malformed line stops the read with the error "<what> <i>: <cause>", i
// counting the records before it; a header of another schema, or of an
// unsupported version, stops it with Check's error. ReadJSONL returns how
// many records fn received.
func ReadJSONL[T any](r io.Reader, schema string, version int, what string, fn func(T)) (int64, error) {
	dec := json.NewDecoder(r)
	var n int64
	for first := true; ; first = false {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, fmt.Errorf("%s %d: %w", what, n, err)
		}
		if first {
			if h, ok := ParseHeader(raw); ok {
				if err := h.Check(schema, version); err != nil {
					return n, err
				}
				continue
			}
		}
		var rec T
		if err := json.Unmarshal(raw, &rec); err != nil {
			return n, fmt.Errorf("%s %d: %w", what, n, err)
		}
		fn(rec)
		n++
	}
}

// MarshalLine renders the header as one JSONL line (newline included).
func (h StreamHeader) MarshalLine() []byte {
	b, _ := json.Marshal(h)
	return append(b, '\n')
}
