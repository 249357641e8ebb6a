package rtmac

import (
	"fmt"
	"io"

	"rtmac/internal/telemetry"
)

// Telemetry is the metric registry of one simulation: every channel counter,
// airtime gauge, swap counter, and debt/backoff histogram the run maintains.
// It is live — snapshots taken mid-run reflect progress so far.
type Telemetry struct {
	reg *telemetry.Registry
}

// Telemetry returns the simulation's metric registry view.
func (s *Simulation) Telemetry() Telemetry {
	return Telemetry{reg: s.nw.Telemetry()}
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by name.
func (t Telemetry) WritePrometheus(w io.Writer) error { return t.reg.WritePrometheus(w) }

// WriteJSON renders every metric as an indented JSON array.
func (t Telemetry) WriteJSON(w io.Writer) error { return t.reg.WriteJSON(w) }

// Names lists the registered metric names, sorted.
func (t Telemetry) Names() []string { return t.reg.Names() }

// Counter returns the current value of a registry counter, or an error when
// the name is unknown or names a gauge or histogram. Intended for tests and
// dashboards; hot paths should not poll.
func (t Telemetry) Counter(name string) (int64, error) {
	for _, m := range t.reg.Snapshot() {
		if m.Name != name {
			continue
		}
		if m.Kind != telemetry.KindCounter.String() {
			return 0, fmt.Errorf("rtmac: metric %q is a %s, not a counter", name, m.Kind)
		}
		return int64(m.Value), nil
	}
	return 0, fmt.Errorf("rtmac: unknown counter %q", name)
}

// ValidatePrometheusText checks that r is a well-formed Prometheus text
// exposition (the format served at /metrics and written by WritePrometheus):
// every sample parses, histograms have monotone cumulative buckets ending in
// +Inf, and _count agrees with the +Inf bucket. It returns the number of
// samples read. Used by `rtmacsim -check` to guard the metrics a record
// directory holds, which share the scrape endpoint's format.
func ValidatePrometheusText(r io.Reader) (int, error) {
	return telemetry.ValidatePrometheus(r)
}

// EventOption configures a simulation event stream.
type EventOption = telemetry.JSONLOption

// SampleEvents keeps one event in every `every` of the given kind — the
// knob that keeps 10⁶-interval event streams bounded. Kinds: "tx",
// "interval", "swap", "debt".
func SampleEvents(kind string, every int) EventOption { return telemetry.Sample(kind, every) }

// OnlyEvents restricts the stream to the listed kinds.
func OnlyEvents(kinds ...string) EventOption { return telemetry.Only(kinds...) }

// EventStream is a structured JSONL event stream attached to a simulation.
type EventStream struct {
	sink *telemetry.JSONL
}

// StreamEvents attaches a JSONL event stream writing to w. Call before Run;
// intervals already simulated are not replayed. The stream is deterministic:
// two same-seed, same-config runs produce byte-identical output. Call Flush
// when the run completes. It composes with EnableMonitor and ExportPerfetto:
// each consumer sees the same events.
func (s *Simulation) StreamEvents(w io.Writer, opts ...EventOption) *EventStream {
	sink := telemetry.NewJSONL(w, opts...)
	s.addSink(sink)
	s.events = sink
	return &EventStream{sink: sink}
}

// Count returns how many events have been written so far, after sampling
// and filtering.
func (e *EventStream) Count() int64 { return e.sink.Count() }

// Event is one structured simulation event as written by StreamEvents:
// interval index K, simulated time At, the link concerned (−1 for
// network-wide events), the kind ("tx", "interval", "swap", "debt"), and a
// kind-specific numeric payload. See docs/OBSERVABILITY.md for the schema.
type Event = telemetry.Event

// DecodeEvents parses a JSONL event stream produced by StreamEvents back
// into events, stopping at the first malformed line.
func DecodeEvents(r io.Reader) ([]Event, error) { return telemetry.DecodeJSONL(r) }

// Flush drains buffered events and reports the first write error, if any.
func (e *EventStream) Flush() error { return e.sink.Flush() }

// Manifest describes the provenance of this run: seed, configuration
// summary, build identity, and wall-clock timings. Extra carries arbitrary
// additional configuration (e.g. CLI flag values) into the manifest. The
// build identity is read at the call, the start time when the simulation
// was built.
func (s *Simulation) Manifest(tool string, extra map[string]string) *Manifest {
	m := telemetry.NewManifest(tool, s.seed)
	m.Started = s.started
	m.Protocol = s.prot.Name()
	m.Profile = s.profile.Name
	m.Links = len(s.req)
	m.Intervals = s.nw.Intervals()
	m.SimTimeUS = int64(s.nw.Engine().Now())
	if len(extra) > 0 {
		m.Config = make(map[string]string, len(extra))
		for k, v := range extra {
			m.Config[k] = v
		}
	}
	if s.events != nil {
		m.Events = s.events.Count()
	}
	if s.health != nil {
		sum := s.health.Summary()
		m.Health = &sum
	}
	if ws := s.watchSummary(); ws != nil {
		m.Watch = ws
	}
	m.Finish()
	return &Manifest{m: m}
}

// Manifest is a run-provenance record; write it alongside results so metric
// dumps and event streams stay attributable to the run that produced them.
type Manifest struct {
	m *telemetry.Manifest
}

// WriteJSON renders the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error { return m.m.WriteJSON(w) }

// Raw returns the underlying telemetry manifest, for in-module consumers
// that persist it (the run ledger).
func (m *Manifest) Raw() *telemetry.Manifest { return m.m }
