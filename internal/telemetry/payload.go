package telemetry

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"
)

// Schema is the field layout of an event payload: its field names in sorted
// order, which is the order encoding/json writes a map's keys in, each also
// kept as the pre-escaped object key the encoder appends. An emission site
// builds its schema once and shares it with every event it emits; a schema
// never changes after NewSchema returns it.
type Schema struct {
	names []string
	// keys[i] is names[i] as a JSON object key and its colon, with a
	// separating comma in front for i > 0.
	keys []string
}

// NewSchema returns the schema of the given field names, sorted. The names
// must be distinct.
func NewSchema(names ...string) *Schema {
	s := &Schema{names: slices.Clone(names), keys: make([]string, len(names))}
	slices.Sort(s.names)
	var key []byte
	for i, name := range s.names {
		key = key[:0]
		if i > 0 {
			key = append(key, ',')
		}
		key = append(AppendString(key, name), ':')
		s.keys[i] = string(key)
	}
	return s
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.names) }

// Name returns the name of field i.
func (s *Schema) Name(i int) string { return s.names[i] }

// Index returns the position of the named field, or -1 when the schema has
// no such field.
func (s *Schema) Index(name string) int {
	// Payload schemas are short: a scan compares lengths first and beats a
	// binary search up to a dozen names or so.
	if len(s.names) <= 12 {
		for i, n := range s.names {
			if n == name {
				return i
			}
		}
		return -1
	}
	if i, ok := slices.BinarySearch(s.names, name); ok {
		return i
	}
	return -1
}

// Payload is an event's numeric fields: Values[i] is the field Schema names
// at position i, so len(Values) equals Schema.Len().
type Payload struct {
	Schema *Schema
	Values []float64
}

// NewPayload returns a zeroed payload of schema s, for an emission site to
// fill and reuse.
func NewPayload(s *Schema) *Payload {
	return &Payload{Schema: s, Values: make([]float64, s.Len())}
}

// PayloadOf returns the payload holding fields, with the canonical schema
// that has exactly their names when there is one, or nil when fields is
// empty.
func PayloadOf(fields map[string]float64) *Payload {
	if len(fields) == 0 {
		return nil
	}
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	slices.Sort(names)
	s := canonicalSchema(names)
	if s == nil {
		s = NewSchema(names...)
	}
	p := NewPayload(s)
	for i, name := range s.names {
		p.Values[i] = fields[name]
	}
	return p
}

// Len returns the number of fields; a nil payload has none.
func (p *Payload) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Values)
}

// Lookup returns the named field's value and whether the payload has it.
func (p *Payload) Lookup(name string) (float64, bool) {
	if p == nil {
		return 0, false
	}
	if i := p.Schema.Index(name); i >= 0 {
		return p.Values[i], true
	}
	return 0, false
}

// Map returns the fields as a new map, or nil for an empty payload.
func (p *Payload) Map() map[string]float64 {
	if p.Len() == 0 {
		return nil
	}
	m := make(map[string]float64, len(p.Values))
	for i, v := range p.Values {
		m[p.Schema.names[i]] = v
	}
	return m
}

// Value returns the named payload field of ev, or 0 when it has none.
func (ev *Event) Value(name string) float64 {
	v, _ := ev.Payload.Lookup(name)
	return v
}

// The canonical payload schemas, one per event kind the simulator emits with
// a fixed field set, and each field's position in it. The priority snapshot's
// schema depends on the link count; PrioSchema returns it. The kinds' field
// meanings are documented with the kind constants.
var (
	TxSchema       = NewSchema("dur", "empty", "outcome")
	BackoffSchema  = NewSchema("slots")
	SwapSchema     = NewSchema("accepted", "down", "pos", "up")
	DebtSchema     = NewSchema("max", "mean", "positive")
	IntervalSchema = NewSchema("arrivals", "expired", "served")
	ConflictSchema = NewSchema("peer")
	StallSchema    = NewSchema("budget_ns", "cause", "elapsed_ns", "gc_pause_ns", "gc_pauses", "overrun_ns", "sched_p99_ns")
	AlertSchema    = NewSchema("scope", "severity", "state", "threshold", "value", "window")
)

// Field positions in the canonical schemas (sorted name order).
const (
	TxDur, TxEmpty, TxOutcome = 0, 1, 2

	BackoffSlots = 0

	SwapAccepted, SwapDown, SwapPos, SwapUp = 0, 1, 2, 3

	DebtMax, DebtMean, DebtPositive = 0, 1, 2

	IntervalArrivals, IntervalExpired, IntervalServed = 0, 1, 2

	ConflictPeer = 0

	StallBudget, StallCause, StallElapsed, StallGCPause, StallGCPauses, StallOverrun, StallSchedP99 = 0, 1, 2, 3, 4, 5, 6

	AlertScope, AlertSeverity, AlertState, AlertThreshold, AlertValue, AlertWindow = 0, 1, 2, 3, 4, 5
)

// PrioName returns the priority snapshot's field name for link: l<link>.
func PrioName(link int) string { return "l" + strconv.Itoa(link) }

// maxCachedPrio bounds the link counts whose priority schema PrioSchema
// keeps, so a decoded stream cannot grow the cache without limit.
const maxCachedPrio = 1024

var prioSchemas struct {
	sync.Mutex
	byLinks map[int]*Schema
}

// PrioSchema returns the priority snapshot's schema for a network of the
// given number of links: fields l0 … l<links-1>, in sorted (not numeric)
// order. Every call for one link count returns the same schema.
func PrioSchema(links int) *Schema {
	if links > maxCachedPrio {
		return newPrioSchema(links)
	}
	prioSchemas.Lock()
	defer prioSchemas.Unlock()
	s, ok := prioSchemas.byLinks[links]
	if !ok {
		if prioSchemas.byLinks == nil {
			prioSchemas.byLinks = make(map[int]*Schema)
		}
		s = newPrioSchema(links)
		prioSchemas.byLinks[links] = s
	}
	return s
}

func newPrioSchema(links int) *Schema {
	names := make([]string, links)
	for i := range names {
		names[i] = PrioName(i)
	}
	return NewSchema(names...)
}

// canonicalSchemas are the fixed canonical schemas.
var canonicalSchemas = []*Schema{TxSchema, BackoffSchema, SwapSchema, DebtSchema,
	IntervalSchema, ConflictSchema, StallSchema, AlertSchema}

// canonicalSchema returns the canonical schema whose names equal the sorted
// names, and nil when there is none.
func canonicalSchema(names []string) *Schema {
	for _, s := range canonicalSchemas {
		if slices.Equal(s.names, names) {
			return s
		}
	}
	// Only names that are exactly l0 … l<n-1> share the priority schema.
	for _, name := range names {
		i, err := strconv.Atoi(name[min(1, len(name)):])
		if err != nil || i < 0 || i >= len(names) || PrioName(i) != name {
			return nil
		}
	}
	return PrioSchema(len(names))
}

// MarshalJSON encodes ev as AppendJSON does, without the newline.
func (ev Event) MarshalJSON() ([]byte, error) {
	b, err := AppendJSON(nil, ev)
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

// UnmarshalJSON decodes one event line. It fills Fields with the decoded
// field map and Payload with the same fields, under the canonical schema of
// the same names when there is one.
func (ev *Event) UnmarshalJSON(b []byte) error {
	type wire Event // no methods: decodes by the struct tags
	var w wire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*ev = Event(w)
	ev.Payload = PayloadOf(ev.Fields)
	return nil
}
