// Package telemetry is the simulator's unified observability layer: a
// registry of named metrics (counters, gauges, fixed-bucket histograms), a
// structured event stream encoded as JSONL, exposition in Prometheus text
// format and as a JSON snapshot, and a run manifest describing one
// simulation run. It has no dependencies beyond the standard library and the
// sim time type, so every layer of the simulator can feed it without import
// cycles.
//
// The registry is safe for concurrent use: experiments that run many
// networks in parallel may share one registry across goroutines. A single
// network remains single-threaded, so the common path is uncontended.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric types a Registry holds.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer, matching Prometheus TYPE names.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically non-decreasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by delta; negative deltas panic (counters only
// go up — use a Gauge for values that move both ways).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic(fmt.Sprintf("telemetry: counter decrement %d", delta))
	}
	c.v.Add(delta)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets with inclusive upper
// bounds, Prometheus-style: an observation v lands in the first bucket with
// v <= bound; values above the last bound land in the implicit +Inf bucket.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds
	counts []uint64  // len(bounds)+1; last entry is the +Inf bucket
	sum    float64
	total  uint64
}

// Observe records the given values in order under one lock, so a caller
// that collects a batch (the MAC layer observes each interval's values when
// the interval closes) pays one lock per batch rather than one per value.
// The counts, total and sum equal those of observing the values one at a
// time.
func (h *Histogram) Observe(vs ...float64) {
	h.mu.Lock()
	for _, v := range vs {
		// Bucket lookup is a linear scan rather than a binary search: bound
		// slices are short (≈10 entries) and observations skew toward the
		// low buckets, so the scan's predictable branches beat
		// sort.SearchFloat64s on the simulation hot path.
		i := len(h.bounds) // +Inf bucket unless a bound catches v
		for j, ub := range h.bounds {
			if v <= ub {
				i = j
				break
			}
		}
		h.counts[i]++
		h.sum += v
	}
	h.total += uint64(len(vs))
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the inclusive bucket upper bounds; Counts has one extra
	// trailing entry for the +Inf bucket. Counts are per-bucket, not
	// cumulative.
	Bounds []float64
	Counts []uint64
	Sum    float64
	Total  uint64
}

// Snapshot returns a consistent copy of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Total:  h.total,
	}
}

// metric is one registered entry.
type metric struct {
	name string
	help string
	kind Kind
	ctr  *Counter
	gge  *Gauge
	hst  *Histogram
}

// Registry holds named metrics. The zero value is not usable; construct with
// NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// validName rejects names Prometheus exposition could not carry. Metric
// names follow [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) lookup(name string, kind Kind) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s",
				name, m.kind, kind))
		}
		return m
	}
	return nil
}

// Counter returns the named counter, registering it on first use. Requesting
// an existing name as a different kind panics: it always indicates two
// subsystems fighting over one name.
func (r *Registry) Counter(name, help string) *Counter {
	if m := r.lookup(name, KindCounter); m != nil {
		return m.ctr
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok { // lost a registration race
		return m.ctr
	}
	m := &metric{name: name, help: help, kind: KindCounter, ctr: &Counter{}}
	r.metrics[name] = m
	return m.ctr
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if m := r.lookup(name, KindGauge); m != nil {
		return m.gge
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.gge
	}
	m := &metric{name: name, help: help, kind: KindGauge, gge: &Gauge{}}
	r.metrics[name] = m
	return m.gge
}

// Histogram returns the named histogram, registering it on first use with
// the given strictly increasing bucket upper bounds. Bounds passed on later
// lookups of an existing histogram are ignored.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if m := r.lookup(name, KindHistogram); m != nil {
		return m.hst
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly increasing at %d", name, i))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.hst
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.metrics[name] = &metric{name: name, help: help, kind: KindHistogram, hst: h}
	return h
}

// Names returns the registered metric names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// snapshot captures every metric's name, kind, help and current value inside
// one registry critical section, ordered by name. A scrape therefore observes
// a consistent point-in-time view — concurrent metric updates and even
// concurrent first-use registrations cannot tear the exposition mid-write —
// and two scrapes of a quiesced registry are byte-identical.
func (r *Registry) snapshot() []MetricSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(r.metrics))
	for _, m := range r.metrics {
		snap := MetricSnapshot{Name: m.name, Help: m.help, Kind: m.kind.String()}
		switch m.kind {
		case KindCounter:
			snap.Value = float64(m.ctr.Value())
		case KindGauge:
			snap.Value = m.gge.Value()
		case KindHistogram:
			h := m.hst.Snapshot()
			snap.Bounds, snap.Counts, snap.Sum, snap.Total = h.Bounds, h.Counts, h.Sum, h.Total
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
