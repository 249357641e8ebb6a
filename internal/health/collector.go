package health

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"rtmac/internal/telemetry"
)

// runtime/metrics names the collector samples. Availability is checked
// against metrics.All at construction so a toolchain that renames one
// degrades that series to zero instead of reading garbage.
const (
	mGoroutines = "/sched/goroutines:goroutines"
	// mHeapLive is bytes marked live by the previous GC — zero until the
	// first cycle completes, which is why mHeapUsed (current object-occupied
	// bytes) backs the series and peak. mHeapUsed is span-granular: bytes
	// sitting in unflushed per-P allocation caches are invisible, so a run
	// small enough never to trigger a GC can legitimately read near zero —
	// which is itself a statement about the hot path's allocation behavior.
	// Reading exact numbers would need runtime.ReadMemStats, a stop-the-world
	// the collector must not inflict on the process it is observing.
	mHeapLive = "/gc/heap/live:bytes"
	mHeapUsed = "/memory/classes/heap/objects:bytes"
	mHeapGoal = "/gc/heap/goal:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCPauses = "/sched/pauses/total/gc:seconds"
	mSchedLat = "/sched/latencies:seconds"
)

// seriesLen bounds the sparkline history the collector keeps per series; at
// the default 250 ms period this is ~30 s of history.
const seriesLen = 120

// CollectorConfig parameterizes a Collector. The zero value is usable.
type CollectorConfig struct {
	// Period is the sampling interval; default 250 ms, minimum 10 ms.
	Period time.Duration
	// Registry, when set, receives rtmac_health_* gauges and counters.
	Registry *telemetry.Registry
}

// Collector samples runtime/metrics on its own goroutine and publishes the
// results as telemetry gauges plus bounded in-memory series for the
// dashboard sparklines. It never touches the simulation: sampling is
// read-only against the Go runtime, so a fixed-seed run produces identical
// results with or without a collector attached.
type Collector struct {
	period  time.Duration
	samples []metrics.Sample // reused across reads
	idx     map[string]int   // metric name -> index in samples, -1 if absent

	// registry outputs (nil when no registry was supplied)
	gSamples     *telemetry.Counter
	gGoroutines  *telemetry.Gauge
	gHeapLive    *telemetry.Gauge
	gHeapUsed    *telemetry.Gauge
	gHeapGoal    *telemetry.Gauge
	gGCCycles    *telemetry.Gauge
	gGCPauses    *telemetry.Gauge
	gGCPauseTot  *telemetry.Gauge
	gGCPauseMax  *telemetry.Gauge
	gSchedP99    *telemetry.Gauge
	gSchedPauMax *telemetry.Gauge

	mu             sync.Mutex
	last           CollectorStatus
	heapSer        series
	pauseSer       series
	prevPauseCount uint64

	started atomic.Bool
	stopped atomic.Bool
	stop    chan struct{}
	done    chan struct{}
}

// CollectorStatus is one published snapshot of the collector's view,
// JSON-shaped for /api/health and the dashboard.
type CollectorStatus struct {
	Samples       int64  `json:"samples"`
	PeriodMS      int64  `json:"period_ms"`
	Goroutines    int64  `json:"goroutines"`
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	HeapUsedBytes uint64 `json:"heap_used_bytes"`
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	HeapPeakBytes uint64 `json:"heap_peak_bytes"`
	GoroutinePeak int64  `json:"goroutine_peak"`
	GCCycles      uint64 `json:"gc_cycles"`
	GCPauses      uint64 `json:"gc_pauses"`
	GCPauseTotNS  int64  `json:"gc_pause_total_ns"`
	GCPauseMaxNS  int64  `json:"gc_pause_max_ns"`
	SchedP99NS    int64  `json:"sched_latency_p99_ns"`
	// HeapSeries is recent heap-live samples (bytes); PauseSeries is the
	// per-sample delta of GC pause count. Newest last.
	HeapSeries  []float64 `json:"heap_series,omitempty"`
	PauseSeries []float64 `json:"pause_series,omitempty"`
}

// series is a fixed-capacity append-only window.
type series struct {
	buf []float64
}

func (s *series) push(v float64) {
	if len(s.buf) == seriesLen {
		copy(s.buf, s.buf[1:])
		s.buf[len(s.buf)-1] = v
		return
	}
	s.buf = append(s.buf, v)
}

func (s *series) snapshot() []float64 {
	out := make([]float64, len(s.buf))
	copy(out, s.buf)
	return out
}

// NewCollector builds a collector; call Start to begin sampling.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Period <= 0 {
		cfg.Period = 250 * time.Millisecond
	}
	if cfg.Period < 10*time.Millisecond {
		cfg.Period = 10 * time.Millisecond
	}
	c := &Collector{
		period: cfg.Period,
		idx:    make(map[string]int),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.heapSer.buf = make([]float64, 0, seriesLen)
	c.pauseSer.buf = make([]float64, 0, seriesLen)

	avail := make(map[string]bool)
	for _, d := range metrics.All() {
		avail[d.Name] = true
	}
	for _, name := range []string{mGoroutines, mHeapLive, mHeapUsed, mHeapGoal, mGCCycles, mGCPauses, mSchedLat} {
		if avail[name] {
			c.idx[name] = len(c.samples)
			c.samples = append(c.samples, metrics.Sample{Name: name})
		} else {
			c.idx[name] = -1
		}
	}

	if cfg.Registry != nil {
		r := cfg.Registry
		c.gSamples = r.Counter("rtmac_health_samples_total", "Health collector sampling rounds completed.")
		c.gGoroutines = r.Gauge("rtmac_health_goroutines", "Live goroutine count at the last health sample.")
		c.gHeapLive = r.Gauge("rtmac_health_heap_live_bytes", "Bytes marked live by the previous GC, at the last health sample.")
		c.gHeapUsed = r.Gauge("rtmac_health_heap_used_bytes", "Heap bytes occupied by objects at the last health sample.")
		c.gHeapGoal = r.Gauge("rtmac_health_heap_goal_bytes", "GC heap goal bytes at the last health sample.")
		c.gGCCycles = r.Gauge("rtmac_health_gc_cycles_total", "Completed GC cycles since process start.")
		c.gGCPauses = r.Gauge("rtmac_health_gc_pauses_total", "GC stop-the-world pauses since process start.")
		c.gGCPauseTot = r.Gauge("rtmac_health_gc_pause_total_seconds", "Approximate cumulative GC pause time (histogram midpoints).")
		c.gGCPauseMax = r.Gauge("rtmac_health_gc_pause_max_seconds", "Worst GC pause bucket observed since process start.")
		c.gSchedP99 = r.Gauge("rtmac_health_sched_latency_p99_seconds", "p99 goroutine scheduling latency since process start.")
		c.gSchedPauMax = r.Gauge("rtmac_health_sched_latency_max_seconds", "Worst scheduling-latency bucket since process start.")
	}
	return c
}

// Start launches the sampling goroutine. It samples once immediately so
// short-lived runs still record at least one round. A collector is
// single-use: Start after Stop is a no-op.
func (c *Collector) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(c.done)
		c.sample()
		t := time.NewTicker(c.period)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				c.sample() // final round so Summary sees the run's end state
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
}

// Stop halts sampling after one final round and waits for the goroutine.
// Safe to call more than once.
func (c *Collector) Stop() {
	if !c.started.Load() || !c.stopped.CompareAndSwap(false, true) {
		return
	}
	close(c.stop)
	<-c.done
}

// sample runs one collection round.
func (c *Collector) sample() {
	if len(c.samples) > 0 {
		metrics.Read(c.samples)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.last
	st.Samples++
	st.PeriodMS = c.period.Milliseconds()

	if v, ok := c.uint64At(mGoroutines); ok {
		st.Goroutines = int64(v)
		if st.Goroutines > st.GoroutinePeak {
			st.GoroutinePeak = st.Goroutines
		}
	}
	if v, ok := c.uint64At(mHeapLive); ok {
		st.HeapLiveBytes = v
	}
	if v, ok := c.uint64At(mHeapUsed); ok {
		st.HeapUsedBytes = v
		if v > st.HeapPeakBytes {
			st.HeapPeakBytes = v
		}
		c.heapSer.push(float64(v))
	}
	if v, ok := c.uint64At(mHeapGoal); ok {
		st.HeapGoalBytes = v
	}
	if v, ok := c.uint64At(mGCCycles); ok {
		st.GCCycles = v
	}
	if h, ok := c.histAt(mGCPauses); ok {
		ps := histStats(h)
		c.pauseSer.push(float64(ps.count - c.prevPauseCount))
		c.prevPauseCount = ps.count
		st.GCPauses = ps.count
		st.GCPauseTotNS = secToNS(ps.totalSec)
		st.GCPauseMaxNS = secToNS(ps.maxSec)
		if c.gGCPauseTot != nil {
			c.gGCPauseTot.Set(ps.totalSec)
			c.gGCPauseMax.Set(ps.maxSec)
		}
	}
	if h, ok := c.histAt(mSchedLat); ok {
		ss := histStats(h)
		st.SchedP99NS = secToNS(ss.p99Sec)
		if c.gSchedP99 != nil {
			c.gSchedP99.Set(ss.p99Sec)
			c.gSchedPauMax.Set(ss.maxSec)
		}
	}

	if c.gSamples != nil {
		c.gSamples.Inc()
		c.gGoroutines.Set(float64(st.Goroutines))
		c.gHeapLive.Set(float64(st.HeapLiveBytes))
		c.gHeapUsed.Set(float64(st.HeapUsedBytes))
		c.gHeapGoal.Set(float64(st.HeapGoalBytes))
		c.gGCCycles.Set(float64(st.GCCycles))
		c.gGCPauses.Set(float64(st.GCPauses))
	}
}

// uint64At reads a KindUint64 sample by metric name; ok is false when the
// metric is unavailable on this toolchain.
func (c *Collector) uint64At(name string) (uint64, bool) {
	i, ok := c.idx[name]
	if !ok || i < 0 {
		return 0, false
	}
	v := c.samples[i].Value
	if v.Kind() != metrics.KindUint64 {
		return 0, false
	}
	return v.Uint64(), true
}

// histAt reads a KindFloat64Histogram sample by metric name.
func (c *Collector) histAt(name string) (*metrics.Float64Histogram, bool) {
	i, ok := c.idx[name]
	if !ok || i < 0 {
		return nil, false
	}
	v := c.samples[i].Value
	if v.Kind() != metrics.KindFloat64Histogram {
		return nil, false
	}
	return v.Float64Histogram(), true
}

// Status returns the latest snapshot including sparkline series.
func (c *Collector) Status() CollectorStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.last
	st.HeapSeries = c.heapSer.snapshot()
	st.PauseSeries = c.pauseSer.snapshot()
	return st
}

// Summary condenses the collector's whole-run view for the manifest. Pause
// totals are since process start; for the per-run story that is the right
// frame — a figures sweep is one process, one manifest.
func (c *Collector) Summary() telemetry.HealthSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return telemetry.HealthSummary{
		Samples:           c.last.Samples,
		HeapLivePeakBytes: c.last.HeapPeakBytes,
		GoroutinePeak:     c.last.GoroutinePeak,
		GCCycles:          c.last.GCCycles,
		GCPauses:          c.last.GCPauses,
		GCPauseTotalNS:    c.last.GCPauseTotNS,
		GCPauseMaxNS:      c.last.GCPauseMaxNS,
		SchedLatencyP99NS: c.last.SchedP99NS,
	}
}
