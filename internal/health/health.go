// Package health is the simulator's runtime health plane: visibility into
// how the *host* Go runtime behaves while a simulation runs, as opposed to
// what the simulation computes. The paper's protocols live on hard per-slot
// timing (9 µs idle slots in the 802.11 parameterization), so GC pauses,
// scheduler latency and allocation pressure are first-class observables —
// they decide whether a run of the protocol stack could have held its slot
// schedule in wall-clock time.
//
// Two cooperating pieces, each independently attachable:
//
//   - Collector: a background sampler over runtime/metrics (GC pause
//     histogram, stop-the-world totals, scheduling latency, heap live/goal,
//     goroutine count) publishing into a telemetry.Registry, entirely off
//     the simulation hot path.
//   - Watchdog: a slot-budget monitor on the interval loop. It measures
//     wall-clock nanoseconds per simulated interval against a budget and,
//     on overrun, attributes the stall (GC pause overlapped, scheduler
//     delay, or plain user code) and emits a "stall" telemetry event.
//
// Everything is zero-overhead when disabled: nothing in this package runs
// unless explicitly constructed and attached, and the simulation's
// allocation-free interval contract (TestHotPathZeroAlloc) is unaffected.
package health

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"time"

	"rtmac/internal/telemetry"
)

// Doc is the /api/health document: one self-describing JSON snapshot of the
// process runtime and whichever health components are attached.
type Doc struct {
	// Enabled reports whether a health collector is attached; without one
	// the document still carries the runtime identity block.
	Enabled bool `json:"enabled"`
	// Runtime identifies the process: Go version, GOMAXPROCS, host, VCS.
	Runtime telemetry.BuildRuntime `json:"runtime"`
	// Collector and Watchdog report each attached component's live state;
	// absent components are omitted.
	Collector *CollectorStatus `json:"collector,omitempty"`
	Watchdog  *WatchdogStatus  `json:"watchdog,omitempty"`
}

// BuildDoc assembles the health document from whichever components exist;
// any of them may be nil. The runtime block is always populated.
func BuildDoc(c *Collector, w *Watchdog) Doc {
	d := Doc{Runtime: telemetry.RuntimeInfo()}
	if c != nil {
		d.Enabled = true
		st := c.Status()
		d.Collector = &st
	}
	if w != nil {
		st := w.Status()
		d.Watchdog = &st
	}
	return d
}

// ValidateDoc parses a health document (e.g. fetched from /api/health) and
// checks its structural invariants: only whitespace may follow it, the
// runtime block must identify a Go toolchain, and an enabled document must
// carry collector state. Used by `rtmacsim -check` to guard the endpoint
// and a record directory's health.json.
func ValidateDoc(r io.Reader) (Doc, error) {
	var d Doc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return Doc{}, fmt.Errorf("health: parsing document: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Doc{}, fmt.Errorf("health: data after the document")
	}
	if d.Runtime.GoVersion == "" {
		return Doc{}, fmt.Errorf("health: document has no runtime.go_version")
	}
	if d.Runtime.GoMaxProcs <= 0 {
		return Doc{}, fmt.Errorf("health: document has gomaxprocs %d", d.Runtime.GoMaxProcs)
	}
	if d.Enabled && d.Collector == nil {
		return Doc{}, fmt.Errorf("health: enabled document carries no collector state")
	}
	if d.Enabled && d.Collector.Samples < 0 {
		return Doc{}, fmt.Errorf("health: negative sample count %d", d.Collector.Samples)
	}
	return d, nil
}

// pauseStats reduces a runtime/metrics duration histogram (seconds) to the
// aggregates the plane reports: observation count, approximate total, the
// worst observed bucket, and the p99 bucket edge. Histogram buckets only
// bound each observation, so total/max are bucket-resolution approximations
// — documented as such everywhere they surface.
type pauseStats struct {
	count    uint64
	totalSec float64
	maxSec   float64
	p99Sec   float64
}

// histStats computes pauseStats over a Float64Histogram. Buckets[i] and
// Buckets[i+1] bound Counts[i]; the first/last bucket may be infinite, in
// which case the finite edge stands in.
func histStats(h *metrics.Float64Histogram) pauseStats {
	var s pauseStats
	if h == nil {
		return s
	}
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := bucketMid(lo, hi)
		s.count += n
		s.totalSec += float64(n) * mid
		if edge := finiteEdge(hi, lo); edge > s.maxSec {
			s.maxSec = edge
		}
	}
	if s.count > 0 {
		threshold := uint64(math.Ceil(0.99 * float64(s.count)))
		var cum uint64
		for i, n := range h.Counts {
			cum += n
			if cum >= threshold {
				s.p99Sec = finiteEdge(h.Buckets[i+1], h.Buckets[i])
				break
			}
		}
	}
	return s
}

// bucketMid returns a representative value for a bucket, degrading to the
// finite edge when the other is infinite.
func bucketMid(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	default:
		return (lo + hi) / 2
	}
}

// finiteEdge prefers hi unless it is infinite, then falls back to lo (and to
// zero when both are unusable).
func finiteEdge(hi, lo float64) float64 {
	if !math.IsInf(hi, 0) {
		return hi
	}
	if !math.IsInf(lo, 0) {
		return lo
	}
	return 0
}

// secToNS converts runtime/metrics seconds to integer nanoseconds.
func secToNS(s float64) int64 { return int64(s * float64(time.Second)) }
