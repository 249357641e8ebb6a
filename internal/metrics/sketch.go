package metrics

import (
	"fmt"

	"rtmac/internal/mac"
	"rtmac/internal/medium"
	"rtmac/internal/sim"
	"rtmac/internal/stats"
)

// DelaySketch streams per-packet delivery delays through fixed-memory P²
// quantile estimators, yielding p50/p95/p99 without storing samples. It is
// the sweep-friendly sibling of DelayStats: every replication of every sweep
// point can afford one, so figure results carry delay quantiles alongside
// deficiency means.
//
// Delays are measured like DelayStats: from the packet's interval start to
// the end of its successful transmission, in microseconds. It is a mac.Probe
// reading Tx records: attach it with Network.AddProbe before running.
type DelaySketch struct {
	mac.NopProbe
	interval sim.Time
	sketch   *stats.QuantileSketch
}

// NewDelaySketch builds a sketch for a network whose intervals have the given
// duration.
func NewDelaySketch(interval sim.Time) (*DelaySketch, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("metrics: non-positive interval %v", interval)
	}
	sk, err := stats.NewQuantileSketch(0.5, 0.95, 0.99)
	if err != nil {
		return nil, err
	}
	return &DelaySketch{interval: interval, sketch: sk}, nil
}

// Tx records a delivered data packet's delay.
func (d *DelaySketch) Tx(_ int64, tx medium.Transmission, outcome medium.Outcome) {
	if tx.Empty || outcome != medium.Delivered {
		return
	}
	intervalStart := (tx.End - 1) / d.interval * d.interval
	d.sketch.Add(float64(tx.End - intervalStart))
}

// Count returns the number of recorded deliveries.
func (d *DelaySketch) Count() int64 { return d.sketch.Count() }

// P50 returns the estimated median delivery delay in microseconds.
func (d *DelaySketch) P50() float64 { return d.sketch.Quantile(0.5) }

// P95 returns the estimated 95th-percentile delay in microseconds.
func (d *DelaySketch) P95() float64 { return d.sketch.Quantile(0.95) }

// P99 returns the estimated 99th-percentile delay in microseconds.
func (d *DelaySketch) P99() float64 { return d.sketch.Quantile(0.99) }
