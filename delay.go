package rtmac

import (
	"fmt"

	"rtmac/internal/metrics"
)

// Delay exposes per-packet delivery-delay statistics for a simulation: how
// early within the deadline successful deliveries land. Only delivered data
// packets are counted.
type Delay struct {
	d *metrics.DelayStats
}

// EnableDelayStats starts collecting delivery-delay statistics with the
// given histogram resolution (buckets per deadline; 100 is a fine default).
// Call before Run.
func (s *Simulation) EnableDelayStats(resolution int) (*Delay, error) {
	d, err := metrics.NewDelayStats(s.profile.Interval, resolution)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	s.nw.AddProbe(d)
	return &Delay{d: d}, nil
}

// Count returns how many deliveries were observed.
func (d *Delay) Count() int64 { return d.d.Count() }

// Mean returns the average delivery delay.
func (d *Delay) Mean() Time { return d.d.Mean() }

// Max returns the largest observed delay (bounded by the deadline).
func (d *Delay) Max() Time { return d.d.Max() }

// Quantile returns the q-quantile of the delay distribution, at histogram
// resolution.
func (d *Delay) Quantile(q float64) (Time, error) {
	v, err := d.d.Quantile(q)
	if err != nil {
		return 0, fmt.Errorf("rtmac: %w", err)
	}
	return v, nil
}

// DeadlineShare returns the fraction of deliveries completed within
// frac·deadline of their arrival.
func (d *Delay) DeadlineShare(frac float64) float64 { return d.d.DeadlineShare(frac) }

// Histogram returns the raw bucket counts; bucket i covers delays within
// (i, i+1]·deadline/resolution.
func (d *Delay) Histogram() []int64 { return d.d.Histogram() }

// DelayQuantiles streams delivery delays through fixed-memory P² estimators,
// yielding p50/p95/p99 without storing samples. Unlike EnableDelayStats it
// keeps no histogram, so it is cheap enough for every ledger run: the three
// quantiles and the delivery count go into the run's deficiency replication.
type DelayQuantiles struct {
	d *metrics.DelaySketch
}

// EnableDelaySketch starts streaming delivery delays through the quantile
// sketch. Call before Run; it can coexist with EnableDelayStats.
func (s *Simulation) EnableDelaySketch() (*DelayQuantiles, error) {
	d, err := metrics.NewDelaySketch(s.profile.Interval)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	s.nw.AddProbe(d)
	return &DelayQuantiles{d: d}, nil
}

// Count returns how many deliveries were observed.
func (d *DelayQuantiles) Count() int64 { return d.d.Count() }

// P50 returns the estimated median delivery delay in microseconds.
func (d *DelayQuantiles) P50() float64 { return d.d.P50() }

// P95 returns the estimated 95th-percentile delay in microseconds.
func (d *DelayQuantiles) P95() float64 { return d.d.P95() }

// P99 returns the estimated 99th-percentile delay in microseconds.
func (d *DelayQuantiles) P99() float64 { return d.d.P99() }
