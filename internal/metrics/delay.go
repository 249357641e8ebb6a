package metrics

import (
	"fmt"
	"math"

	"rtmac/internal/mac"
	"rtmac/internal/medium"
	"rtmac/internal/sim"
)

// DelayStats measures per-packet delivery delay: the time from a packet's
// arrival (its interval's start) to the end of its successful transmission.
// The paper's headline metric is timely-throughput — whether packets make
// the deadline at all — but a control engineer also cares how early within
// the deadline deliveries land; this collector answers that.
//
// It is a mac.Probe reading Tx records: attach it with Network.AddProbe
// before running. Only delivered data packets are counted (empty frames and
// losses carry no delivery delay).
type DelayStats struct {
	mac.NopProbe
	interval sim.Time
	// histogram over delay as a fraction of the deadline, in buckets of
	// width interval/resolution.
	buckets []int64
	total   int64
	sum     sim.Time
	max     sim.Time
}

// NewDelayStats creates a collector for a network whose intervals have the
// given duration, with the given histogram resolution (number of buckets
// spanning one deadline).
func NewDelayStats(interval sim.Time, resolution int) (*DelayStats, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("metrics: non-positive interval %v", interval)
	}
	if resolution <= 0 {
		return nil, fmt.Errorf("metrics: non-positive resolution %d", resolution)
	}
	return &DelayStats{
		interval: interval,
		buckets:  make([]int64, resolution),
	}, nil
}

// Tx records a delivered data packet's delay.
func (d *DelayStats) Tx(_ int64, tx medium.Transmission, outcome medium.Outcome) {
	if tx.Empty || outcome != medium.Delivered {
		return
	}
	d.observe(tx.End)
}

// observe records a delivery ending at instant end.
func (d *DelayStats) observe(end sim.Time) {
	intervalStart := (end - 1) / d.interval * d.interval // end is in (start, start+T]
	delay := end - intervalStart
	d.total++
	d.sum += delay
	if delay > d.max {
		d.max = delay
	}
	idx := int(int64(delay-1) * int64(len(d.buckets)) / int64(d.interval))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(d.buckets) {
		idx = len(d.buckets) - 1
	}
	d.buckets[idx]++
}

// Count returns the number of recorded deliveries.
func (d *DelayStats) Count() int64 { return d.total }

// Mean returns the average delivery delay.
func (d *DelayStats) Mean() sim.Time {
	if d.total == 0 {
		return 0
	}
	return d.sum / sim.Time(d.total)
}

// Max returns the largest observed delay (never exceeds the deadline by
// construction — later packets are dropped, not delivered).
func (d *DelayStats) Max() sim.Time { return d.max }

// Quantile returns the q-quantile (0 < q ≤ 1) of the delay distribution,
// resolved to bucket granularity (each bucket's upper edge).
func (d *DelayStats) Quantile(q float64) (sim.Time, error) {
	if !(q > 0 && q <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("metrics: quantile %v outside (0, 1]", q)
	}
	if d.total == 0 {
		return 0, fmt.Errorf("metrics: no deliveries recorded")
	}
	need := int64(math.Ceil(q * float64(d.total)))
	acc := int64(0)
	for i, c := range d.buckets {
		acc += c
		if acc >= need {
			return sim.Time(int64(d.interval) * int64(i+1) / int64(len(d.buckets))), nil
		}
	}
	return d.interval, nil
}

// Histogram returns a copy of the bucket counts; bucket i covers delays in
// (i, i+1]·interval/len(buckets).
func (d *DelayStats) Histogram() []int64 {
	out := make([]int64, len(d.buckets))
	copy(out, d.buckets)
	return out
}

// DeadlineShare returns the fraction of deliveries with delay at most
// frac·deadline, interpolating bucket edges downward (conservative).
func (d *DelayStats) DeadlineShare(frac float64) float64 {
	if d.total == 0 {
		return 0
	}
	edge := int(frac * float64(len(d.buckets)))
	if edge > len(d.buckets) {
		edge = len(d.buckets)
	}
	acc := int64(0)
	for i := 0; i < edge; i++ {
		acc += d.buckets[i]
	}
	return float64(acc) / float64(d.total)
}
