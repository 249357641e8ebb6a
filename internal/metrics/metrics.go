// Package metrics collects the quantities the paper's evaluation reports:
// per-link timely-throughput, total timely-throughput deficiency
// (Definition 1), and convergence-time series.
package metrics

import (
	"fmt"

	"rtmac/internal/mac"
)

// Collector accumulates per-interval service results. It implements
// mac.Observer, so wiring it into a network is just listing it in
// NetworkConfig.Observers.
type Collector struct {
	required  []float64
	delivered []int64
	arrived   []int64
	intervals int64

	// seriesEvery > 0 records a cumulative-throughput snapshot of every
	// link each seriesEvery intervals (for convergence plots).
	seriesEvery   int
	series        []Snapshot
	lastDelivered []int64
}

// Snapshot is one convergence checkpoint.
type Snapshot struct {
	// Intervals is K, the number of completed intervals at the checkpoint.
	Intervals int64
	// Throughput is the cumulative timely-throughput per link (deliveries
	// divided by all K intervals).
	Throughput []float64
	// Windowed is the timely-throughput over just the intervals since the
	// previous checkpoint — the instantaneous rate convergence plots need.
	Windowed []float64
}

// Option configures a Collector.
type Option func(*Collector)

// WithSeries enables convergence snapshots every `every` intervals.
func WithSeries(every int) Option {
	return func(c *Collector) { c.seriesEvery = every }
}

// NewCollector builds a collector for the given requirement vector q.
func NewCollector(required []float64, opts ...Option) (*Collector, error) {
	if len(required) == 0 {
		return nil, fmt.Errorf("metrics: no links")
	}
	for n, q := range required {
		if q < 0 {
			return nil, fmt.Errorf("metrics: link %d: negative requirement %v", n, q)
		}
	}
	q := make([]float64, len(required))
	copy(q, required)
	c := &Collector{
		required:  q,
		delivered: make([]int64, len(required)),
		arrived:   make([]int64, len(required)),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// ObserveInterval implements mac.Observer.
func (c *Collector) ObserveInterval(_ int64, arrivals, served []int) {
	for n := range c.delivered {
		c.arrived[n] += int64(arrivals[n])
		c.delivered[n] += int64(served[n])
	}
	c.intervals++
	if c.seriesEvery > 0 && c.intervals%int64(c.seriesEvery) == 0 {
		if c.lastDelivered == nil {
			c.lastDelivered = make([]int64, len(c.delivered))
		}
		tp := make([]float64, len(c.delivered))
		win := make([]float64, len(c.delivered))
		for n := range tp {
			tp[n] = float64(c.delivered[n]) / float64(c.intervals)
			win[n] = float64(c.delivered[n]-c.lastDelivered[n]) / float64(c.seriesEvery)
			c.lastDelivered[n] = c.delivered[n]
		}
		c.series = append(c.series, Snapshot{Intervals: c.intervals, Throughput: tp, Windowed: win})
	}
}

// Links returns N.
func (c *Collector) Links() int { return len(c.required) }

// Intervals returns the number of observed intervals K.
func (c *Collector) Intervals() int64 { return c.intervals }

// Throughput returns link n's empirical timely-throughput, deliveries per
// interval.
func (c *Collector) Throughput(n int) float64 {
	if c.intervals == 0 {
		return 0
	}
	return float64(c.delivered[n]) / float64(c.intervals)
}

// DeliveryRatio returns delivered/arrived for link n (1 when nothing
// arrived).
func (c *Collector) DeliveryRatio(n int) float64 {
	if c.arrived[n] == 0 {
		return 1
	}
	return float64(c.delivered[n]) / float64(c.arrived[n])
}

// Deficiency returns link n's timely-throughput deficiency
// (q_n − throughput)⁺ per Definition 1.
func (c *Collector) Deficiency(n int) float64 {
	if d := c.required[n] - c.Throughput(n); d > 0 {
		return d
	}
	return 0
}

// TotalDeficiency returns the paper's headline metric, the total
// timely-throughput deficiency Σ_n (q_n − throughput_n)⁺.
func (c *Collector) TotalDeficiency() float64 {
	total := 0.0
	for n := range c.required {
		total += c.Deficiency(n)
	}
	return total
}

// Series returns the recorded convergence snapshots.
func (c *Collector) Series() []Snapshot { return c.series }

// ConvergenceInterval returns the first checkpoint at which link n's
// cumulative timely-throughput has entered and stays within fraction `tol`
// of target for all subsequent checkpoints, or -1 if it never settles.
func (c *Collector) ConvergenceInterval(n int, target, tol float64) int64 {
	if target <= 0 {
		return -1
	}
	settled := int64(-1)
	for _, snap := range c.series {
		diff := snap.Throughput[n] - target
		if diff < 0 {
			diff = -diff
		}
		if diff <= tol*target {
			if settled == -1 {
				settled = snap.Intervals
			}
		} else {
			settled = -1
		}
	}
	return settled
}

var _ mac.Observer = (*Collector)(nil)
