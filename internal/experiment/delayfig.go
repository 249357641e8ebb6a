package experiment

import (
	"fmt"

	"rtmac"
)

// ExtraDelay measures what the deficiency sweeps do not show: the delivery
// LATENCY distribution. The paper's introduction motivates per-packet
// deadlines with millisecond-scale control loops; this figure reports the
// median and 99th-percentile delivery delay (as a fraction of the deadline)
// for each policy across the video network's load sweep.
func ExtraDelay() Figure { return delayFigure{} }

type delayFigure struct{}

func (delayFigure) ID() string { return "extra-delay" }

func (delayFigure) Title() string {
	return "Delivery-delay percentiles (fraction of deadline) vs load, video network"
}

func (f delayFigure) Run(opts RunOptions) (*Result, error) {
	opts = opts.fill()
	xs := sweepRange(0.40, 0.60, 0.05)
	curves := labelled(rtmac.DBDP(), rtmac.LDF(), rtmac.FCSMA())
	// One BaseSeed run per (x, protocol); hists[ci*len(xs)+xi] keeps its
	// 200-bucket delay histogram.
	hists := make([]*rtmac.Delay, len(curves)*len(xs))
	var jobs []job
	for xi, x := range xs {
		cfg, err := videoConfig(x, videoRho)
		if err != nil {
			return nil, fmt.Errorf("experiment extra-delay: %w", err)
		}
		cfg.Seed = opts.BaseSeed
		for ci, c := range curves {
			slot := &hists[ci*len(xs)+xi]
			cfg.Protocol = c.protocol
			jobs = append(jobs, job{key: fmt.Sprintf("%g/%s", x, c.label), cfg: cfg,
				intervals: opts.scaled(videoIntervals), delayBuckets: 200,
				reduce: func(out runOut) { *slot = out.hist }})
		}
	}
	if err := runJobs(f, jobs, opts); err != nil {
		return nil, fmt.Errorf("experiment extra-delay: %w", err)
	}
	deadline := float64(rtmac.VideoProfile().Interval())
	res := &Result{ID: f.ID(), Title: f.Title(), XLabel: "alpha*", YLabel: "delay / deadline"}
	for ci, c := range curves {
		p50 := Series{Label: c.label + " p50"}
		p99 := Series{Label: c.label + " p99"}
		for xi, x := range xs {
			hist := hists[ci*len(xs)+xi]
			q50, err := hist.Quantile(0.5)
			if err != nil {
				return nil, err
			}
			q99, err := hist.Quantile(0.99)
			if err != nil {
				return nil, err
			}
			p50.X = append(p50.X, x)
			p50.Y = append(p50.Y, float64(q50)/deadline)
			p99.X = append(p99.X, x)
			p99.Y = append(p99.Y, float64(q99)/deadline)
		}
		res.Series = append(res.Series, p50, p99)
	}
	return res, nil
}
