package experiment

import (
	"rtmac/internal/arrival"
	"rtmac/internal/medium"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
)

// robustnessFigure sweeps load on the video network under a model that
// violates one of the paper's assumptions — a fading channel or temporally
// correlated arrivals — and compares DB-DP with LDF. The optimality proofs
// do not cover these regimes; the experiments show whether the protocol's
// debt feedback still tracks the centralized comparator.
func robustnessFigure(id, title string, build func(x float64, opts RunOptions) (scenario, error)) *sweepFigure {
	return &sweepFigure{
		id:          id,
		title:       title,
		xlabel:      "alpha*",
		xs:          sweepRange(0.40, 0.65, 0.05),
		specs:       []protocolSpec{dbdpSpec(), ldfSpec()},
		replaySeeds: true,
		build:       build,
	}
}

// ExtraFading compares DB-DP and LDF over a Gilbert–Elliott fading channel
// whose mean reliability is near the paper's p = 0.7 but whose
// instantaneous reliability swings between 0.85 (good) and 0.45 (bad) with
// ~20 ms coherence. Both policies compute debt weights from the MEAN (what
// a real transmitter would learn), so neither gets inside information.
func ExtraFading() Figure {
	return robustnessFigure("extra-fading",
		"Robustness: Gilbert–Elliott fading channel (mean p=0.7), DB-DP vs LDF on the video network",
		func(x float64, opts RunOptions) (scenario, error) {
			proc, err := arrival.PaperVideo(x)
			if err != nil {
				return scenario{}, err
			}
			av, err := arrival.Uniform(videoLinks, proc)
			if err != nil {
				return scenario{}, err
			}
			// NewGilbertElliott needs the engine's RNG and each network owns
			// its engine, so the model is built per network by the channel
			// constructor.
			return scenario{
				profile:  phy.Video(),
				arrivals: av,
				required: uniformVec(videoLinks, videoRho*proc.Mean()),
				channel: func(eng *sim.Engine, n int) (medium.Model, error) {
					// Equal 20 ms mean dwell in each state; mean reliability
					// 0.65 and mean attempts-per-delivery E[1/p] ≈ 1.70, so
					// the capacity knee sits near α* ≈ 0.55 — inside the
					// sweep, like the paper's static scenario.
					return medium.NewGilbertElliott(eng, n, 0.85, 0.45, 0.05, 0.05, sim.Millisecond)
				},
				intervals: opts.scaled(videoIntervals),
			}, nil
		})
}

// ExtraCorrelated compares DB-DP and LDF when arrivals are Markov-modulated
// across intervals (video GOP-like bursts), violating the i.i.d. assumption
// of the optimality proofs.
func ExtraCorrelated() Figure {
	f := robustnessFigure("extra-correlated",
		"Robustness: Markov-modulated (temporally correlated) arrivals, DB-DP vs LDF on the video network",
		func(x float64, opts RunOptions) (scenario, error) {
			// Low regime: half the burst probability; high regime: 1.5×.
			// Stationary mix with P(high)=0.5 matches the nominal alpha.
			lowProc, err := arrival.PaperVideo(0.5 * x)
			if err != nil {
				return scenario{}, err
			}
			highProc, err := arrival.PaperVideo(1.5 * x)
			if err != nil {
				return scenario{}, err
			}
			low, err := arrival.Uniform(videoLinks, lowProc)
			if err != nil {
				return scenario{}, err
			}
			high, err := arrival.Uniform(videoLinks, highProc)
			if err != nil {
				return scenario{}, err
			}
			av, err := arrival.NewMarkovModulated(low, high, 0.05, 0.05)
			if err != nil {
				return scenario{}, err
			}
			// Requirements use the stationary mean λ = 3.5·x.
			return scenario{
				profile:     phy.Video(),
				successProb: uniformVec(videoLinks, videoP),
				arrivals:    av,
				required:    uniformVec(videoLinks, videoRho*3.5*x),
				intervals:   opts.scaled(videoIntervals),
			}, nil
		})
	// The regime process keeps state across intervals, so every simulation
	// gets a fresh one.
	f.fresh = true
	return f
}
