package experiment

import "rtmac"

// robustnessFigure sweeps load on the video network under a model that
// violates one of the paper's assumptions — a fading channel or temporally
// correlated arrivals — and compares DB-DP with LDF. The optimality proofs
// do not cover these regimes; the experiments show whether the protocol's
// debt feedback still tracks the centralized comparator.
func robustnessFigure(id, title string, build func(x float64) (rtmac.Config, error)) *sweepFigure {
	return &sweepFigure{
		id:          id,
		title:       title,
		xlabel:      "alpha*",
		xs:          sweepRange(0.40, 0.65, 0.05),
		curves:      labelled(rtmac.DBDP(), rtmac.LDF()),
		horizon:     videoIntervals,
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
		func(x float64) (rtmac.Config, error) {
			cfg, err := videoConfig(x, videoRho)
			if err != nil {
				return rtmac.Config{}, err
			}
			// Equal 20 ms mean dwell in each state; mean reliability 0.65 and
			// mean attempts-per-delivery E[1/p] ≈ 1.70, so the capacity knee
			// sits near α* ≈ 0.55 — inside the sweep, like the paper's
			// static scenario.
			cfg.Fading = &rtmac.Fading{PGood: 0.85, PBad: 0.45, GoodToBad: 0.05, BadToGood: 0.05,
				Period: rtmac.Millisecond}
			return cfg, nil
		})
}

// ExtraCorrelated compares DB-DP and LDF when arrivals are Markov-modulated
// across intervals (video GOP-like bursts), violating the i.i.d. assumption
// of the optimality proofs.
func ExtraCorrelated() Figure {
	return robustnessFigure("extra-correlated",
		"Robustness: Markov-modulated (temporally correlated) arrivals, DB-DP vs LDF on the video network",
		func(x float64) (rtmac.Config, error) {
			// Low regime: half the burst probability; high regime: 1.5×.
			// Stationary mix with P(high)=0.5 matches the nominal alpha.
			low, err := rtmac.VideoArrivals(0.5 * x)
			if err != nil {
				return rtmac.Config{}, err
			}
			high, err := rtmac.VideoArrivals(1.5 * x)
			if err != nil {
				return rtmac.Config{}, err
			}
			// Requirements use the stationary mean λ = 3.5·x.
			return rtmac.Config{
				Profile: rtmac.VideoProfile(),
				Links:   repeat(videoLinks, rtmac.Link{SuccessProb: videoP, Arrivals: low, Required: videoRho * 3.5 * x}),
				Regimes: &rtmac.ArrivalRegimes{High: repeat(videoLinks, high)},
			}, nil
		})
}
