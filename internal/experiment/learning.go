package experiment

import "rtmac"

// ExtraLearning compares DB-DP with the known-p_n oracle against DB-DP that
// LEARNS reliability online from its own ACKs (the paper's suggested
// alternative to assuming p_n). Run on the asymmetric two-group network,
// where wrong reliability estimates would misweight the two groups.
func ExtraLearning() Figure {
	return &sweepFigure{
		id:     "extra-learning",
		title:  "DB-DP with known p_n vs online-learned reliability (asymmetric network, 90% ratio)",
		xlabel: "alpha*",
		xs:     sweepRange(0.50, 0.75, 0.05),
		curves: []curve{
			{label: "DB-DP", protocol: rtmac.DBDP()},
			{label: "DB-DP (learned p)", protocol: rtmac.DBDP(rtmac.WithLearnedReliability())},
			{label: "LDF", protocol: rtmac.LDF()},
		},
		horizon:     videoIntervals,
		replaySeeds: true,
		build: func(x float64) (rtmac.Config, error) {
			return asymmetricConfig(x, videoRho)
		},
	}
}
