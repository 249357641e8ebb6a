package experiment

import (
	"rtmac/internal/core"
	"rtmac/internal/mac"
)

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
		specs: []protocolSpec{
			dbdpSpec(),
			{label: "DB-DP (learned p)", collisionFree: true, build: func(n int) (mac.Protocol, error) {
				policy, err := core.NewEstimatedDebtGlauber(n)
				if err != nil {
					return nil, err
				}
				return core.New(n, policy)
			}},
			ldfSpec(),
		},
		replaySeeds: true,
		build: func(x float64, opts RunOptions) (scenario, error) {
			return asymmetricScenario(x, videoRho, opts.scaled(videoIntervals))
		},
	}
}
