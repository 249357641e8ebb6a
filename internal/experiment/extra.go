package experiment

import (
	"fmt"

	"rtmac/internal/core"
	"rtmac/internal/mac"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
)

// overheadFigure sweeps a timing parameter of the DP protocol's overhead
// budget and reports DB-DP's deficiency at a fixed near-capacity load
// (α* = 0.6, near the video network's capacity knee). Two instances exist:
//
//   - extra-slottime: the backoff slot duration. The paper (§IV-C) quantifies
//     the protocol's backoff overhead as at most N+1 slots per interval and
//     points at WiFi-Nano's 800 ns slots as a way to shrink it further; this
//     figure measures exactly that sensitivity.
//   - extra-emptycost: the airtime of the empty priority-claiming frame,
//     which the paper bounds at two per interval.
func overheadFigure(id, title, xlabel string, xs []float64, apply func(p *phy.Profile, x float64)) Figure {
	return &sweepFigure{
		id:          id,
		title:       title,
		xlabel:      xlabel,
		xs:          xs, // µs values of the swept parameter
		specs:       []protocolSpec{dbdpSpec()},
		replaySeeds: true,
		build: func(x float64, opts RunOptions) (scenario, error) {
			sc, err := videoScenario(0.6, videoRho, opts.scaled(videoIntervals))
			if err != nil {
				return scenario{}, err
			}
			apply(&sc.profile, x)
			return sc, sc.profile.Validate()
		},
	}
}

// ExtraSlotTime returns the backoff-slot sensitivity ablation.
func ExtraSlotTime() Figure {
	// 1 µs ≈ WiFi-Nano territory, 9 µs = 802.11a, then progressively
	// clumsier carrier sensing.
	return overheadFigure("extra-slottime",
		"DB-DP overhead sensitivity: backoff slot duration (video, alpha*=0.6)",
		"backoff slot (us)", []float64{1, 5, 9, 18, 36, 72},
		func(p *phy.Profile, x float64) { p.Slot = sim.Time(x) })
}

// ExtraEmptyCost returns the empty-frame airtime ablation.
func ExtraEmptyCost() Figure {
	return overheadFigure("extra-emptycost",
		"DB-DP overhead sensitivity: empty priority-claim frame airtime (video, alpha*=0.6)",
		"empty frame airtime (us)", []float64{10, 70, 150, 330},
		func(p *phy.Profile, x float64) { p.EmptyAirtime = sim.Time(x) })
}

// ExtraSwapPairs compares the Remark-6 multi-pair extension's convergence:
// windowed throughput of the initially lowest-priority link for 1, 3 and 6
// swap pairs per interval.
func ExtraSwapPairs() Figure {
	var specs []protocolSpec
	for _, pairs := range []int{1, 3, 6} {
		specs = append(specs, protocolSpec{
			label:         fmt.Sprintf("%d pair(s)", pairs),
			collisionFree: true,
			swapPairs:     pairs,
			build: func(n int) (mac.Protocol, error) {
				if pairs == 1 {
					return core.NewDBDP(n)
				}
				return core.New(n, core.PaperDebtGlauber(), core.WithPairs(pairs))
			},
		})
	}
	return &trajectoryFigure{
		id:    "extra-swappairs",
		title: "Remark-6 extension: convergence of the lowest-priority link vs swap pairs per interval",
		ylabel: func(watched int, _ float64) string {
			return fmt.Sprintf("windowed timely-throughput of link %d", watched)
		},
		specs: specs,
	}
}
