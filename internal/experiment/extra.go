package experiment

import (
	"fmt"

	"rtmac"
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
func overheadFigure(id, title, xlabel string, xs []float64, apply func(p rtmac.Profile, x rtmac.Time) (rtmac.Profile, error)) Figure {
	return &sweepFigure{
		id:          id,
		title:       title,
		xlabel:      xlabel,
		xs:          xs, // µs values of the swept parameter
		curves:      labelled(rtmac.DBDP()),
		horizon:     videoIntervals,
		replaySeeds: true,
		build: func(x float64) (rtmac.Config, error) {
			cfg, err := videoConfig(0.6, videoRho)
			if err != nil {
				return rtmac.Config{}, err
			}
			cfg.Profile, err = apply(cfg.Profile, rtmac.Time(x))
			return cfg, err
		},
	}
}

// ExtraSlotTime returns the backoff-slot sensitivity ablation.
func ExtraSlotTime() Figure {
	// 1 µs ≈ WiFi-Nano territory, 9 µs = 802.11a, then progressively
	// clumsier carrier sensing.
	return overheadFigure("extra-slottime",
		"DB-DP overhead sensitivity: backoff slot duration (video, alpha*=0.6)",
		"backoff slot (us)", []float64{1, 5, 9, 18, 36, 72}, rtmac.Profile.WithSlot)
}

// ExtraEmptyCost returns the empty-frame airtime ablation.
func ExtraEmptyCost() Figure {
	return overheadFigure("extra-emptycost",
		"DB-DP overhead sensitivity: empty priority-claim frame airtime (video, alpha*=0.6)",
		"empty frame airtime (us)", []float64{10, 70, 150, 330}, rtmac.Profile.WithEmptyAirtime)
}

// ExtraSwapPairs compares the Remark-6 multi-pair extension's convergence:
// windowed throughput of the initially lowest-priority link for 1, 3 and 6
// swap pairs per interval.
func ExtraSwapPairs() Figure {
	var curves []curve
	for _, pairs := range []int{1, 3, 6} {
		curves = append(curves, curve{
			label:    fmt.Sprintf("%d pair(s)", pairs),
			protocol: rtmac.DBDP(rtmac.WithSwapPairs(pairs)),
		})
	}
	return &trajectoryFigure{
		id:    "extra-swappairs",
		title: "Remark-6 extension: convergence of the lowest-priority link vs swap pairs per interval",
		ylabel: func(watched int, _ float64) string {
			return fmt.Sprintf("windowed timely-throughput of link %d", watched)
		},
		curves: curves,
	}
}
