package experiment

import (
	"testing"

	"rtmac"
)

// TestFigureJobAllocations pins what one figure job costs to build: a 20-link
// video job (the Fig. 3 network under DB-DP) run for one interval, so the
// count is almost all construction. A sweep runs one such job per (point,
// protocol, seed), so construction allocations dominate its per-interval
// allocation rate. The ceilings are what the figure runner cost before it
// ran through rtmac.Simulation (253 without the monitor, 335 with it).
func TestFigureJobAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	cfg, err := videoConfig(0.55, videoRho)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = rtmac.DBDP()
	cfg.Seed = 7
	for _, tc := range []struct {
		monitor bool
		max     float64
	}{{false, 253}, {true, 335}} {
		opts := RunOptions{Monitor: tc.monitor}.fill()
		got := testing.AllocsPerRun(20, func() {
			if _, err := (job{cfg: cfg, intervals: 1}).run(opts); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("monitor=%v: one figure job makes %v allocations, want at most %v", tc.monitor, got, tc.max)
		}
		t.Logf("monitor=%v: %v allocations", tc.monitor, got)
	}
}
