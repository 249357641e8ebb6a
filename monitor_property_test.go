package rtmac_test

import (
	"math/rand"
	"testing"

	"rtmac"
)

// ---------------------------------------------------------------------------
// Property-based invariant tests: random network shapes against the runtime
// monitor. The paper's structural guarantees — σ stays a bijection, at most
// the configured number of adjacent swaps per interval, collision-freedom for
// the collision-free policies — must hold for EVERY configuration, not just
// the figure scenarios, so these tests draw random link counts, channel
// reliabilities, arrival rates, and delivery ratios from a fixed seed and
// demand that the permutation_valid, single_adjacent_swap, and
// collision_free checkers stay silent for a thousand intervals per case.
// ---------------------------------------------------------------------------

// structuralChecks are the monitor checkers whose firing would falsify the
// paper's structural guarantees (as opposed to debt_sane/airtime_conserved,
// which audit bookkeeping).
var structuralChecks = map[string]bool{
	"permutation_valid":    true,
	"single_adjacent_swap": true,
	"collision_free":       true,
}

// randomLinks draws n links with reliabilities, Bernoulli arrival rates, and
// delivery ratios in comfortably feasible ranges (the properties under test
// are structural, not capacity-related, so infeasible loads would only
// obscure them).
func randomLinks(rng *rand.Rand, n int) []rtmac.Link {
	links := make([]rtmac.Link, n)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.55 + 0.4*rng.Float64(), // [0.55, 0.95)
			Arrivals:      rtmac.MustBernoulliArrivals(0.2 + 0.6*rng.Float64()),
			DeliveryRatio: 0.5 + 0.35*rng.Float64(), // [0.5, 0.85)
		}
	}
	return links
}

// runMonitoredCase simulates one random configuration under the invariant
// monitor and fails the test if any structural checker fired.
func runMonitoredCase(t *testing.T, protocol rtmac.Protocol, seed uint64, n, intervals int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     seed,
		Profile:  rtmac.ControlProfile(),
		Links:    randomLinks(rng, n),
		Protocol: protocol,
	})
	if err != nil {
		t.Fatalf("seed=%d n=%d: %v", seed, n, err)
	}
	mon, err := s.EnableMonitor(rtmac.MonitorConfig{})
	if err != nil {
		t.Fatalf("seed=%d n=%d: %v", seed, n, err)
	}
	if err := s.Run(intervals); err != nil {
		t.Fatalf("seed=%d n=%d: %v", seed, n, err)
	}
	for _, v := range mon.Violations() {
		if structuralChecks[v.Check] {
			t.Errorf("seed=%d n=%d: %s fired: %s", seed, n, v.Check, v)
		}
	}
}

// TestMonitorInvariantsRandomConfigs sweeps random configurations for each
// collision-free policy. Each case runs 1000 intervals (100 in -short mode).
func TestMonitorInvariantsRandomConfigs(t *testing.T) {
	intervals := 1000
	cases := 5
	if testing.Short() {
		intervals = 100
		cases = 3
	}
	protocols := map[string]func() rtmac.Protocol{
		"dbdp":      func() rtmac.Protocol { return rtmac.DBDP() },
		"ldf":       func() rtmac.Protocol { return rtmac.LDF() },
		"tdma":      func() rtmac.Protocol { return rtmac.TDMA() },
		"framecsma": func() rtmac.Protocol { return rtmac.FrameCSMA() },
	}
	for name, mk := range protocols {
		t.Run(name, func(t *testing.T) {
			// The case seed doubles as the simulation seed and drives the
			// random shape, so every failure reproduces from its log line.
			shape := rand.New(rand.NewSource(0x5eed))
			for c := 0; c < cases; c++ {
				seed := uint64(1000*c + 1)
				n := 2 + shape.Intn(11) // [2, 12] links
				runMonitoredCase(t, mk(), seed, n, intervals)
			}
		})
	}
}

// TestMonitorInvariantsMultiPairSwaps exercises the swap-allowance checker
// under WithSwapPairs > 1 (Remark 6): up to that many disjoint adjacent
// swaps per interval are legal and must not trip single_adjacent_swap.
func TestMonitorInvariantsMultiPairSwaps(t *testing.T) {
	intervals := 1000
	if testing.Short() {
		intervals = 100
	}
	for _, pairs := range []int{2, 3} {
		runMonitoredCase(t, rtmac.DBDP(rtmac.WithSwapPairs(pairs)), uint64(40+pairs), 9, intervals)
	}
}
